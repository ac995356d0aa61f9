"""Protocol contracts under canonical and adversarial schedules."""

import random

import pytest

from aba.catalog import resolve
from aba.core import (
    Domain,
    InputConfiguration as IC,
    SystemParams,
    compute_similarity_certificate,
    is_similar_to,
)
from aba.errors import ConfigError, ProtocolError
from aba.protocols import (
    AcsProtocol,
    BinaryBa,
    RbcProtocol,
    SharedRandomBaStar,
    UniversalBa,
    fixed_point_label,
    fixed_point_of,
    wrap_actions,
)
from aba.simnet import (
    ASYNCHRONOUS,
    AdversaryScript,
    AsyncRandomDelay,
    CrashAt,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    RandomTape,
    SYNCHRONOUS,
    Broadcast,
    Decide,
    Send,
    SetTimer,
    SilentTo,
    SyncRandomDelay,
    canonical_schedule,
    run,
)

DELTA = 10
SYNC_FUZZ_SEEDS = 200


def cfg(*pairs):
    return IC.of(pairs)


def full_inputs(n, value="0", override=None):
    override = override or {}
    return IC.of((p, override.get(p, value)) for p in range(n))


def async_net(horizon=3000):
    return NetworkConfig(mode=ASYNCHRONOUS, delta=DELTA, horizon=horizon)


def sync_net(horizon=3000):
    return NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=horizon)


def assert_agreement(result, corrupted=()):
    decisions = result.honest_decisions(corrupted)
    values = set(decisions.values())
    assert len(values) <= 1, f"agreement violated: {decisions}"
    return next(iter(values)) if values else None


# ---------------------------------------------------------------- rbc


def test_rbc_canonical_delivers_by_three_delta():
    params = SystemParams(4, 1, 1, "PKI")
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=500)
    result = run(lambda p: RbcProtocol(params, sender=0), params, net, script,
                 full_inputs(4, "0", {0: "1"}), seed=3)
    decisions = result.honest_decisions()
    assert set(decisions.values()) == {"1"}
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "DECIDE":
            assert t <= 3 * DELTA


def test_rbc_crashed_sender_stalls_safely():
    params = SystemParams(4, 1, 1, "PKI")
    net, script = canonical_schedule(crashed={0}, delta=DELTA, horizon=400)
    result = run(lambda p: RbcProtocol(params, sender=0), params, net, script,
                 cfg((1, "0"), (2, "0"), (3, "0")), seed=3)
    assert result.honest_decisions(corrupted=[0]) == {}
    assert result.undecided_honest(corrupted=[0])


@pytest.mark.parametrize("setup,n,t_s,t_a", [("PKI", 4, 1, 1), ("NONE", 4, 1, 1)])
def test_rbc_equivocating_sender_consistency_fuzz(setup, n, t_s, t_a):
    params = SystemParams(n, t_s, t_a, setup)
    for seed in range(60):
        script = AdversaryScript(
            corrupted={0: Equivocate("0", "1")},
            delivery=AsyncRandomDelay(3 * DELTA),
        )
        result = run(lambda p: RbcProtocol(params, sender=0), params,
                     async_net(horizon=800), script,
                     cfg(*((p, "0") for p in range(1, n))), seed=seed)
        values = set(result.honest_decisions(corrupted=[0]).values())
        assert len(values) <= 1, f"seed {seed}: inconsistent delivery {values}"


def test_rbc_bounds_checked():
    with pytest.raises(ProtocolError):
        RbcProtocol(SystemParams(4, 2, 0, "PKI"), sender=0)
    with pytest.raises(ProtocolError):
        RbcProtocol(SystemParams(6, 2, 1, "NONE"), sender=0)


# ---------------------------------------------------------------- binary BA


def binba_factory(params, labels=("0", "1")):
    return lambda p: BinaryBa(params, DELTA, labels=labels)


@pytest.mark.parametrize("setup,n,t_s,t_a", [
    ("PKI", 4, 1, 1),
    ("PKI", 5, 2, 0),
    ("NONE", 4, 1, 1),
    ("NONE", 7, 2, 2),
])
def test_binba_unanimous_canonical_decides_input(setup, n, t_s, t_a):
    params = SystemParams(n, t_s, t_a, setup)
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=4000)
    result = run(binba_factory(params), params, net, script, full_inputs(n, "1"), seed=5)
    assert assert_agreement(result) == "1"
    assert not result.undecided_honest()


def test_binba_bit_validity_with_crashes():
    params = SystemParams(4, 1, 1, "PKI")
    net, script = canonical_schedule(crashed={2}, delta=DELTA, horizon=4000)
    result = run(binba_factory(params), params, net, script,
                 cfg((0, "1"), (1, "1"), (3, "1")), seed=9)
    assert assert_agreement(result, corrupted=[2]) == "1"


@pytest.mark.parametrize("setup,n,t_s,t_a", [("PKI", 4, 1, 1), ("NONE", 4, 1, 1)])
def test_binba_split_inputs_async_agreement_fuzz(setup, n, t_s, t_a):
    params = SystemParams(n, t_s, t_a, setup)
    decided_runs = 0
    for seed in range(50):
        script = AdversaryScript(delivery=AsyncRandomDelay(2 * DELTA))
        inputs = full_inputs(n, "0", {p: "1" for p in range(n // 2)})
        result = run(binba_factory(params), params, async_net(6000), script, inputs, seed=seed)
        value = assert_agreement(result)
        if value is not None and not result.undecided_honest():
            decided_runs += 1
            assert value in ("0", "1")
    assert decided_runs >= 48


@pytest.mark.parametrize("setup", ["PKI", "NONE"])
def test_binba_byzantine_equivocator_async_fuzz(setup):
    params = SystemParams(4, 1, 1, setup)
    decided_within_slo = 0
    for seed in range(50):
        rng = random.Random(seed * 31)
        behavior = (Equivocate("0", "1") if rng.random() < 0.5
                    else FollowWithInput(rng.choice(["0", "1"])))
        script = AdversaryScript(corrupted={3: behavior},
                                 delivery=AsyncRandomDelay(2 * DELTA))
        inputs = cfg((0, "1"), (1, "1"), (2, rng.choice(["0", "1"])))
        machines = {}

        def factory(p, machines=machines):
            machine = BinaryBa(params, DELTA, labels=("0", "1"))
            machines[p] = machine
            return machine

        result = run(factory, params, async_net(6000), script, inputs, seed=seed)
        assert_agreement(result, corrupted=[3])
        if not result.undecided_honest(corrupted=[3]):
            rounds = max(m.loop.round for p, m in machines.items() if p != 3)
            if rounds <= 20:
                decided_within_slo += 1
    # engineering SLO: >= 95% of runs decide within 20 coin rounds
    assert decided_within_slo >= 48


def test_binba_sync_byzantine_hard_point():
    # n = 5, t_s = 2: quorum arguments alone cannot protect agreement here;
    # the signed-chain stage must.
    params = SystemParams(5, 2, 0, "PKI")
    for seed in range(30):
        rng = random.Random(seed)
        script = AdversaryScript(
            corrupted={3: Equivocate("0", "1"), 4: FollowWithInput(rng.choice(["0", "1"]))},
            delivery=SyncRandomDelay(DELTA),
        )
        inputs = cfg((0, "0"), (1, "1"), (2, rng.choice(["0", "1"])))
        result = run(binba_factory(params), params, sync_net(6000), script, inputs, seed=seed)
        assert_agreement(result, corrupted=[3, 4])
        assert not result.undecided_honest(corrupted=[3, 4]), f"seed {seed} undecided"


# ---------------------------------------------------------------- acs


def acs_factory(params, values=("0", "1")):
    return lambda p: AcsProtocol(params, DELTA, valid_values=values)


def assert_acs_contract(result, inputs, params, sync_mode, corrupted=()):
    decisions = result.honest_decisions(corrupted)
    cores = set(decisions.values())
    assert len(cores) <= 1, f"core disagreement: {decisions}"
    if not cores:
        return None
    core = next(iter(cores))
    assert len(core) >= params.n - params.t_s
    truth = inputs.as_dict()
    honest = [p for p in range(params.n) if p not in set(corrupted)]
    for party, value in core.assignments:
        if party in honest:
            assert value == truth[party], f"integrity violated for {party}"
    if sync_mode:
        assert set(honest) <= set(core.parties), "honest core violated"
    return core


@pytest.mark.parametrize("setup,n,t_s,t_a", [
    ("PKI", 4, 1, 1),
    ("PKI", 5, 2, 0),
    ("PKI", 6, 2, 1),
    ("NONE", 4, 1, 1),
    ("NONE", 7, 2, 2),
])
def test_acs_canonical_full_core(setup, n, t_s, t_a):
    params = SystemParams(n, t_s, t_a, setup)
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=6000)
    inputs = full_inputs(n, "0", {p: "1" for p in range(n // 2)})
    result = run(acs_factory(params), params, net, script, inputs, seed=2)
    core = assert_acs_contract(result, inputs, params, sync_mode=True)
    assert core is not None
    assert core.parties == tuple(range(n))
    assert core.as_dict() == inputs.as_dict()


def test_acs_sync_crash_honest_core():
    params = SystemParams(4, 1, 1, "PKI")
    net, script = canonical_schedule(crashed={3}, delta=DELTA, horizon=6000)
    inputs = cfg((0, "0"), (1, "1"), (2, "0"))
    result = run(acs_factory(params), params, net, script, inputs, seed=8)
    core = assert_acs_contract(result, inputs, params, sync_mode=True, corrupted=[3])
    assert core is not None
    assert {0, 1, 2} <= set(core.parties)


@pytest.mark.parametrize("setup,n,t_s,t_a", [("PKI", 4, 1, 1), ("NONE", 4, 1, 1)])
def test_acs_async_byzantine_fuzz(setup, n, t_s, t_a):
    params = SystemParams(n, t_s, t_a, setup)
    decided = 0
    for seed in range(40):
        rng = random.Random(seed * 17)
        behavior = (Equivocate("0", "1") if rng.random() < 0.5
                    else FollowWithInput(rng.choice(["0", "1"])))
        script = AdversaryScript(corrupted={n - 1: behavior},
                                 delivery=AsyncRandomDelay(2 * DELTA))
        inputs = IC.of((p, rng.choice(["0", "1"])) for p in range(n - 1))
        result = run(acs_factory(params), params, async_net(8000), script, inputs, seed=seed)
        core = assert_acs_contract(result, inputs, params, sync_mode=False,
                                   corrupted=[n - 1])
        if core is not None and not result.undecided_honest(corrupted=[n - 1]):
            decided += 1
    assert decided >= 38


def test_acs_sync_byzantine_hard_point():
    params = SystemParams(5, 2, 0, "PKI")
    for seed in range(25):
        rng = random.Random(seed * 7)
        script = AdversaryScript(
            corrupted={3: Equivocate("0", "1"), 4: FollowWithInput("1")},
            delivery=SyncRandomDelay(DELTA),
        )
        inputs = IC.of((p, rng.choice(["0", "1"])) for p in range(3))
        result = run(acs_factory(params), params, sync_net(8000), script, inputs, seed=seed)
        core = assert_acs_contract(result, inputs, params, sync_mode=True,
                                   corrupted=[3, 4])
        assert core is not None, f"seed {seed} undecided"


# ---------------------------------------------------------------- universal


def make_universal(validity_name, params, values=2):
    prop, domain = resolve(validity_name, values)
    outcome = compute_similarity_certificate(prop, params, domain)
    assert outcome.feasible
    cert = outcome.certificate
    return (lambda p: UniversalBa(params, DELTA, cert)), prop, domain, cert


def test_universal_strong_unanimous_canonical():
    params = SystemParams(4, 1, 1, "PKI")
    factory, prop, domain, cert = make_universal("strong", params)
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=6000)
    result = run(factory, params, net, script, full_inputs(4, "0"), seed=6)
    assert assert_agreement(result) == "0"


def test_universal_interval_hull_output_in_honest_range():
    params = SystemParams(4, 1, 1, "PKI")
    prop, domain = resolve("interval:0:7", 0)
    cert = compute_similarity_certificate(prop, params, domain).certificate
    factory = lambda p: UniversalBa(params, DELTA, cert)
    inputs = cfg((0, "2"), (1, "5"), (2, "5"))
    for seed in range(25):
        script = AdversaryScript(corrupted={3: FollowWithInput("7")},
                                 delivery=AsyncRandomDelay(2 * DELTA))
        result = run(factory, params, async_net(8000), script, inputs, seed=seed)
        value = assert_agreement(result, corrupted=[3])
        if value is not None:
            honest_validity = prop.evaluate(params, domain, inputs)
            assert value in honest_validity, f"seed {seed}: {value} outside hull"


def test_universal_validity_and_core_coherence_fuzz():
    params = SystemParams(4, 1, 1, "PKI")
    factory, prop, domain, cert = make_universal("strong", params)
    for seed in range(40):
        rng = random.Random(seed * 13)
        corrupted = {3: (Equivocate("0", "1") if rng.random() < 0.5
                         else FollowWithInput(rng.choice(["0", "1"])))}
        script = AdversaryScript(corrupted=corrupted, delivery=AsyncRandomDelay(25))
        honest_inputs = IC.of((p, rng.choice(["0", "1"])) for p in range(3))
        result = run(factory, params, async_net(8000), script, honest_inputs, seed=seed)
        value = assert_agreement(result, corrupted=[3])
        if value is not None:
            assert value in prop.evaluate(params, domain, honest_inputs)


def test_universal_clique_adversary_substitutes_inputs():
    params = SystemParams(7, 2, 0, "PKI")
    prop, domain = resolve("clique:3", 0)
    cert = compute_similarity_certificate(prop, params, domain).certificate
    factory = lambda p: UniversalBa(params, DELTA, cert)
    inputs = IC.of((p, "a") for p in range(5))
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=8000)
    script.corrupted = {5: FollowWithInput("b"), 6: FollowWithInput("c")}
    script.delivery = SyncRandomDelay(DELTA)
    result = run(factory, params, sync_net(8000), script, inputs, seed=4)
    value = assert_agreement(result, corrupted=[5, 6])
    assert value == "a"  # hull of the honest inputs alone


def test_universal_sync_adversary_family_fuzz():
    # synchronous adversaries the acceptance corpus does not use: random delays
    # within delta, mid-run crashes, parties silent to some peers, equivocation
    params = SystemParams(6, 2, 1, "PKI")
    _, prop, domain, cert = make_universal("strong", params)
    behaviors = ("crash", "silent", "equivocate")
    for seed in range(SYNC_FUZZ_SEEDS):
        rng = random.Random(seed * 31)
        inputs = IC.of((p, rng.choice(["0", "1"])) for p in range(6))
        corrupted = {}
        for party in rng.sample(range(6), rng.randint(1, 2)):
            kind = rng.choice(behaviors)
            if kind == "crash":
                corrupted[party] = CrashAt(rng.randint(1, 16 * DELTA))  # decisions by ~17 delta
            elif kind == "silent":
                corrupted[party] = SilentTo(frozenset(rng.sample(range(6), rng.randint(1, 5))))
            else:
                corrupted[party] = Equivocate("0", "1")
        honest = [p for p in range(6) if p not in corrupted]
        truth = IC.of((p, inputs.value_of(p)) for p in honest)
        machines = {}

        def factory(p):
            machines.setdefault(p, []).append(UniversalBa(params, DELTA, cert))
            return machines[p][-1]

        script = AdversaryScript(corrupted=corrupted, delivery=SyncRandomDelay(DELTA))
        result = run(factory, params, sync_net(12000), script, inputs, seed=seed)
        assert not result.undecided_honest(corrupted), f"seed {seed}: {corrupted}"
        value = assert_agreement(result, corrupted)
        assert value in prop.evaluate(params, domain, truth), f"seed {seed}: {corrupted}"
        for p in honest:
            assert is_similar_to(machines[p][0].core, truth, params), f"seed {seed}"


# ---------------------------------------------------------------- ba-star


def test_ba_star_both_decide_shared_value():
    params = SystemParams(2, 1, 1, "PKI")
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=50)
    result = run(lambda p: SharedRandomBaStar(), params, net, script,
                 cfg((0, "0.2"), (1, "0.5")), seed=11)
    shared = RandomTape(11).shared_uniform64("ba-star")
    decisions = result.honest_decisions()
    assert set(decisions.values()) == {fixed_point_label(shared)}


def test_ba_star_colliding_input_never_decides():
    params = SystemParams(2, 1, 1, "PKI")
    shared = RandomTape(12).shared_uniform64("ba-star")
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=50)
    result = run(lambda p: SharedRandomBaStar(), params, net, script,
                 cfg((0, fixed_point_label(shared)), (1, "0.5")), seed=12)
    outcomes = result.outcomes
    assert outcomes[(0, 0)] is None
    assert outcomes[(1, 0)] is not None


def test_ba_star_no_communication():
    params = SystemParams(3, 1, 1, "PKI")
    net, script = canonical_schedule(crashed=(), delta=DELTA, horizon=50)
    result = run(lambda p: SharedRandomBaStar(), params, net, script,
                 full_inputs(3, "0.25"), seed=13)
    assert result.trace.of_kind("SEND") == []


def test_fixed_point_parsing():
    assert fixed_point_of("0") == 0
    assert fixed_point_of("0.5") == 1 << 63
    assert fixed_point_of(fixed_point_label(12345)) == 12345
    with pytest.raises(Exception):
        fixed_point_of("1.5")


def test_fixed_point_reads_an_int_as_its_text():
    assert fixed_point_of(0) == fixed_point_of("0") == 0
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\), got 5"):
        fixed_point_of(5)


def test_wrap_actions_rejects_a_point_to_point_send():
    wrapped, decided = wrap_actions("sub", [Broadcast("b"), SetTimer("t", 2), Decide("1")])
    assert wrapped == [Broadcast(("sub", "b")), SetTimer(("sub", "t"), 2)] and decided == ["1"]
    with pytest.raises(ProtocolError, match="sub-protocol emitted unknown action Send"):
        wrap_actions("sub", [Send(1, "x")])


@pytest.mark.parametrize("text", ["abc", "", "nan", "inf", "0xzz", "0x", "1/0", None])
def test_fixed_point_rejects_text_it_cannot_parse(text):
    with pytest.raises(ConfigError, match="fixed-point input is not a number"):
        fixed_point_of(text)
