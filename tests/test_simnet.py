"""Simulator determinism, delivery invariants, and oracle semantics."""

import random

import pytest

from aba.core import InputConfiguration as IC, SystemParams
from aba.errors import ConfigError, CorruptionBudgetError, ProtocolError, SetupUnavailableError
from aba.protocols import ConstantProtocol, Machine
from aba.simnet import (
    ASYNCHRONOUS,
    AdversaryScript,
    AsyncRandomDelay,
    AsyncUniformDelay,
    Broadcast,
    CrashAt,
    Decide,
    Envelope,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    NodeInstance,
    PartitionPolicy,
    RandomTape,
    SetTimer,
    SignatureOracle,
    SilentTo,
    Simulation,
    SyncExactDelay,
    SyncRandomDelay,
    SYNCHRONOUS,
    canonical_schedule,
    run,
)


def cfg(*pairs):
    return IC.of(pairs)


PARAMS4 = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")
INPUTS4 = cfg((0, "0"), (1, "0"), (2, "0"), (3, "0"))


class EchoOnce(Machine):
    """Broadcasts its input, decides the multiset of received values at 2
    deltas; enough traffic to exercise scheduling."""

    def __init__(self):
        self.seen = []

    def on_start(self, ctx, value):
        return [Broadcast(("VAL", value)), SetTimer("cut", 2 * ctx.delta + 1)]

    def on_message(self, ctx, src, payload):
        self.seen.append((src, payload[1]))
        return []

    def on_timer(self, ctx, tag):
        return [Decide("|".join(v for _, v in sorted(self.seen)))]


def run_echo(seed=1, mode=SYNCHRONOUS, adversary=None, inputs=INPUTS4, horizon=400):
    net = NetworkConfig(mode=mode, delta=10, horizon=horizon)
    adversary = adversary or AdversaryScript()
    return run(lambda p: EchoOnce(), PARAMS4, net, adversary, inputs, seed)


def test_constant_protocol_decides_at_time_zero():
    net, script = canonical_schedule(crashed=(), horizon=100)
    result = run(lambda p: ConstantProtocol("c"), PARAMS4, net, script, INPUTS4, seed=7)
    assert all(value == "c" for value in result.honest_decisions().values())
    decides = result.trace.of_kind("DECIDE")
    assert len(decides) == 4
    assert all(event[0] == 0 for event in decides)


def test_replay_determinism_same_trace_hash():
    for seed in range(20):
        first = run_echo(seed=seed, mode=ASYNCHRONOUS,
                         adversary=AdversaryScript(delivery=AsyncRandomDelay(25)))
        second = run_echo(seed=seed, mode=ASYNCHRONOUS,
                          adversary=AdversaryScript(delivery=AsyncRandomDelay(25)))
        assert first.trace.sha256() == second.trace.sha256()


def test_different_seeds_differ():
    hashes = {run_echo(seed=s, mode=ASYNCHRONOUS,
                       adversary=AdversaryScript(delivery=AsyncRandomDelay(25))).trace.sha256()
              for s in range(6)}
    assert len(hashes) > 1


def test_synchronous_latency_bound_and_eventual_delivery():
    result = run_echo(seed=3)
    sends = {}
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "SEND" and detail.get("deliver_at") != "held":
            assert detail["deliver_at"] - t <= 10
            sends[(party, replica, detail["dst"], detail["dst_replica"], t, detail["payload"])] = False
    delivered = result.trace.of_kind("DELIVER")
    assert len(delivered) == len(sends)


def test_authenticated_channels_every_deliver_matches_a_send():
    result = run_echo(seed=11, mode=ASYNCHRONOUS,
                      adversary=AdversaryScript(delivery=AsyncRandomDelay(30)))
    sent = set()
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "SEND":
            sent.add((party, detail["dst"], detail["payload"]))
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "DELIVER":
            assert (detail["src"], party, detail["payload"]) in sent


def test_corruption_budget_enforced():
    script = AdversaryScript(corrupted={1: CrashAt(0), 2: CrashAt(0)})
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=100)
    with pytest.raises(CorruptionBudgetError):
        run(lambda p: EchoOnce(), PARAMS4, net, script, INPUTS4, seed=1)
    # the same script is legal at t_s=2
    params = SystemParams(n=4, t_s=2, t_a=1, setup="PKI")
    run(lambda p: EchoOnce(), params, net, script, INPUTS4, seed=1)
    with pytest.raises(CorruptionBudgetError):
        run(lambda p: EchoOnce(), params,
            NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=100), script, INPUTS4, seed=1)


def test_crashed_party_emits_no_sends():
    net, script = canonical_schedule(crashed={2}, horizon=200)
    result = run(lambda p: EchoOnce(), PARAMS4, net, script,
                 cfg((0, "0"), (1, "1"), (3, "1")), seed=5)
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "SEND":
            assert party != 2
    assert any(kind == "CRASH" and party == 2
               for t, kind, party, replica, detail in result.trace.events)


def test_canonical_schedule_exact_delta():
    result = run_echo(seed=9)
    for t, kind, party, replica, detail in result.trace.events:
        if kind == "SEND":
            assert detail["deliver_at"] == t + 10


def test_missing_honest_input_rejected():
    net, script = canonical_schedule(crashed=(), horizon=100)
    with pytest.raises(ConfigError):
        run(lambda p: EchoOnce(), PARAMS4, net, script, cfg((0, "0"), (1, "0")), seed=1)


@pytest.mark.parametrize("behavior", [CrashAt(15), SilentTo(frozenset({1}))])
def test_corrupted_party_that_would_start_without_input_rejected(behavior):
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=200)
    script = AdversaryScript(corrupted={3: behavior})
    with pytest.raises(ConfigError, match="corrupted party 3"):
        run(lambda p: EchoOnce(), PARAMS4, net, script, cfg((0, "0"), (1, "0"), (2, "0")),
            seed=1)
    # the same behavior runs once the party has an input
    run(lambda p: EchoOnce(), PARAMS4, net, script, INPUTS4, seed=1)


def test_inputs_must_name_parties_of_the_run():
    with pytest.raises(ConfigError, match=r"inputs reference a party outside 0\.\.n-1"):
        run_echo(inputs=cfg(*INPUTS4.assignments, (4, "0")))


def test_equivocating_copy_without_input_rejected():
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=200)
    script = AdversaryScript(corrupted={3: Equivocate("0", None)})
    with pytest.raises(ConfigError, match=r"corrupted party 3 \(Equivocate\) would start copy b"):
        run(lambda p: EchoOnce(), PARAMS4, net, script, INPUTS4, seed=1)


@pytest.mark.parametrize("behavior", [
    CrashAt(0), Equivocate("0", "1"), FollowWithInput("1"), SilentTo(frozenset({1}), "1"),
])
def test_corrupted_party_input_from_behavior(behavior):
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=200)
    script = AdversaryScript(corrupted={3: behavior})
    result = run(lambda p: EchoOnce(), PARAMS4, net, script,
                 cfg((0, "0"), (1, "0"), (2, "0")), seed=1)
    assert not result.undecided_honest(corrupted=[3])


def test_run_result_holds_each_nodes_machines_as_the_run_left_them():
    built = {}

    def factory(party):
        machine = EchoOnce()
        built.setdefault(party, []).append(machine)
        return machine

    script = AdversaryScript(corrupted={3: Equivocate("0", "1")})
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=200)
    result = run(factory, PARAMS4, net, script, cfg((0, "0"), (1, "0"), (2, "0")), seed=1)
    assert result.machines == {(p, 0): built[p] for p in range(4)}
    assert [len(result.machines[(p, 0)]) for p in range(4)] == [1, 1, 1, 2]
    assert all(machine.seen for machine in result.machines[(0, 0)])


def test_follow_with_input_substitutes_value():
    net, _ = canonical_schedule(crashed=(), horizon=200)
    script = AdversaryScript(corrupted={3: FollowWithInput("9")},
                             delivery=None)
    result = run(lambda p: EchoOnce(), PARAMS4, net, script,
                 cfg((0, "0"), (1, "0"), (2, "0")), seed=2)
    decisions = result.honest_decisions(corrupted=[3])
    assert all("9" in v for v in decisions.values())


class DecideNoneThenOne(Machine):
    """Decides None at start, then "1" on a timer."""

    def on_start(self, ctx, value):
        return [Decide(None), SetTimer("again", 1)]

    def on_message(self, ctx, src, payload):
        return []

    def on_timer(self, ctx, tag):
        return [Decide("1")]


def test_deciding_none_is_a_protocol_error():
    params = SystemParams(n=2, t_s=1, t_a=0, setup="PKI")
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=100)
    with pytest.raises(ProtocolError, match="decided None"):
        run(lambda p: DecideNoneThenOne(), params, net, AdversaryScript(),
            cfg((0, "0"), (1, "0")), seed=1)
    # a corrupted node's decisions are ignored, None included
    script = AdversaryScript(corrupted={1: FollowWithInput("0")})
    machines = {0: ConstantProtocol("0"), 1: DecideNoneThenOne()}
    result = run(machines.__getitem__, params, net, script, cfg((0, "0")), seed=1)
    assert result.honest_decisions(corrupted=[1]) == {(0, 0): "0"}


# ---------------------------------------------------------------- randomness


def test_common_coin_agreement_and_reproducibility():
    tape_a = RandomTape(42)
    tape_b = RandomTape(42)
    keys = [("inst", r) for r in range(10)]
    assert [tape_a.coin(k) for k in keys] == [tape_b.coin(k) for k in keys]
    assert RandomTape(43).coin(("inst", 0)) in (0, 1)


def test_common_coin_unbiased():
    hits = sum(RandomTape(seed).coin(("i", 1)) for seed in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


# ---------------------------------------------------------------- signatures


def test_signature_oracle_semantics():
    oracle = SignatureOracle(enabled=True)
    token = oracle.sign(1, ("msg", 5))
    assert oracle.verify(1, ("msg", 5), token)
    assert not oracle.verify(1, ("msg", 6), token)
    assert not oracle.verify(2, ("msg", 5), token)
    # corrupted parties sign what they like with their own key
    oracle.sign(3, ("lie",))
    assert oracle.verify(3, ("lie",))


def test_signatures_unavailable_without_pki():
    oracle = SignatureOracle(enabled=False)
    with pytest.raises(SetupUnavailableError):
        oracle.sign(0, "x")
    with pytest.raises(SetupUnavailableError):
        oracle.verify(0, "x")


# ---------------------------------------------------------------- replication


def test_replicas_with_identical_messages_decide_identically():
    # two replicas of party 0 wired to receive the same broadcast traffic
    params = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=300)
    sim = Simulation(params, net, seed=5)
    factory = lambda p: EchoOnce()
    for tag in (0, 1):
        sim.add_node(
            NodeInstance(party_id=0, replica_tag=tag, input="a", route={0: (0, tag)}),
            factory,
        )
    sim.add_node(NodeInstance(party_id=1, input="b", route={0: (0, 0)}), factory)
    # party 2 routes its party-0 traffic to the second replica
    sim.add_node(NodeInstance(party_id=2, input="b", route={0: (0, 1)}), factory)
    outcomes = sim.run()
    assert outcomes[(0, 0)] == outcomes[(0, 1)]


def replica_wiring() -> list:
    """Two replicas of party 0; party 1 talks to the first, party 2 to the second."""
    return [NodeInstance(party_id=0, replica_tag=tag, input="a", route={0: (0, tag)})
            for tag in (0, 1)] + [NodeInstance(party_id=1, input="b", route={0: (0, 0)}),
                                  NodeInstance(party_id=2, input="b", route={0: (0, 1)})]


def test_run_with_nodes_matches_a_hand_built_simulation():
    params = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")
    net, script = canonical_schedule((), delta=10, horizon=300)
    sim = Simulation(params, net, seed=5, policy=script.delivery)
    for node in replica_wiring():
        sim.add_node(node, lambda p: EchoOnce())
    outcomes = sim.run()
    result = run(lambda p: EchoOnce(), params, net, script, None, 5, nodes=replica_wiring())
    assert result.outcomes == outcomes
    assert result.trace.sha256() == sim.trace.sha256()


def test_run_with_nodes_checks_inputs_like_run_with_inputs():
    params = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")
    nodes = replica_wiring()
    nodes[1] = NodeInstance(party_id=0, replica_tag=1, route={0: (0, 1)})
    net, script = canonical_schedule((), delta=10, horizon=300)
    with pytest.raises(ConfigError, match="honest party 0 missing from inputs"):
        run(lambda p: EchoOnce(), params, net, script, None, 5, nodes=nodes)
    # a node that crashes at time 0 never starts, so it needs no input
    net, script = canonical_schedule({0}, delta=10, horizon=300)
    for node in nodes:
        node.corrupted = node.party_id == 0
    run(lambda p: EchoOnce(), params, net, script, None, 5, nodes=nodes)


def test_run_with_one_node_per_party_matches_run_with_inputs():
    inputs = cfg((0, "0"), (1, "1"), (2, "0"), (3, "1"))
    script = AdversaryScript(corrupted={3: CrashAt(5)})
    nodes = [NodeInstance(party_id=p, corrupted=p == 3, input=v) for p, v in inputs.assignments]
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=300)
    by_inputs = run(lambda p: EchoOnce(), PARAMS4, net, script, inputs, 2)
    by_nodes = run(lambda p: EchoOnce(), PARAMS4, net, script, None, 2, nodes=nodes)
    assert by_nodes.outcomes == by_inputs.outcomes
    assert by_nodes.trace.sha256() == by_inputs.trace.sha256()


class RejectsOne(EchoOnce):
    """EchoOnce that raises on input "1"."""

    def on_start(self, ctx, value):
        if value == "1":
            raise ValueError("input 1")
        return super().on_start(ctx, value)


def test_run_with_nodes_takes_corruption_from_the_adversary():
    script = AdversaryScript(corrupted={0: FollowWithInput("1")})
    net = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=300)
    nodes = [NodeInstance(party_id=p, input="0") for p in range(4)]
    with pytest.raises(ConfigError, match=r"node \(0, 0\) has corrupted=False, but the "
                                          r"adversary corrupts parties \[0\]"):
        run(lambda p: RejectsOne(), PARAMS4, net, script, None, 2, nodes=nodes)
    nodes[0].corrupted = True
    by_nodes = run(lambda p: RejectsOne(), PARAMS4, net, script, None, 2, nodes=nodes)
    by_inputs = run(lambda p: RejectsOne(), PARAMS4, net, script, INPUTS4, 2)
    assert by_nodes.outcomes == by_inputs.outcomes
    assert by_nodes.trace.sha256() == by_inputs.trace.sha256()
    # party 0's error is contained in both: one CRASH, and the others decide
    assert [e[2] for e in by_nodes.trace.of_kind("CRASH")] == [0]
    assert len(by_nodes.honest_decisions([0])) == 3
    # a node flagged corrupted whose party the adversary leaves honest
    nodes[0].corrupted, nodes[1].corrupted = False, True
    with pytest.raises(ConfigError, match=r"node \(1, 0\) has corrupted=True, but the "
                                          r"adversary corrupts parties \[\]"):
        run(lambda p: RejectsOne(), PARAMS4, net, AdversaryScript(), None, 2, nodes=nodes)


# ---------------------------------------------------------------- partitions


def test_partition_policy_holds_cross_group_until_decision():
    groups = [{(0, 0), (1, 0)}, {(2, 0), (3, 0)}]
    policy = PartitionPolicy(groups)
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=500)
    script = AdversaryScript(delivery=policy)
    result = run(lambda p: EchoOnce(), PARAMS4, net, script,
                 cfg((0, "0"), (1, "0"), (2, "1"), (3, "1")), seed=4)
    # each side decides on its own group's values only
    decisions = result.honest_decisions()
    assert decisions[(0, 0)] == decisions[(1, 0)] == "0|0"
    assert decisions[(2, 0)] == decisions[(3, 0)] == "1|1"
    # cross messages still delivered by the horizon (eventual delivery)
    sends = [e for e in result.trace.events if e[1] == "SEND"]
    delivers = [e for e in result.trace.events if e[1] == "DELIVER"]
    assert len(delivers) == len(sends)


def test_partition_single_group_is_uniform_delivery():
    policy = PartitionPolicy([{(0, 0), (1, 0), (2, 0), (3, 0)}])
    env = Envelope(src=(0, 0), dst=(1, 0), payload="x", sent_at=5)
    assert policy.schedule(env, None) == 6


def test_partition_three_groups_pairwise_isolated():
    params = SystemParams(n=6, t_s=2, t_a=2, setup="PKI")
    policy = PartitionPolicy([{(0, 0), (1, 0)}, {(2, 0), (3, 0)}, {(4, 0), (5, 0)}])
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=600)
    script = AdversaryScript(delivery=policy)
    inputs = cfg((0, "a"), (1, "a"), (2, "b"), (3, "b"), (4, "c"), (5, "c"))
    result = run(lambda p: EchoOnce(), params, net, script, inputs, seed=2)
    decisions = result.honest_decisions()
    assert decisions[(0, 0)] == decisions[(1, 0)] == "a|a"
    assert decisions[(2, 0)] == decisions[(3, 0)] == "b|b"
    assert decisions[(4, 0)] == decisions[(5, 0)] == "c|c"


def test_partition_release_time_lets_messages_through():
    policy = PartitionPolicy([{(0, 0), (1, 0)}, {(2, 0), (3, 0)}], release_time=5)
    late = Envelope(src=(0, 0), dst=(2, 0), payload="x", sent_at=9)
    assert policy.schedule(late, None) == 10
    early = Envelope(src=(0, 0), dst=(2, 0), payload="x", sent_at=2)
    assert policy.schedule(early, None) is None


def test_partition_groups_must_be_disjoint():
    with pytest.raises(ConfigError):
        PartitionPolicy([{(0, 0), (1, 0)}, {(1, 0), (2, 0)}])
    PartitionPolicy([{(0, 0), (0, 0)}, {(0, 1)}])  # replicas of one party may split


def test_partition_sides_are_node_instances():
    # replica 1 of party 0 sits with party 1, replica 0 with party 2
    policy = PartitionPolicy([{(0, 0), (2, 0)}, {(0, 1), (1, 0)}])
    assert policy.schedule(Envelope(src=(1, 0), dst=(0, 1), payload="x", sent_at=3), None) == 4
    assert policy.schedule(Envelope(src=(1, 0), dst=(0, 0), payload="x", sent_at=3), None) is None
    # nodes in no group are not partitioned
    assert policy.schedule(Envelope(src=(3, 0), dst=(0, 0), payload="x", sent_at=3), None) == 4


def test_four_delay_names_are_two_rules():
    assert SyncExactDelay is AsyncUniformDelay and SyncRandomDelay is AsyncRandomDelay
    env = Envelope(src=(0, 0), dst=(1, 0), payload="x", sent_at=5)
    assert AsyncUniformDelay().schedule(env, None) == 6
    assert SyncExactDelay(10).schedule(env, None) == 15
    rng = random.Random(3)
    assert {AsyncRandomDelay(3).schedule(env, rng) for _ in range(40)} == {6, 7, 8}


@pytest.mark.parametrize("delay", [0, -1])
def test_delay_rules_reject_a_delay_below_one(delay):
    for rule in (SyncExactDelay, SyncRandomDelay):
        with pytest.raises(ConfigError, match="delay must be at least 1"):
            rule(delay)
