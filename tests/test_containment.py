"""A corrupted node's exception crashes that node only.

When the machine of a corrupted node raises in `on_start`, `on_message` or
`on_timer`, or the engine rejects one of its actions (a timer delay below 1,
an unknown action), the engine records one CRASH event naming the exception
type and treats the node as crashed from then on. An honest node's exception
is a bug and still propagates out of the run.

An honest ACS machine drops a message whose tag is malformed (not a 2-tuple,
or with an unhashable index), and a certshare whose signers are not a tuple
of party ids, instead of raising. So do the reliable broadcast and the chain
relay for a message of the wrong shape, and neither changes its state. So
does a coin-voting instance for a VOTE, CAND or DONE of the wrong shape, and
the certified-core merge for a claimed value it cannot key.
"""

import copy

import pytest

from aba.catalog import resolve
from aba.core import InputConfiguration as IC, SystemParams, compute_similarity_certificate
from aba.errors import ProtocolError
from aba.protocols import AcsProtocol, ConstantProtocol, Machine, UniversalBa
from aba.protocols.binary import CoinVotingInstance
from aba.protocols.broadcast import ChainBroadcastStage, RbcInstance
from aba.simnet import (
    CRASH,
    DECIDE,
    DELIVER,
    SEND,
    SYNCHRONOUS,
    TIMER,
    AdversaryScript,
    Broadcast,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    NodeCtx,
    NodeInstance,
    SetTimer,
    Simulation,
    SyncRandomDelay,
    _payload_detail,
    run,
)

DELTA = 10
PARAMS = SystemParams(4, 1, 1, "PKI")


class Boom(Exception):
    pass


class Faulty(Machine):
    """Delegates to `inner`, but raises on the `nth` call of `handler`."""

    def __init__(self, inner, handler, nth):
        self.inner = inner
        self.handler = handler
        self.nth = nth
        self.calls = 0

    def _call(self, handler, *args):
        if handler == self.handler:
            self.calls += 1
            if self.calls == self.nth:
                raise Boom(f"{handler} call {self.nth}")
        return getattr(self.inner, handler)(*args)

    def on_start(self, ctx, value):
        return self._call("on_start", ctx, value)

    def on_message(self, ctx, src, payload):
        return self._call("on_message", ctx, src, payload)

    def on_timer(self, ctx, tag):
        return self._call("on_timer", ctx, tag)


def universal_run(faulty_party, handler, nth, behavior=None, seed=3):
    prop, domain = resolve("strong", 2)
    cert = compute_similarity_certificate(prop, PARAMS, domain).certificate

    def factory(p):
        machine = UniversalBa(PARAMS, DELTA, cert)
        return Faulty(machine, handler, nth) if p == faulty_party else machine

    inputs = IC.of([(0, "0"), (1, "1"), (2, "1"), (3, "0")])
    script = AdversaryScript(corrupted={3: behavior or FollowWithInput("0")},
                             delivery=SyncRandomDelay(DELTA))
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    return run(factory, PARAMS, net, script, inputs, seed), prop, domain, inputs


def assert_contained(result, prop, domain, inputs):
    honest = result.honest_decisions(corrupted=[3])
    assert sorted(honest) == [(0, 0), (1, 0), (2, 0)]
    assert len(set(honest.values())) == 1  # agreement
    truth = IC.of((p, inputs.value_of(p)) for p in range(3))
    assert set(honest.values()) <= prop.evaluate(PARAMS, domain, truth)  # validity
    events = result.trace.events
    crashes = [(i, e) for i, e in enumerate(events) if e[1] == CRASH]
    assert len(crashes) == 1
    index, (t, _kind, party, replica, detail) = crashes[0]
    assert (party, replica) == (3, 0)
    assert detail == {"at": t, "error": "Boom"}
    assert list(detail) == ["at", "error"]
    assert not any(e[1] == SEND and e[2] == 3 for e in events[index:])
    assert not any(e[2] == 3 and e[1] != "DELIVER" for e in events[index + 1:])
    return t


def test_corrupted_machine_raising_on_third_message_crashes_only_that_node():
    result, prop, domain, inputs = universal_run(3, "on_message", 3)
    t = assert_contained(result, prop, domain, inputs)
    events = result.trace.events
    assert any(e[1] == SEND and e[2] == 3 and e[0] <= t for e in events)  # it had started
    assert result.outcomes[(3, 0)] is None


@pytest.mark.parametrize("handler, nth", [("on_start", 1), ("on_timer", 1)])
def test_corrupted_machine_raising_in_start_or_timer_is_contained(handler, nth):
    result, prop, domain, inputs = universal_run(3, handler, nth)
    t = assert_contained(result, prop, domain, inputs)
    if handler == "on_start":
        assert t == 0 and not any(e[1] == SEND and e[2] == 3 for e in result.trace.events)


def test_equivocating_node_stops_both_copies():
    result, prop, domain, inputs = universal_run(3, "on_message", 4, Equivocate("0", "1"))
    assert_contained(result, prop, domain, inputs)


def test_honest_machine_exception_still_aborts_the_run():
    with pytest.raises(Boom, match="on_message call 3"):
        universal_run(0, "on_message", 3)


class BadAction(Machine):
    """Broadcasts, then emits `bad` and a second broadcast in the same
    action list of `on_start`."""

    def __init__(self, bad):
        self.bad = bad

    def on_start(self, ctx, value):
        return [Broadcast(("before",)), self.bad, Broadcast(("after",))]


BAD_ACTIONS = {
    "zero-delay-timer": (lambda: SetTimer("x", 0), "timer delay must be >= 1"),
    "unknown-action": (lambda: object(), "unknown action"),
}


def bad_action_run(bad_party, bad, corrupted):
    def factory(p):
        return BadAction(bad) if p == bad_party else ConstantProtocol("0")

    inputs = IC.of((p, "0") for p in range(PARAMS.n))
    script = AdversaryScript(corrupted={bad_party: FollowWithInput("0")} if corrupted else {})
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=200)
    return run(factory, PARAMS, net, script, inputs, 1)


@pytest.mark.parametrize("name", sorted(BAD_ACTIONS))
def test_corrupted_node_rejected_action_crashes_only_that_node(name):
    make, _message = BAD_ACTIONS[name]
    result = bad_action_run(3, make(), corrupted=True)
    assert result.honest_decisions(corrupted=[3]) == {(p, 0): "0" for p in range(3)}
    assert result.outcomes[(3, 0)] is None
    events = result.trace.events
    crashes = [e for e in events if e[1] == CRASH]
    assert crashes == [(0, CRASH, 3, 0, {"at": 0, "error": "ProtocolError"})]
    assert list(crashes[0][4]) == ["at", "error"]
    # the broadcast before the rejected action went out, the one after it did not
    payloads = [e[4]["payload"] for e in events if e[1] == SEND and e[2] == 3]
    assert payloads == ['v1:["before"]'] * PARAMS.n
    assert not any(e[1] == TIMER for e in events)
    assert len([e for e in events if e[1] == DECIDE]) == 3


@pytest.mark.parametrize("name", sorted(BAD_ACTIONS))
def test_honest_node_rejected_action_still_aborts_the_run(name):
    make, message = BAD_ACTIONS[name]
    with pytest.raises(ProtocolError, match=message):
        bad_action_run(3, make(), corrupted=False)


MALFORMED_TAGS = {
    "empty-tuple": (),
    "list-index": ("rbc", [1]),
    "dict-index": ("aba", {}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TAGS))
def test_honest_acs_drops_a_malformed_tag(name):
    acs = AcsProtocol(PARAMS, DELTA)
    assert acs.on_message(None, 3, (MALFORMED_TAGS[name], "x")) == []


class Garbling(Machine):
    """Runs `inner`, and also broadcasts a universal-layer message whose ACS
    tag is malformed when it starts."""

    def __init__(self, inner, tag):
        self.inner = inner
        self.tag = tag

    def on_start(self, ctx, value):
        return self.inner.on_start(ctx, value) + [Broadcast(("acs", (self.tag, "x")))]

    def on_message(self, ctx, src, payload):
        return self.inner.on_message(ctx, src, payload)

    def on_timer(self, ctx, tag):
        return self.inner.on_timer(ctx, tag)


@pytest.mark.parametrize("name", sorted(MALFORMED_TAGS))
def test_corrupted_malformed_acs_tag_does_not_abort_the_honest_run(name):
    prop, domain = resolve("strong", 2)
    cert = compute_similarity_certificate(prop, PARAMS, domain).certificate

    def factory(p):
        machine = UniversalBa(PARAMS, DELTA, cert)
        return Garbling(machine, MALFORMED_TAGS[name]) if p == 3 else machine

    inputs = IC.of([(0, "1"), (1, "1"), (2, "1"), (3, "0")])
    script = AdversaryScript(corrupted={3: FollowWithInput("0")},
                             delivery=SyncRandomDelay(DELTA))
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    result = run(factory, PARAMS, net, script, inputs, 3)
    events = result.trace.events
    assert any(e[1] == SEND and e[2] == 3 and e[4]["payload"].startswith('v1:["acs", [')
               and '"x"]]' in e[4]["payload"] for e in events)
    assert not any(e[1] == CRASH for e in events)
    honest = result.honest_decisions(corrupted=[3])
    assert sorted(honest) == [(0, 0), (1, 0), (2, 0)]
    assert len(set(honest.values())) == 1  # agreement
    truth = IC.of((p, "1") for p in range(3))
    assert set(honest.values()) <= prop.evaluate(PARAMS, domain, truth)  # validity


JUNK_CERTSHARES = {
    "int-signers": ("x", 5),
    "list-signers": ("x", ([0], [1], [2])),
    "list-of-ids": ("x", [0, 1, 2]),
    "bool-signer": ("x", (0, 1, True)),
    "out-of-range": ("x", (0, 1, 7)),
}


@pytest.mark.parametrize("name", sorted(JUNK_CERTSHARES))
def test_honest_acs_drops_a_junk_certshare(name):
    acs = AcsProtocol(PARAMS, DELTA)
    assert acs.on_message(None, 3, ("certshare", JUNK_CERTSHARES[name])) == []


class JunkSharing(Garbling):
    """Runs `inner`, and also broadcasts every junk certshare when it starts."""

    def __init__(self, inner):
        super().__init__(inner, None)

    def on_start(self, ctx, value):
        return self.inner.on_start(ctx, value) + [
            Broadcast(("acs", ("certshare", junk))) for junk in JUNK_CERTSHARES.values()]


def test_corrupted_junk_certshares_do_not_abort_the_honest_run():
    prop, domain = resolve("strong", 2)
    cert = compute_similarity_certificate(prop, PARAMS, domain).certificate

    def factory(p):
        machine = UniversalBa(PARAMS, DELTA, cert)
        return JunkSharing(machine) if p == 3 else machine

    inputs = IC.of([(0, "1"), (1, "1"), (2, "1"), (3, "0")])
    script = AdversaryScript(corrupted={3: FollowWithInput("0")},
                             delivery=SyncRandomDelay(DELTA))
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    result = run(factory, PARAMS, net, script, inputs, 3)
    events = result.trace.events
    shares = [e for e in events if e[1] == SEND and e[2] == 3
              and e[4]["payload"].startswith('v1:["acs", ["certshare", ["x"')]
    assert len(shares) == len(JUNK_CERTSHARES) * PARAMS.n
    assert not any(e[1] == CRASH for e in events)
    honest = result.honest_decisions(corrupted=[3])
    assert sorted(honest) == [(0, 0), (1, 0), (2, 0)]
    assert len(set(honest.values())) == 1  # agreement
    truth = IC.of((p, "1") for p in range(3))
    assert set(honest.values()) <= prop.evaluate(PARAMS, domain, truth)  # validity


# malformed reliable-broadcast and chain-relay messages: each made an honest
# handler raise before the shape guards
JUNK_CHAINS = {
    "short": ("CHAIN", 1, "0"),
    "int-signers": ("CHAIN", 1, "0", 5),
    "list-sender": ("CHAIN", [1], "0", (1,)),
    "list-signer": ("CHAIN", 1, "0", ([1],)),
    "not-a-tuple": 5,
    "list-message": ["CHAIN", 1, "0", (1,)],
}
JUNK_RBCS = {
    "not-a-tuple": 5,
    "empty": (),
    "short-ready": ("READY", "0"),
    "short-propose": ("PROPOSE",),
    "list-echo": ("ECHO", ["x"]),
    "list-ready": ("READY", ["x"], None),
}
# junk only with PKI, where a READY's certificate is read
JUNK_CERTS = {
    "int-cert": ("READY", "0", 5),
    "list-signers-cert": ("READY", "0", [[0], [1], [2]]),
}


def junk_rbcs(setup):
    return {**JUNK_RBCS, **JUNK_CERTS} if setup == "PKI" else JUNK_RBCS


def pki_ctx(party, params=PARAMS):
    sim = Simulation(params, NetworkConfig(mode=SYNCHRONOUS, delta=DELTA), seed=1)
    return sim, NodeCtx(sim, NodeInstance(party_id=party))


@pytest.mark.parametrize("name", sorted(JUNK_CHAINS))
def test_chain_stage_drops_a_malformed_chain(name):
    _, ctx = pki_ctx(0)
    ctx.sign(("chain", 1, "0"))  # party 1 would have signed it, as a key for True too
    stage = ChainBroadcastStage(PARAMS.n, PARAMS.t_s, me=0)
    stage.start(ctx, "mine")
    before = copy.deepcopy(vars(stage))
    assert stage.handle(ctx, 1, JUNK_CHAINS[name]) == []
    assert vars(stage) == before


@pytest.mark.parametrize("setup, name", [(setup, name) for setup in ("PKI", "NONE")
                                         for name in sorted(junk_rbcs(setup))])
def test_rbc_drops_a_malformed_message(setup, name):
    params = SystemParams(4, 1, 1, setup)
    pki = setup == "PKI"
    sim, ctx = pki_ctx(3, params)
    if pki:  # every statement a junk value could name is signed
        for party in range(params.n):
            for value in ("0", ["x"]):
                sim.signatures.sign(party, ("rbc-prop", 0, value))
                sim.signatures.sign(party, ("rbc-echo", 0, value))
    rbc = RbcInstance(params.n, params.t_s, pki, sender=0)
    assert rbc.handle(ctx, 1, ("ECHO", "0")) == []  # one echo counted
    before = copy.deepcopy(vars(rbc))
    assert rbc.handle(ctx, 1, junk_rbcs(setup)[name]) == []
    assert vars(rbc) == before


class JunkRelaying(Garbling):
    """Runs `inner`; when it starts, also broadcasts every junk RBC message
    to every instance, and at T_core every junk chain to the claims stage."""

    def __init__(self, inner, setup):
        super().__init__(inner, None)
        self.rbc_junk = junk_rbcs(setup).values()

    def on_start(self, ctx, value):
        return self.inner.on_start(ctx, value) + [
            Broadcast(("acs", (("rbc", j), junk))) for j in range(ctx.n) for junk in self.rbc_junk]

    def on_timer(self, ctx, tag):
        actions = self.inner.on_timer(ctx, tag)
        if tag == ("acs", "t-core"):
            actions += [Broadcast(("acs", ("claims", junk))) for junk in JUNK_CHAINS.values()]
        return actions


@pytest.mark.parametrize("setup", ["PKI", "NONE"])
def test_corrupted_junk_rbc_and_chains_do_not_abort_the_honest_run(setup):
    params = SystemParams(4, 1, 1, setup)
    prop, domain = resolve("strong", 2)
    cert = compute_similarity_certificate(prop, params, domain).certificate

    def factory(p):
        machine = UniversalBa(params, DELTA, cert)
        return JunkRelaying(machine, setup) if p == 3 else machine

    inputs = IC.of([(0, "1"), (1, "1"), (2, "1"), (3, "0")])
    script = AdversaryScript(corrupted={3: FollowWithInput("0")},
                             delivery=SyncRandomDelay(DELTA))
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    result = run(factory, params, net, script, inputs, 3)
    events = result.trace.events
    junk_texts = {_payload_detail(("acs", (("rbc", j), junk)))
                  for j in range(params.n) for junk in junk_rbcs(setup).values()}
    if setup == "PKI":
        junk_texts |= {_payload_detail(("acs", ("claims", junk))) for junk in JUNK_CHAINS.values()}
    delivered = {e[4]["payload"] for e in events if e[1] == DELIVER and e[2] != 3}
    assert junk_texts <= delivered
    assert not any(e[1] == CRASH for e in events)
    honest = result.honest_decisions(corrupted=[3])
    assert sorted(honest) == [(0, 0), (1, 0), (2, 0)]
    assert len(set(honest.values())) == 1  # agreement
    truth = IC.of((p, "1") for p in range(3))
    assert set(honest.values()) <= prop.evaluate(params, domain, truth)  # validity


# malformed coin-voting messages: each made an honest instance raise (on
# msg[0], on unpacking, or on comparing the round) before the shape check
JUNK_VOTES = {
    "not-a-tuple": 5,
    "list-message": ["VOTE", 1, 0],
    "empty": (),
    "kind-only": ("VOTE",),
    "short-vote": ("VOTE", 1),
    "long-vote": ("VOTE", 1, 0, 0),
    "short-cand": ("CAND", 1),
    "long-done": ("DONE", 1, 1),
    "str-round": ("VOTE", "1", 0),
    "str-round-cand": ("CAND", "1", 1),
    "list-round": ("VOTE", [1], 0),
    "none-round": ("CAND", None, 0),
    "bool-round": ("VOTE", True, 0),
    "float-round": ("CAND", 1.0, 1),
    "zero-round": ("VOTE", 0, 1),
    "list-bit": ("VOTE", 1, [0]),
    "list-done": ("DONE", [1]),
    "dict-kind": ({}, 1, 0),
}


@pytest.mark.parametrize("name", sorted(JUNK_VOTES))
def test_coin_voting_drops_a_malformed_message(name):
    _, ctx = pki_ctx(0)
    voting = CoinVotingInstance(PARAMS.n, PARAMS.t_s, coin_key=("acs", 0))
    voting.start(ctx, 1)
    assert voting.handle(ctx, 1, ("VOTE", 1, 1)) == [] and voting.votes[(1, 1)] == {0, 1}
    before = copy.deepcopy(vars(voting))
    assert voting.handle(ctx, 2, JUNK_VOTES[name]) == []
    assert vars(voting) == before


def test_coin_voting_takes_well_formed_messages():
    _, ctx = pki_ctx(0)
    voting = CoinVotingInstance(PARAMS.n, PARAMS.t_s, coin_key=("acs", 0))
    voting.start(ctx, 1)
    assert voting.handle(ctx, 1, ("VOTE", 2, 0)) == []
    assert voting.handle(ctx, 2, ("VOTE", 2, 0)) == [Broadcast(("VOTE", 2, 0))]  # relayed
    assert voting.handle(ctx, 1, ("CAND", 3, 1)) == [] and voting.cands == {(3, 1): {1}}
    assert voting.handle(ctx, 1, ("DONE", 0)) == [] and voting.dones == {0: {1}}


class JunkVoting(Garbling):
    """Runs `inner`, and also broadcasts every junk coin-voting message to the
    main instance and to every per-party instance when it starts."""

    def __init__(self, inner):
        super().__init__(inner, None)

    def on_start(self, ctx, value):
        tags = ["main"] + [("aba", j) for j in range(ctx.n)]
        return self.inner.on_start(ctx, value) + [
            Broadcast(("acs", (tag, junk))) for tag in tags for junk in JUNK_VOTES.values()]


def test_corrupted_junk_votes_do_not_abort_the_honest_run():
    prop, domain = resolve("strong", 2)
    cert = compute_similarity_certificate(prop, PARAMS, domain).certificate

    def factory(p):
        machine = UniversalBa(PARAMS, DELTA, cert)
        return JunkVoting(machine) if p == 3 else machine

    inputs = IC.of([(0, "1"), (1, "1"), (2, "1"), (3, "0")])
    script = AdversaryScript(corrupted={3: FollowWithInput("0")},
                             delivery=SyncRandomDelay(DELTA))
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    result = run(factory, PARAMS, net, script, inputs, 3)
    events = result.trace.events
    junk_texts = {_payload_detail(("acs", (tag, junk)))
                  for tag in ["main"] + [("aba", j) for j in range(PARAMS.n)]
                  for junk in JUNK_VOTES.values()}
    delivered = {e[4]["payload"] for e in events if e[1] == DELIVER and e[2] != 3}
    assert junk_texts <= delivered
    assert not any(e[1] == CRASH for e in events)
    honest = result.honest_decisions(corrupted=[3])
    assert sorted(honest) == [(0, 0), (1, 0), (2, 0)]
    assert len(set(honest.values())) == 1  # agreement
    truth = IC.of((p, "1") for p in range(3))
    assert set(honest.values()) <= prop.evaluate(PARAMS, domain, truth)  # validity


def test_merge_claims_drops_an_unhashable_claimed_value():
    _, ctx = pki_ctx(0)
    acs = AcsProtocol(PARAMS, DELTA)
    acs.chains = ChainBroadcastStage(PARAMS.n, PARAMS.t_s, me=0)
    for sender in (1, 2):
        acs.chains.accepted[sender].append(((0, ["x"]),))
    assert acs._merge_claims(ctx) == []
    # only the pair is dropped: the same claim's later pair for party 0 counts
    for sender in (1, 2, 3):
        acs.chains.accepted[sender] = [((0, ["x"]), (0, "1"), (1, "0"), (2, "1"))]
    encoding = IC.of([(0, "1"), (1, "0"), (2, "1")]).encode()
    assert acs._merge_claims(ctx)[0] == Broadcast(("coresig", encoding))


def test_merge_claims_drops_a_claimed_value_holding_the_party_separator():
    _, ctx = pki_ctx(0)
    acs = AcsProtocol(PARAMS, DELTA)
    acs.chains = ChainBroadcastStage(PARAMS.n, PARAMS.t_s, me=0)
    for sender in (1, 2, 3):
        acs.chains.accepted[sender] = [((0, "a;p1=z"), (1, "0"), (2, "1"), (3, "1"))]
    encoding = IC.of([(1, "0"), (2, "1"), (3, "1")]).encode()
    assert acs._merge_claims(ctx)[0] == Broadcast(("coresig", encoding))


@pytest.mark.parametrize("value", ["a;p1=z", "x;y"])
def test_corrupted_separator_input_does_not_abort_the_honest_acs_run(value):
    inputs = IC.of([(0, "0"), (1, "1"), (2, "0"), (3, "1")])
    script = AdversaryScript(corrupted={0: FollowWithInput(value)})
    net = NetworkConfig(mode=SYNCHRONOUS, delta=DELTA, horizon=8000)
    result = run(lambda p: AcsProtocol(PARAMS, DELTA), PARAMS, net, script, inputs, 1)
    honest = result.honest_decisions(corrupted=[0])
    assert sorted(honest) == [(1, 0), (2, 0), (3, 0)]
    assert len(set(honest.values())) == 1  # agreement
    core = next(iter(honest.values()))
    assert len(core) >= PARAMS.n - PARAMS.t_s
    assert set(core.assignments) <= {(1, "1"), (2, "0"), (3, "1")}  # honest parties only
