"""The engine's contract: party ids, replica tags, times and delays are exact
ints (`type(x) is int`), checked where each enters.

Configuration raises ConfigError: `Simulation.add_node` for a party id,
replica tag or `CrashAt` time (which must also be at least 0),
`NetworkConfig` for delta and horizon, and the delay rules for their delay.
At run time a `Send` destination, a `SetTimer` delay or a time that a
`DeliveryPolicy` returns is a ProtocolError of the node whose action caused
it: it aborts the run for an honest node and crashes a corrupted node only,
with one CRASH event. `add_node` resolves each route target once, to None or
node keys of exact ints, and raises ConfigError for a target that is not a
node key, a list of them or None, or that names a party outside 0..n-1.
"""

import pytest

from aba.attacks import LocalMinStrawman
from aba.core import InputConfiguration as IC, SystemParams
from aba.errors import ConfigError, ProtocolError
from aba.protocols import Machine
from aba.simnet import (
    ASYNCHRONOUS,
    CRASH,
    SEND,
    SYNCHRONOUS,
    AdversaryScript,
    Broadcast,
    CrashAt,
    Decide,
    DeliveryPolicy,
    ExactDelay,
    FollowWithInput,
    NetworkConfig,
    NodeInstance,
    RandomDelay,
    Send,
    SetTimer,
    Simulation,
    canonical_schedule,
    run,
)

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")
NET = NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=200)
INPUTS = IC.of((p, "0") for p in range(PARAMS.n))


class Echo(Machine):
    """Broadcasts its input and decides it on its first delivery."""

    def __init__(self):
        self.decided = False

    def on_start(self, ctx, value):
        return [Broadcast(("hi", value))]

    def on_message(self, ctx, src, payload):
        if self.decided:
            return []
        self.decided = True
        return [Decide(payload[1])]


class Acts(Echo):
    """Echo that also takes `action` when it starts."""

    def __init__(self, action):
        super().__init__()
        self.action = action

    def on_start(self, ctx, value):
        return super().on_start(ctx, value) + [self.action]


# ---------------------------------------------------------------- configuration


@pytest.mark.parametrize("party, tag", [(True, 0), (1, "b"), (1.0, 0), (1, False)])
def test_add_node_rejects_a_key_of_other_types(party, tag):
    sim = Simulation(PARAMS, NET, 1)
    with pytest.raises(ConfigError, match="node key must be two ints, got"):
        sim.add_node(NodeInstance(party_id=party, replica_tag=tag, input="0"), lambda p: Echo())
    assert not sim._nodes


def test_add_node_rejects_a_crash_time_of_another_type():
    sim = Simulation(PARAMS, NET, 1)
    with pytest.raises(ConfigError, match="crash time must be an int, got 1.5"):
        sim.add_node(NodeInstance(party_id=3, corrupted=True), lambda p: Echo(), CrashAt(1.5))
    with pytest.raises(ConfigError, match="crash time must be an int, got 1.5"):
        run(lambda p: Echo(), PARAMS, NET, AdversaryScript(corrupted={3: CrashAt(1.5)}),
            INPUTS, 1)


@pytest.mark.parametrize("time", [-1, -3])
def test_add_node_rejects_a_negative_crash_time(time):
    # as a delay below 1 is rejected, so no CRASH is dated before the run starts
    sim = Simulation(PARAMS, NET, 1)
    with pytest.raises(ConfigError, match=f"crash time must be at least 0, got {time}"):
        sim.add_node(NodeInstance(party_id=3, corrupted=True), lambda p: Echo(), CrashAt(time))
    assert not sim._nodes
    with pytest.raises(ConfigError, match=f"crash time must be at least 0, got {time}"):
        run(lambda p: Echo(), PARAMS, NET, AdversaryScript(corrupted={3: CrashAt(time)}),
            INPUTS, 1)


@pytest.mark.parametrize("rule", [ExactDelay, RandomDelay])
@pytest.mark.parametrize("delay", [1.5, 2.0, True])
def test_delay_rules_reject_a_delay_of_another_type(rule, delay):
    with pytest.raises(ConfigError, match="a delivery delay must be at least 1, got"):
        rule(delay)


@pytest.mark.parametrize("field", [{"delta": 1.5}, {"delta": True}, {"horizon": 100.0}],
                         ids=["delta-float", "delta-bool", "horizon-float"])
def test_network_config_rejects_times_of_another_type(field):
    with pytest.raises(ConfigError, match="delta and horizon must be ints"):
        NetworkConfig(mode=SYNCHRONOUS, **field)


# ---------------------------------------------------------------- run time


class HalfUnitFrom(DeliveryPolicy):
    """Delivers party `party`'s messages 1.5 units after the send and the
    rest after one unit."""

    def __init__(self, party):
        self.party = party

    def schedule(self, env, rng):
        return env.sent_at + (1.5 if env.src[0] == self.party else 1)


class ReleaseHalfUnit(DeliveryPolicy):
    """Holds party 0's messages and releases them 1.5 units after a decision."""

    def __init__(self):
        self.held = []

    def schedule(self, env, rng):
        if env.src[0] == 0:
            self.held.append(env)
            return None
        return env.sent_at + 1

    def on_decide(self, party, now):
        released, self.held = self.held, []
        return [(env, now + 1.5) for env in released]


# (action of party `bad`, policy given `bad`, ProtocolError message)
MISDEEDS = {
    "send-to-true": (lambda: Send(True, ("x",)), lambda bad: None,
                     "send destination must be an int, got True"),
    "send-to-float": (lambda: Send(1.0, ("x",)), lambda bad: None,
                      "send destination must be an int, got 1.0"),
    "timer-delay-float": (lambda: SetTimer("t", 1.5), lambda bad: None,
                          "timer delay must be >= 1 and an int: 1.5"),
    "schedule-half-unit": (lambda: Send(1, ("x",)), HalfUnitFrom,
                           "delivery must be strictly after send"),
}


def misdeed_run(name, bad, corrupted):
    make_action, policy, _message = MISDEEDS[name]
    script = AdversaryScript(corrupted={bad: FollowWithInput("0")} if corrupted else {},
                             delivery=policy(bad))
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=200)
    return run(lambda p: Acts(make_action()) if p == bad else Echo(), PARAMS, net, script,
               INPUTS, 1)


@pytest.mark.parametrize("name", MISDEEDS)
def test_an_honest_node_of_another_type_aborts_the_run(name):
    with pytest.raises(ProtocolError, match=MISDEEDS[name][2]):
        misdeed_run(name, bad=0, corrupted=False)


@pytest.mark.parametrize("name", MISDEEDS)
def test_a_corrupted_node_of_another_type_crashes_alone(name):
    result = misdeed_run(name, bad=3, corrupted=True)
    crashes = result.trace.of_kind(CRASH)
    assert [(e[2], e[4]["error"]) for e in crashes] == [(3, "ProtocolError")]
    assert result.honest_decisions([3]) == {(p, 0): "0" for p in range(3)}


def test_a_release_of_another_type_aborts_the_run():
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=100)
    with pytest.raises(ProtocolError, match="release must be strictly after the decision"):
        run(lambda p: Echo(), PARAMS, net, AdversaryScript(delivery=ReleaseHalfUnit()),
            INPUTS, 1)


# ---------------------------------------------------------------- routes


@pytest.mark.parametrize("target", [[[1, 0]], (True, 0), (1, False), [[True, 0], (1, 5)]],
                         ids=["list-key", "bool-party", "bool-tag", "multicast"])
def test_a_route_target_records_the_node_key(target):
    nodes = [NodeInstance(party_id=p, input="0", route={1: target} if p == 0 else None)
             for p in range(PARAMS.n)]
    net, script = canonical_schedule((), delta=10, horizon=200)
    result = run(lambda p: Echo(), PARAMS, net, script, None, 1, nodes=nodes)
    sends = [e[4] for e in result.trace.of_kind(SEND) if e[2] == 0 and e[4]["dst"] == 1]
    assert sends and all(type(d["dst"]) is type(d["dst_replica"]) is int for d in sends)
    # the same trace as the route that writes the key itself
    for node in nodes:
        node.route = None
    assert result.trace.sha256() == run(lambda p: Echo(), PARAMS, net, script, None, 1,
                                        nodes=nodes).trace.sha256()


NONE_PARAMS = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")


def local_min_nodes(target):
    return [NodeInstance(party_id=p, input=str(p), route={1: target} if p == 0 else None)
            for p in range(NONE_PARAMS.n)]


@pytest.mark.parametrize("target", [[1, 0], 5, (3, 0), (-1, 0), [(1, 0), (1,)], ((1, 0),),
                                    (1, "0"), [(1, 0.0)], "1"],
                         ids=["list-of-ints", "int", "party-n", "party-negative",
                              "short-key-in-list", "tuple-of-keys", "str-tag", "float-tag", "str"])
def test_a_malformed_route_target_is_a_config_error(target):
    net, script = canonical_schedule((), delta=10, horizon=200)
    match = r"node \(0, 0\) routes party 1 to .*, which is not a node key"
    with pytest.raises(ConfigError, match=match):
        run(lambda p: LocalMinStrawman(), NONE_PARAMS, net, script, None, 1,
            nodes=local_min_nodes(target))
    sim = Simulation(NONE_PARAMS, net, 1)
    with pytest.raises(ConfigError, match=match):
        sim.add_node(local_min_nodes(target)[0], lambda p: LocalMinStrawman())
    assert not sim._nodes
