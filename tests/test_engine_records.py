"""The engine's one-call fan-out and flat records against the
per-destination send path they replaced.

The simulator fans a broadcast out in one call and appends every event as one
flat record, `(t, kind, party, replica, *values)`, which keeps that shape for
the trace's life; each read of `events` returns a new list of five-field
tuples with detail dicts. `EagerSimulation` keeps the per-destination send
path, one `_send` call per destination party, and writes its own flat
records. Each wiring runs on both, and the events (values, types and detail
key order) must equal `trace_oracle`'s reading of the eager records, and the
JSONL bytes its generic writer, including a read of `events` taken in the
middle of the run.
"""

import json

import pytest

import trace_oracle as oracle
from aba.errors import ProtocolError
from aba.protocols import Machine
from aba.simnet import (
    ASYNCHRONOUS,
    COIN,
    CRASH,
    DECIDE,
    DELIVER,
    SEND,
    SIGN,
    SYNCHRONOUS,
    TIMER,
    AsyncRandomDelay,
    Broadcast,
    Decide,
    Envelope,
    Equivocate,
    NetworkConfig,
    NodeInstance,
    RandomTape,
    Send,
    SetTimer,
    SilentTo,
    Simulation,
    SyncRandomDelay,
)
from trace_oracle import PARAMS, discarded, held, multicast, plain, shape


class EagerSimulation(Simulation):
    """The engine with one `_send` call per destination party, which resolves
    the route at every send and writes each SEND and DELIVER record itself."""

    def _dispatch_deliver(self, now, env):
        self._record((now, DELIVER, *env.dst, *env.src, env.payload))
        state = self._nodes.get(tuple(env.dst))
        if state is None or not self._alive(state, now):
            return
        state.ctx.now = now
        for sub_id, machine, _value, allowed in state.machines:
            actions = machine.on_message(state.ctx, env.src[0], env.payload)
            self._apply(state, now, sub_id, allowed, actions)

    def _apply(self, state, now, sub_id, allowed, actions):
        node = state.node
        for action in actions:
            if isinstance(action, Broadcast):
                for party in range(self.params.n):
                    self._send(state, now, allowed, party, action.payload)
            elif isinstance(action, Send):
                self._send(state, now, allowed, action.dst, action.payload)
            elif isinstance(action, Decide):
                if node.corrupted:
                    continue
                if action.value is None:
                    raise ProtocolError(f"node {node.key} decided None")
                if state.decided is not None:
                    raise ProtocolError(f"node {node.key} decided twice")
                state.decided = action.value
                self._record((now, DECIDE, *node.key, action.value))
                for env, at in self.policy.on_decide(node.party_id, now):
                    self._push(at, "DELIVER", env)
            elif isinstance(action, SetTimer):
                if action.delay < 1:
                    raise ProtocolError("timer delay must be >= 1")
                self._push(now + action.delay, "TIMER", (node.key, sub_id, action.tag))
            else:
                raise ProtocolError(f"unknown action {action!r}")

    def _send(self, state, now, allowed, dst_party, payload):
        node = state.node
        if allowed is not None and dst_party not in allowed:
            return
        route = node.route or {}
        target = route.get(dst_party, (dst_party, 0))
        if target is None:
            self._record((now, SEND, *node.key, dst_party, None, payload, "discarded"))
            return
        targets = target if isinstance(target, list) else [target]
        for dst_key in targets:
            dst_state = self._nodes.get(tuple(dst_key))
            if dst_state is None:
                continue
            dst_key = dst_state.key  # the node's own key, however the route writes it
            env = Envelope(src=node.key, dst=dst_key, payload=payload, sent_at=now)
            deliver_at = self.policy.schedule(env, self._sched_rng)
            if deliver_at is not None:
                if deliver_at <= now:
                    raise ProtocolError("delivery must be strictly after send")
                if self.net.mode == SYNCHRONOUS and deliver_at - now > self.net.delta:
                    raise ProtocolError("synchronous delivery exceeded delta")
                self._push(deliver_at, "DELIVER", env)
            else:
                deliver_at = "held"
            self._record((now, SEND, *node.key, *dst_key, payload, deliver_at))


class Mixer(Machine):
    """Broadcasts, sends to one peer and to a party that does not exist,
    flips a coin, signs, sets a timer, re-broadcasts the payload object it
    receives third, and decides on its second delivery. Its first delivery
    anywhere reads the whole trace."""

    def __init__(self, party, world):
        self.party = party
        self.world = world
        self.received = 0

    def on_start(self, ctx, value):
        ctx.coin(("round", self.party))
        ctx.sign(("hello", self.party))
        return [Broadcast(("hello", self.party, value)), Send((self.party + 1) % ctx.n, ("ring",)),
                Send(ctx.n + 2, "lost"), SetTimer(("tick", self.party), 3)]

    def on_message(self, ctx, src, payload):
        self.received += 1
        if self.world.snapshot is None:
            self.world.snapshot = [(*e[:4], dict(e[4])) for e in self.world.sim.trace.events]
        if self.received == 2:
            return [Decide(str(self.party % 2))]
        if self.received == 3:
            return [Broadcast(payload)]
        return []

    def on_timer(self, ctx, tag):
        return [Broadcast(("tick", self.party, {"at": ctx.now, "tag": tag}))]


class World:
    def __init__(self):
        self.sim = None
        self.snapshot = None


def adversaries():
    nodes = plain()
    nodes[2].corrupted = nodes[3].corrupted = True
    behaviors = {2: SilentTo(frozenset({0, 1}), value="1"), 3: Equivocate("0", "1")}
    return nodes, lambda: AsyncRandomDelay(7), ASYNCHRONOUS, behaviors


def run_wiring(cls, build):
    nodes, policy, mode, behaviors = build()
    world = World()
    sim = cls(PARAMS, NetworkConfig(mode=mode, delta=10, horizon=300), 5,
              policy=policy() if policy else None)
    world.sim = sim
    for node in nodes:
        sim.add_node(node, lambda p: Mixer(p, world), behaviors.get(node.party_id))
    outcomes = sim.run()
    return sim.trace, outcomes, world.snapshot


def details(events, kind):
    return [e[4] for e in events if e[1] == kind]


WIRINGS = {
    "partition-held-released": (held, lambda ev: (
        any(d["deliver_at"] == "held" for d in details(ev, SEND))
        and any(e[0] == 300 for e in ev if e[1] == DELIVER)  # flushed at the horizon
        and any(e[0] < 300 and e[4]["src"] in (0, 1) and e[2] in (2, 3)
                for e in ev if e[1] == DELIVER))),  # released when the sender decided
    "route-none-discarded": (discarded, lambda ev: any(
        d["deliver_at"] == "discarded" and d["dst_replica"] is None for d in details(ev, SEND))),
    "multicast-replica-tags": (multicast, lambda ev: (
        {(d["dst"], d["dst_replica"]) for d in details(ev, SEND)} >= {(1, 0), (1, 1), (3, 2)}
        and any(e[2:4] == (3, 2) for e in ev if e[1] == DELIVER))),
    "silent-and-equivocate": (adversaries, lambda ev: (
        not any(e[2] == 2 and e[4]["dst"] in (0, 1) for e in ev if e[1] == SEND)
        and {json.loads(d["payload"][3:])[2] for d in details(ev, SEND)
             if d["payload"].startswith('v1:["hello", 3,')} == {"0", "1"})),
}


@pytest.mark.parametrize("name", WIRINGS)
def test_flat_records_read_as_the_eager_recording(name):
    build, covers = WIRINGS[name]
    trace, outcomes, snapshot = run_wiring(Simulation, build)
    eager, eager_outcomes, eager_snapshot = run_wiring(EagerSimulation, build)
    assert outcomes == eager_outcomes
    events = trace.events
    assert covers(events)
    # the mid-run read saw a prefix, and sends were recorded after it
    assert snapshot is not None and any(e[1] == SEND for e in events[len(snapshot):])
    assert shape(snapshot) == shape(eager_snapshot)
    assert shape(snapshot) == shape(events[:len(snapshot)])
    expected = oracle.events(eager._events)
    assert shape(events) == shape(expected)
    text = trace.jsonl()
    assert text.split("\n") == oracle.jsonl(expected).split("\n")
    assert trace.sha256() == eager.sha256()


def test_non_payload_kinds_read_without_building_records():
    trace, _outcomes, _snapshot = run_wiring(Simulation, adversaries)
    records = list(trace._events)
    assert {e[1] for e in records} == {SEND, DELIVER, TIMER, COIN, SIGN, DECIDE}
    for event in records:
        assert type(event) is tuple and len(event) == 4 + len(oracle.KEYS[event[1]])
        assert not any(type(value) is dict for value in event)
    decisions = trace.of_kind(DECIDE)
    assert decisions and all(len(e) == 5 for e in decisions)
    assert len(trace.of_kind(SEND)) == sum(e[1] == SEND for e in records)
    # reads write nothing back: the same record objects
    assert len(trace._events) == len(records)
    assert all(now is before for now, before in zip(trace._events, records))


@pytest.mark.parametrize("name", WIRINGS)
def test_events_is_a_read_only_view(name):
    build, _covers = WIRINGS[name]
    trace, _outcomes, _snapshot = run_wiring(Simulation, build)
    text, digest = trace.jsonl(), trace.sha256()
    first, second = trace.events, trace.events
    assert first == second and first is not second
    for kind in (SEND, DELIVER, TIMER, COIN, SIGN, DECIDE, CRASH):
        assert trace.of_kind(kind) == [e for e in trace.events if e[1] == kind]
    # mutate every returned list and detail dict
    for returned in (first, *(trace.of_kind(kind) for kind in (SEND, DELIVER, DECIDE, COIN))):
        for _t, _kind, _party, _replica, detail in returned:
            detail["payload"] = "mutated"
            detail.pop("dst", None)
            detail["extra"] = 1
        returned.reverse()
        returned[0] = None
    assert trace.jsonl() == text and trace.sha256() == digest
    assert trace.events == second
    assert all(len(e) == 4 + len(oracle.KEYS[e[1]]) for e in trace._events)


class Resender(Machine):
    """Sends to party 1, to a party with no node and to everyone when it
    starts and again on each of its first three deliveries, so that every
    send after the first to a party reads the node's cached destinations."""

    def __init__(self):
        self.received = 0

    def on_start(self, ctx, value):
        return self._sends(ctx, 0)

    def on_message(self, ctx, src, payload):
        self.received += 1
        return self._sends(ctx, self.received) if self.received <= 3 else []

    def _sends(self, ctx, k):
        return [Send(1, ("one", k)), Send(ctx.n + 2, ("lost", k)), Broadcast(("all", k))]


def true_routed():
    # party 1's route is a multicast whose keys are lists, and names its tag-1
    # copy with True for the party id; sends record the copy's own key
    routes = {p: {1: [[1, 0], [True, 1]], 2: None} for p in range(PARAMS.n)}
    nodes = plain(routes=routes)
    nodes.append(NodeInstance(party_id=1, replica_tag=1, input="1", route=routes[1]))
    return nodes, lambda: SyncRandomDelay(10), SYNCHRONOUS, {}


CACHE_WIRINGS = {
    "plain": lambda: (plain(), None, SYNCHRONOUS, {}),
    "route-none-discarded": discarded,
    "multicast-replica-tags": multicast,
    "list-keys-and-true": true_routed,
    "silent-and-equivocate": adversaries,
}


def run_resender(cls, build):
    nodes, policy, mode, behaviors = build()
    sim = cls(PARAMS, NetworkConfig(mode=mode, delta=10, horizon=300), 5,
              policy=policy() if policy else None)
    for node in nodes:
        sim.add_node(node, lambda p: Resender(), behaviors.get(node.party_id))
    return sim, sim.run()


@pytest.mark.parametrize("name", CACHE_WIRINGS)
def test_cached_destinations_send_as_the_eager_path(name, monkeypatch):
    build = CACHE_WIRINGS[name]
    routed = []  # each destination `_route` is asked for
    route = Simulation._route

    def counting_route(self, table, dst_party):
        routed.append(dst_party)
        return route(self, table, dst_party)

    monkeypatch.setattr(Simulation, "_route", counting_route)
    sim, outcomes = run_resender(Simulation, build)
    eager, eager_outcomes = run_resender(EagerSimulation, build)
    assert outcomes == eager_outcomes
    events = sim.trace.events
    expected = oracle.events(eager.trace._events)
    assert shape(events) == shape(expected)
    assert sim.trace.jsonl() == oracle.jsonl(expected)
    sends = details(events, SEND)
    assert all(type(d["dst"]) is int for d in sends)
    assert any(d["payload"] == 'v1:["one", 3]' for d in sends)  # the last re-send went out
    for state in sim._nodes.values():
        targets = state.targets
        assert targets and all(type(party) is int for party in targets)
        # a party with no node (which silent and equivocating senders never send to)
        assert targets.get(PARAMS.n + 2, ()) == ()
        for party, keys in targets.items():
            target = (state.node.route or {}).get(party, (party, 0))
            if target is None:
                assert keys is None
            else:
                listed = target if isinstance(target, list) else [target]
                assert keys == tuple(tuple(k) for k in listed if tuple(k) in sim._nodes)
                assert all(type(p) is type(tag) is int for p, tag in keys)
    # each node looks each party up once
    assert len(routed) == sum(len(state.targets) for state in sim._nodes.values())


@pytest.mark.parametrize(
    "policy", [SyncRandomDelay, AsyncRandomDelay], ids=["SyncRandomDelay", "AsyncRandomDelay"]
)
@pytest.mark.parametrize("delay", [1, 10, 40])
def test_random_delays_are_the_draws_of_randint(policy, delay):
    """The random policies draw `randrange(delay) + 1`; this pins it to the
    stream of `randint(1, delay)`, which every golden trace hash was made
    with."""
    env = Envelope((0, 0), (1, 0), None, 7)
    for seed in range(6):
        rng, reference = RandomTape(seed).scheduler_stream(), RandomTape(seed).scheduler_stream()
        drawn = [policy(delay).schedule(env, rng) - 7 for _ in range(300)]
        assert drawn == [reference.randint(1, delay) for _ in range(300)]
        assert rng.getstate() == reference.getstate()  # the same amount drawn, also at delay 1
