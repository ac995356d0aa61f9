"""The engine's time-bucket queue against the heap it replaced.

`HeapSimulation` keeps the earlier queue verbatim: one heap of
`(time, seq, kind, data)` entries with an insertion counter, pushed by
`_push`, popped one entry at a time by `run`. Both engines must write the
same JSONL bytes and reach the same outcomes on the `test_engine_records.py`
wirings and on seeded random and partitioned runs with same-time
TIMER/DELIVER ties, the horizon flush and `release_time`.
A release that `DeliveryPolicy.on_decide` dates at or before the decision
is rejected, as a schedule at or before the send is.
"""

import heapq
import itertools

import pytest

from aba.core import InputConfiguration as IC, SystemParams
from aba.errors import ProtocolError
from aba.protocols import Machine
from aba.simnet import (
    ASYNCHRONOUS,
    DELIVER,
    SEND,
    SYNCHRONOUS,
    TIMER,
    AdversaryScript,
    AsyncRandomDelay,
    Broadcast,
    Decide,
    DeliveryPolicy,
    NetworkConfig,
    NodeInstance,
    PartitionPolicy,
    Send,
    SetTimer,
    Simulation,
    SyncRandomDelay,
    run,
)
from test_engine_records import CACHE_WIRINGS, WIRINGS, run_resender, run_wiring

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")
HORIZON = 300


class HeapSimulation(Simulation):
    """The engine with the earlier event heap."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap: list = []
        self._seq = itertools.count()  # insertion order, the heap's tie-break

    def _push(self, time: int, kind: str, data):
        heapq.heappush(self._heap, (time, next(self._seq), kind, data))

    def run(self):
        for key in sorted(self._nodes):
            state = self._nodes[key]
            if state.crashed_at is not None:
                self.trace.append(state.crashed_at, "CRASH", key, {"at": state.crashed_at})
            self._push(0, "START", key)
        horizon = self.net.horizon
        heap = self._heap
        while True:
            if not heap:
                held = self.policy.flush()
                if not held:
                    break
                for env in held:
                    self._push(horizon, "DELIVER", env)
                continue
            time, _, kind, data = heapq.heappop(heap)
            if time > horizon:
                break
            if kind == "DELIVER":
                self._dispatch_deliver(time, data)
            elif kind == "TIMER":
                self._dispatch_timer(time, data)
            elif kind == "START":
                self._dispatch_start(time, data)
        return self.outcomes()


@pytest.mark.parametrize("name", WIRINGS)
def test_engine_record_wirings_match_the_heap(name):
    build, _covers = WIRINGS[name]
    trace, outcomes, snapshot = run_wiring(Simulation, build)
    heap_trace, heap_outcomes, heap_snapshot = run_wiring(HeapSimulation, build)
    assert outcomes == heap_outcomes
    assert snapshot == heap_snapshot
    assert trace.jsonl() == heap_trace.jsonl()


@pytest.mark.parametrize("name", CACHE_WIRINGS)
def test_cached_destination_wirings_match_the_heap(name):
    sim, outcomes = run_resender(Simulation, CACHE_WIRINGS[name])
    heap_sim, heap_outcomes = run_resender(HeapSimulation, CACHE_WIRINGS[name])
    assert outcomes == heap_outcomes
    assert sim.trace.jsonl() == heap_sim.trace.jsonl()


class Chatter(Machine):
    """Broadcasts when it starts, ticks a timer three times (sending one
    message per tick), re-broadcasts every third delivery, and decides on
    delivery 5 + party; party 3 never decides, so a partition holds its
    cross-group sends until `release_time` or the horizon."""

    def __init__(self, party):
        self.party = party
        self.received = 0
        self.ticks = 0

    def on_start(self, ctx, value):
        return [Broadcast(("hi", self.party, value)), SetTimer("tick", 2 + self.party)]

    def on_message(self, ctx, src, payload):
        self.received += 1
        actions = []
        if self.received % 3 == 0 and self.received < 12:
            actions.append(Broadcast(("echo", self.party, self.received, src)))
        if self.received == 5 + self.party and self.party != 3:
            actions.append(Decide(str(src % 2)))
        return actions

    def on_timer(self, ctx, tag):
        self.ticks += 1
        if self.ticks > 3:
            return []
        return [Send((self.party + 1) % ctx.n, ("tick", self.party, ctx.now)),
                SetTimer("tick", 1 + (self.ticks + self.party) % 5)]


GROUPS = [[(0, 0), (1, 0)], [(2, 0), (3, 0)]]
POLICIES = {
    "sync-random": (SYNCHRONOUS, lambda seed: SyncRandomDelay(10)),
    "async-random": (ASYNCHRONOUS, lambda seed: AsyncRandomDelay(7)),
    # seeds alternate between no release time and one between 5 and 44
    "partition": (ASYNCHRONOUS, lambda seed: PartitionPolicy(
        GROUPS, release_time=None if seed % 2 else 5 + seed % 40)),
}
SEEDS = range(50)


def chatter_run(cls, mode, policy, seed):
    sim = cls(PARAMS, NetworkConfig(mode=mode, delta=10, horizon=HORIZON), seed, policy=policy)
    for party in range(PARAMS.n):
        sim.add_node(NodeInstance(party_id=party, input=str(party % 2)), Chatter)
    return sim.trace, sim.run()


def ties(events):
    """Whether some node takes a TIMER and a DELIVER at the same time."""
    seen = {}
    for t, kind, party, replica, _detail in events:
        if kind in (TIMER, DELIVER):
            seen.setdefault((t, party, replica), set()).add(kind)
    return any(kinds == {TIMER, DELIVER} for kinds in seen.values())


def released_at(events, release_time):
    """Whether a deciding party's cross-group send was held and a
    cross-group message was delivered at `release_time`."""
    side = {party: side for side, group in enumerate(GROUPS) for party, _ in group}
    held = any(e[1] == SEND and e[4]["deliver_at"] == "held" and e[2] != 3 for e in events)
    return held and any(e[1] == DELIVER and e[0] == release_time
                        and side[e[2]] != side[e[4]["src"]] for e in events)


@pytest.mark.parametrize("name", POLICIES)
def test_seeded_runs_match_the_heap(name):
    mode, policy = POLICIES[name]
    covered = {"ties": 0, "flushed": 0, "released": 0}
    for seed in SEEDS:
        trace, outcomes = chatter_run(Simulation, mode, policy(seed), seed)
        heap_trace, heap_outcomes = chatter_run(HeapSimulation, mode, policy(seed), seed)
        assert outcomes == heap_outcomes, seed
        assert trace.jsonl() == heap_trace.jsonl(), seed
        events = trace.events
        covered["ties"] += ties(events)
        covered["flushed"] += any(e[1] == DELIVER and e[0] == HORIZON for e in events)
        release_time = policy(seed).release_time if name == "partition" else None
        covered["released"] += release_time is not None and released_at(events, release_time)
    assert covered["ties"] >= len(SEEDS) // 2
    if name == "partition":
        assert covered["flushed"] >= len(SEEDS) // 2
        assert covered["released"] >= len(SEEDS) // 4


class Rewind(DeliveryPolicy):
    """Holds party 0's messages and releases them, when any party decides,
    at `now + shift`."""

    def __init__(self, shift):
        self.shift = shift
        self.held = []

    def schedule(self, env, rng):
        if env.src[0] == 0:
            self.held.append(env)
            return None
        return env.sent_at + 1

    def on_decide(self, party, now):
        released, self.held = self.held, []
        return [(env, now + self.shift) for env in released]


class DecideOnFirst(Machine):
    def __init__(self):
        self.decided = False

    def on_start(self, ctx, value):
        return [Broadcast(("hi", ctx.party_id))]

    def on_message(self, ctx, src, payload):
        if self.decided:
            return []
        self.decided = True
        return [Decide("0")]


def rewind_run(shift):
    inputs = IC.of((p, "0") for p in range(PARAMS.n))
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=100)
    return run(lambda p: DecideOnFirst(), PARAMS, net, AdversaryScript(delivery=Rewind(shift)),
               inputs, 1)


@pytest.mark.parametrize("shift", [0, -1])
def test_release_at_or_before_the_decision_is_rejected(shift):
    with pytest.raises(ProtocolError, match="release must be strictly after the decision"):
        rewind_run(shift)


def test_release_after_the_decision_is_delivered_then():
    result = rewind_run(1)
    released = [e for e in result.trace.events if e[1] == DELIVER and e[4]["src"] == 0]
    assert released and all(e[0] == 2 for e in released)  # decided at 1
    times = [e[0] for e in result.trace.events]
    assert times == sorted(times)
