"""The trace writers against the generic ones they replaced.

`ExecutionTrace.jsonl()` fills every line from one template per kind (and,
for a CRASH, record length), each value escaped as a str, written as an
exact int, or encoded through `_jsonable`. These tests compare it line by
line with the eager writer of `test_trace_lazy.py` on engine traces, and
with the generic writer of `trace_oracle` on drawn records of the engine's
types for every kind. `events`, `node_transcript` and `_jsonable` are
compared with the oracle's readers and `jsonable`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_oracle as oracle
from aba.attacks import PartitionLayout, RingLayout, _triple_nodes
from aba.cli import protocol_factory
from aba.core import InputConfiguration as IC, SystemParams
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
    Broadcast,
    CrashAt,
    Decide,
    ExecutionTrace,
    NetworkConfig,
    NodeInstance,
    PartitionPolicy,
    SetTimer,
    Simulation,
    SyncExactDelay,
    _jsonable,
)
from test_trace_lazy import eager_jsonl, payload_column, payloads
from trace_oracle import PARAMS, discarded, held, multicast, plain


# ---------------------------------------------------------------- engine traces


class Prober(Machine):
    """Broadcasts on start and on a timer, flips a coin, signs, and decides
    its party's value from `decisions` on its second delivery."""

    def __init__(self, party, decisions):
        self.party = party
        self.decisions = decisions
        self.received = 0

    def on_start(self, ctx, value):
        ctx.coin(("round", self.party))
        ctx.sign(("hello", self.party))
        return [Broadcast(("hello", self.party, value)), SetTimer(("tick", self.party), 3)]

    def on_message(self, ctx, src, payload):
        self.received += 1
        if self.received == 2:
            return [Decide(self.decisions[self.party])]
        return []

    def on_timer(self, ctx, tag):
        return [Broadcast(("tick", self.party, {"at": ctx.now}))]


DECISIONS = {0: IC.of([(0, "0"), (1, "1"), (2, "1")]), 1: 2.5, 2: True, 3: "x"}


def run_wiring(build):
    nodes, policy, mode, behaviors = build()
    sim = Simulation(PARAMS, NetworkConfig(mode=mode, delta=10, horizon=400), 3,
                     policy=policy() if policy else None)
    for node in nodes:
        sim.add_node(node, lambda p: Prober(p, DECISIONS), behaviors.get(node.party_id))
    sim.run()
    return sim.trace


def crashed():
    return plain(), None, SYNCHRONOUS, {3: CrashAt(5)}


def sends(trace):
    return [detail for _t, kind, _p, _r, detail in trace.events if kind == SEND]


WIRINGS = {
    "partition-held": (held, lambda tr: any(d["deliver_at"] == "held" for d in sends(tr))),
    "route-none-discarded": (discarded, lambda tr: any(
        d["deliver_at"] == "discarded" and d["dst_replica"] is None for d in sends(tr))),
    "multicast-replica-1": (multicast, lambda tr: any(d["dst_replica"] == 1 for d in sends(tr))
                            and any(e[3] == 1 for e in tr.events)),
    "crash": (crashed, lambda tr: any(e[1] == CRASH for e in tr.events)),
}


@pytest.mark.parametrize("name", WIRINGS)
def test_engine_trace_lines_equal_eager_writer(name):
    build, covers = WIRINGS[name]
    trace = run_wiring(build)
    assert covers(trace)
    kinds = {e[1] for e in trace.events}
    assert {SEND, DELIVER, TIMER, COIN, SIGN, DECIDE} <= kinds
    decided = {type(e[4]["value"]) for e in trace.events if e[1] == DECIDE}
    assert {IC, float, bool} <= decided
    events = trace.events
    text = trace.jsonl()
    assert text.split("\n") == eager_jsonl(events, payload_column(events)).split("\n")
    assert text == oracle.jsonl(events)


# ---------------------------------------------------------------- drawn records


class Count(int):
    pass


class Label(str):
    pass


_ints = st.integers(-3, 2**70)
_texts = st.one_of(st.text(max_size=5), st.sampled_from(["é\n\"\\%s", "('round', 1)", "%d"]))
_fields = st.one_of(
    _ints,
    st.booleans(),
    st.none(),
    _texts,
    st.floats(),
    st.builds(Count, st.integers(0, 9)),
    st.builds(Label, st.text(max_size=2)),
    st.tuples(st.integers(0, 3)),
)
# what a machine may decide: a configuration, a float, a bool, nested tuples,
# dicts, subclasses and non-ASCII text
_decision_leaves = st.one_of(_ints, _texts, st.builds(Count, st.integers(0, 9)),
                             st.builds(Label, st.text(max_size=2)))
_decisions = st.one_of(
    st.builds(IC.of, st.dictionaries(st.integers(0, 5), _texts, min_size=1).map(dict.items)),
    st.booleans(),
    st.floats(allow_nan=False),
    _decision_leaves,
    st.recursive(
        st.one_of(_decision_leaves, st.booleans(), st.floats(allow_nan=False)),
        lambda kids: st.one_of(st.lists(kids, max_size=3).map(tuple),
                               st.dictionaries(_texts, kids, max_size=2)),
        max_leaves=5,
    ),
)
_node = st.tuples(st.integers(0, 2), st.integers(0, 1))


@st.composite
def engine_records(draw):
    """One record of the types the engine writes for a kind it draws."""
    kind = draw(st.sampled_from([SEND, DELIVER, TIMER, COIN, SIGN, DECIDE, CRASH]))
    t, (party, replica) = draw(_ints), draw(_node)
    if kind == SEND:
        dst_replica, deliver_at = draw(st.one_of(
            st.tuples(st.integers(0, 1), st.one_of(_ints, st.just("held"))),
            st.tuples(st.none(), st.just("discarded"))))
        values = (draw(_ints), dst_replica, draw(payloads), deliver_at)
    elif kind == DELIVER:
        values = (draw(_ints), draw(_ints), draw(payloads))
    elif kind == COIN:
        values = (draw(_texts), draw(st.integers(0, 1)))
    elif kind == DECIDE:
        values = (draw(_decisions),)
    elif kind == CRASH:
        values = (t,) if draw(st.booleans()) else (t, draw(st.sampled_from(["Boom", "é%s"])))
    else:  # TIMER and SIGN hold a repr
        values = (draw(_texts),)
    return (t, kind, party, replica, *values)


@settings(max_examples=300, deadline=None)
@given(st.lists(engine_records(), max_size=8), st.one_of(st.none(), _ints))
def test_drawn_records_match_oracle(records, through):
    trace = ExecutionTrace()
    trace._events.extend(records)
    expected = oracle.events(records)
    assert trace.jsonl().split("\n") == oracle.jsonl(expected).split("\n")
    assert oracle.shape(trace.events) == oracle.shape(expected)
    for kind in {e[1] for e in records}:
        assert oracle.shape(trace.of_kind(kind)) == \
            oracle.shape([e for e in expected if e[1] == kind])
    for node in {e[2:4] for e in records}:
        for limit in (None, through):
            got, want = trace.node_transcript(node, through=limit), \
                oracle.transcript(expected, node, limit)
            assert got == want
            assert trace.transcript_hash(got) == trace.transcript_hash(want)
    assert trace._events == records  # the reads wrote nothing back


# the values the writer takes of any type: a payload, and every value of a
# kind other than SEND and DELIVER
_FREE = {SEND: (6,), DELIVER: (6,)}


@st.composite
def hand_events(draw):
    """A record of the engine's shape but for at most one value of a free
    position drawn from `_fields`."""
    record = list(draw(engine_records()))
    free = _FREE.get(record[1], range(4, len(record)))
    odd = draw(st.sampled_from([None, *free]))
    if odd is not None:
        record[odd] = draw(_fields)
    return tuple(record)


@settings(max_examples=300, deadline=None)
@given(st.lists(hand_events(), max_size=6))
def test_hand_made_events_match_generic_writer(records):
    trace = ExecutionTrace()
    trace._events.extend(records)
    expected = oracle.events(records)
    assert trace.jsonl().split("\n") == oracle.jsonl(expected).split("\n")
    assert oracle.shape(trace.events) == oracle.shape(expected)
    for node in {e[2:4] for e in records}:
        assert trace.node_transcript(node) == oracle.transcript(expected, node)


@settings(max_examples=200, deadline=None)
@given(st.one_of(payloads, st.lists(_fields, max_size=3),
                 st.dictionaries(st.text(max_size=2), _fields)))
def test_jsonable_equals_old_jsonable(value):
    assert _jsonable(value) == oracle.jsonable(value)
    assert json.dumps(_jsonable(value)) == json.dumps(oracle.jsonable(value))


# ---------------------------------------------------------------- transcripts


def ring_sim(protocol, seed):
    params3 = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")
    layout = RingLayout(1)
    routes = layout.routes()
    sim = Simulation(params3, NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=400), seed,
                     policy=SyncExactDelay(10))
    factory = protocol_factory(protocol, params3, 10)
    keys = []
    for k, i, j in layout.node_ids():
        key = layout.key(k, i, j)
        sim.add_node(NodeInstance(party_id=i, replica_tag=key[1], input=str(k - 1),
                                  route=routes[key]), factory)
        keys.append(key)
    sim.run()
    return sim.trace, keys


def triple_sim(protocol, seed, control):
    params = SystemParams(n=5, t_s=2, t_a=1, setup="PKI")
    layout = PartitionLayout(params)
    near = IC.of((p, "0") for p in range(params.n))
    far = IC.of((p, "1") for p in range(params.n))
    side_l = [(p, 0) for p in layout.left] + [(m, 0) for m in layout.middle]
    side_r = [(p, 0) for p in layout.right] + [(m, 1) for m in layout.middle]
    policy = SyncExactDelay(10) if control else PartitionPolicy([side_l, side_r])
    net = NetworkConfig(mode=SYNCHRONOUS if control else ASYNCHRONOUS, delta=10, horizon=4000)
    sim = Simulation(params, net, seed, policy=policy)
    factory = protocol_factory(protocol, params, 10, enforce_bounds=False)
    nodes = _triple_nodes(layout, near, near if control else far)
    for node in nodes:
        sim.add_node(node, factory)
    sim.run()
    return sim.trace, [node.key for node in nodes]


@pytest.mark.parametrize("wiring", [
    lambda: ring_sim("majority", 1),
    lambda: ring_sim("local-min", 2),
    lambda: triple_sim("bin-ba", 1, control=True),
    lambda: triple_sim("bin-ba", 2, control=False),
    lambda: triple_sim("majority", 3, control=False),
], ids=["ring-majority", "ring-local-min", "triple-control", "triple-attack",
        "triple-attack-majority"])
def test_node_transcript_equals_old_implementation(wiring):
    trace, keys = wiring()
    assert any(e[3] != 0 for e in trace.events)  # replicas other than tag 0 took part
    for key in keys:
        for through in (None, 0, 10, 25):
            new = trace.node_transcript(key, through=through)
            old = oracle.transcript(trace.events, key, through)
            assert new == old
            assert trace.transcript_hash(new) == trace.transcript_hash(old)
