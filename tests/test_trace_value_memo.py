"""The trace's value memo against a memo-free oracle.

`ExecutionTrace` takes a payload's text from a memo keyed by the payload
object's id and, on a miss, from a memo keyed by the payload's
`marshal.dumps` bytes, which holds plain payloads only (exact str, int, bool
or None inside exact tuples and lists).
These tests build traces whose machines send payloads that are equal or
marshal alike but serialize differently, and compare `jsonl()`, `events` and
`node_transcript()` with `trace_oracle`, which serializes every record afresh with its own
`jsonable` and writes every line with the generic encoder, as they do for
hand-made records of every kind. They also bound
how often the attack traces call `_payload_detail`.
"""

import copy
import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aba.simnet as simnet
import trace_oracle as oracle
from aba.cli import main
from aba.core import InputConfiguration as IC, SystemParams
from aba.protocols import Machine
from aba.simnet import (
    COIN,
    CRASH,
    DECIDE,
    DELIVER,
    SEND,
    SIGN,
    SYNCHRONOUS,
    TIMER,
    Broadcast,
    ExecutionTrace,
    NetworkConfig,
    NodeInstance,
    Send,
    Simulation,
    _payload_detail,
)

from test_trace_golden import ATTACK_KINDS

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")


# ---------------------------------------------------------------- oracle


def typed(value):
    """`value` with every leaf paired with its type, so 1, True and 1.0 differ."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(v) for v in value])
    return (type(value), value)


def assert_readers_match(trace, keys, order):
    expected = oracle.events(trace._events)
    for reader in order * 2:
        if reader == "jsonl":
            assert trace.jsonl().split("\n") == oracle.jsonl(expected).split("\n")
        elif reader == "events":
            assert typed(trace.events) == typed(expected)
        else:
            for key in keys:
                got, want = trace.node_transcript(key), oracle.transcript(expected, key)
                assert typed(got) == typed(want)
                assert ExecutionTrace.transcript_hash(got) == \
                    ExecutionTrace.transcript_hash(want)


# ---------------------------------------------------------------- colliding payloads


class Text(str):
    pass


class Count(int):
    pass


class Mimic:
    """Equal to, hashed as, and printed as the int 1; serialized as the str "1"."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return hash(1)

    def __repr__(self):
        return "1"


# payload values that compare equal, hash alike or marshal alike in pairs,
# but whose texts differ in type or form
COLLIDING = [
    ("x", 1), ("x", True), ("x", 1.0), ("x", "1"), ("x", Mimic()),
    ("x", Text("1")), ("x", Count(1)), ("x", False), ("x", 0), ("x", None),
    ("x", (1, 2)), ("x", [1, 2]), ["x", (1, 2)], ["x", [1, 2]],
    ("x", b"ab"), ("x", bytearray(b"ab")), ("x", b"a"), ("x", bytearray(b"a")),
    ("x", {1: "a", "1": "b"}), ("x", {"1": "b", 1: "a"}), ("x", {(1, 2): [1.5, True]}),
    ("x", frozenset({1, 2})), ("x", -0.0), ("x", 0.0), ("x", float("nan")),
    ("x", [("y", 2**70), [None, "é\n\"%s"], {"k": (Text("t"), 1.0)}]),
    ("x", 2**70), ("x", "2" * 3),
]


def fresh(value):
    """An equal value that shares no container, str or bytes object with
    `value`: what a second node building the same message holds."""
    kind = type(value)
    if kind is tuple:
        return tuple([fresh(v) for v in value])
    if kind is list:
        return [fresh(v) for v in value]
    if kind is dict:
        return {fresh(k): fresh(v) for k, v in value.items()}
    if kind is str:
        return "".join(list(value))
    if kind is bytes:
        return bytes(bytearray(value))
    if kind is bytearray:
        return bytearray(value)
    return copy.copy(value)


class Sender(Machine):
    """Broadcasts a fresh copy of each of its values on start, one of them
    twice as the same object, and echoes its first deliveries' payload
    objects back to their senders."""

    def __init__(self, values, echoes):
        self.values = values
        self.echoes = echoes

    def on_start(self, ctx, value):
        built = [fresh(v) for v in self.values]
        return [Broadcast(p) for p in built] + [Broadcast(p) for p in built[:1]]

    def on_message(self, ctx, src, payload):
        if self.echoes <= 0:
            return []
        self.echoes -= 1
        return [Send(src, payload)]


def sender_trace(values_of, echoes):
    sim = Simulation(PARAMS, NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=100), 5)
    keys = []
    for party in range(PARAMS.n):
        node = NodeInstance(party_id=party, input="0")
        sim.add_node(node, lambda p: Sender(values_of(p), echoes))
        keys.append(node.key)
    sim.run()
    return sim.trace, keys


READERS = ("jsonl", "events", "node_transcript")
ORDERS = [("jsonl", "events", "node_transcript"), ("events", "jsonl", "node_transcript"),
          ("node_transcript", "events", "jsonl")]


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_colliding_payloads_match_oracle(order):
    # every party sends every colliding value, each in its own objects
    trace, keys = sender_trace(lambda p: COLLIDING[p:] + COLLIDING[:p], echoes=3)
    assert len(trace._events) > 4 * 4 * len(COLLIDING)
    assert_readers_match(trace, keys, order)


_leaves = st.one_of(
    st.sampled_from([0, 1, True, False, 1.0, -0.0, None, "1", "", "%s", Text("1"), Count(1),
                     Mimic(), b"ab", bytearray(b"ab"), 2**70]),
    st.integers(-3, 3),
    st.text(max_size=3),
    st.floats(allow_nan=False),
)
_values = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.integers(-2, 2), st.text(max_size=2)), kids, max_size=2),
    ),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_values, min_size=1, max_size=4), min_size=PARAMS.n,
                max_size=PARAMS.n),
       st.integers(0, 4), st.sampled_from(ORDERS))
def test_drawn_payloads_match_oracle(values, echoes, order):
    trace, keys = sender_trace(lambda p: values[p], echoes)
    assert_readers_match(trace, keys, order)


# ---------------------------------------------------------------- hand-made records


# records of every kind the engine writes, with the value types each may hold
HAND_RECORDS = [
    (3, TIMER, 0, 0, "('round', 1)"),
    (3, SIGN, 1, 0, "('chain', 0, 'é\\n\"%s')"),
    (4, COIN, 2, 1, "('acs', 0)", 1),
    (4, COIN, 2, 0, "k", Count(1)),
    (5, DECIDE, 3, 0, "1"),
    (5, DECIDE, 3, 0, 2**70),
    (5, DECIDE, 3, 0, True),
    (5, DECIDE, 3, 0, 1.5),
    (5, DECIDE, 3, 0, IC.of([(0, "1"), (1, "0")])),
    (5, DECIDE, 3, 0, Text("1")),
    (5, DECIDE, 3, 0, ("x", [None, "é%s"], {"k": Count(2)})),
    (6, CRASH, 1, 0, 6),
    (6, CRASH, 1, 0, 6, "Boom"),
    (7, SEND, 0, 0, 1, 0, ("x", "é\n\"%s"), 9),
    (7, SEND, 0, 0, 2, 1, ("x", 1.0), "held"),
    (7, SEND, 0, 0, 3, None, Text("y"), "discarded"),
    (8, DELIVER, 1, 0, 0, 0, ("x", "é\n\"%s")),
    (8, DELIVER, 2, 1, 0, 0, ["x", Count(1)]),
]


def test_hand_made_events_match_oracle():
    trace = ExecutionTrace()
    trace._events.extend(HAND_RECORDS)
    keys = sorted({e[2:4] for e in HAND_RECORDS})
    assert_readers_match(trace, keys, READERS)


# ---------------------------------------------------------------- serialize count


def attack_traces(monkeypatch, kind):
    """The traces `aba attack KIND --protocol universal:strong` builds."""
    traces = []
    init = ExecutionTrace.__init__

    def collect(self):
        init(self)
        traces.append(self)

    monkeypatch.setattr(ExecutionTrace, "__init__", collect)
    argv = ["attack", kind, "--protocol", "universal:strong", "--seed", "1", *ATTACK_KINDS[kind]]
    assert main(argv) == 0
    monkeypatch.undo()
    return traces


def counted_jsonl(monkeypatch, records):
    """`jsonl()` of a new trace holding `records`, and its `_payload_detail` calls."""
    calls = []

    def detail(payload):
        calls.append(payload)
        return _payload_detail(payload)

    trace = ExecutionTrace()
    trace._events = records
    monkeypatch.setattr(simnet, "_payload_detail", detail)
    text = trace.jsonl()
    monkeypatch.undo()
    return text, calls


def plain(value):
    if type(value) in (tuple, list):
        return all(plain(v) for v in value)
    return type(value) in (str, int, bool) or value is None


@pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
def test_attack_traces_serialize_each_value_about_once(monkeypatch, capsys, kind):
    traces = attack_traces(monkeypatch, kind)
    capsys.readouterr()
    assert traces
    for trace in traces:
        records = list(trace._events)
        payloads = {id(e[6]): e[6] for e in records if e[1] in (SEND, DELIVER)}
        # repr tells plain values apart exactly; equal values may marshal apart
        values = {repr(p) for p in payloads.values() if plain(p)}
        value_keys = {marshal.dumps(p) for p in payloads.values() if plain(p)}
        objects = sum(1 for p in payloads.values() if not plain(p))
        text, calls = counted_jsonl(monkeypatch, records)
        assert text == trace.jsonl()
        assert len(values) + objects <= len(calls) <= len(value_keys) + objects
        assert len(calls) < len(payloads)
        # a second trace with the same values serializes them again
        again, calls_again = counted_jsonl(monkeypatch, records)
        assert again == text and len(calls_again) == len(calls)
