"""The trace readers against the implementations they replaced.

`jsonl()`, `sha256()` and `node_transcript()` read the engine's flat SEND and
DELIVER records directly, and `events` returns a new list of five-field
tuples built from them, writing nothing back. These tests run each wiring
once per read order and compare every reader with the earlier
implementations, which built every record with `events` first: the
`trace_oracle` reader, transcript reader and generic writer. Every payload
object must be serialized at most once per trace, whatever order the
readers run in.
"""

import hashlib
import itertools

import pytest

import aba.simnet as simnet
from aba.protocols import Machine
from aba.simnet import (
    COIN,
    DECIDE,
    DELIVER,
    SEND,
    SYNCHRONOUS,
    Broadcast,
    Decide,
    ExecutionTrace,
    NetworkConfig,
    Send,
    SetTimer,
    Simulation,
    _payload_detail,
)
import trace_oracle as oracle
from trace_oracle import PARAMS, discarded, held, multicast, plain, shape


# ---------------------------------------------------------------- wirings


class Prober(Machine):
    """Broadcasts on start and on a timer, sends one payload object to its
    successor, flips a coin, signs, re-broadcasts the payload object it
    receives third and decides on its second delivery. With `world.mid_run`
    set, the first delivery anywhere reads `events`."""

    def __init__(self, party, world):
        self.party = party
        self.world = world
        self.received = 0

    def on_start(self, ctx, value):
        ctx.coin(("round", self.party))
        ctx.sign(("hello", self.party))
        return [Broadcast(("hello", self.party, value)),
                Send((self.party + 1) % ctx.n, self.world.shared),
                SetTimer(("tick", self.party), 3)]

    def on_message(self, ctx, src, payload):
        self.received += 1
        world = self.world
        if world.mid_run and world.snapshot is None:
            world.snapshot = shape(world.sim.trace.events)
        if self.received == 2:
            return [Decide(str(self.party % 2))]
        if self.received == 3:
            return [Broadcast(payload)]
        return []

    def on_timer(self, ctx, tag):
        return [Broadcast(("tick", self.party, {"at": ctx.now, "tag": tag}))]


class World:
    def __init__(self, mid_run):
        self.mid_run = mid_run
        self.snapshot = None
        self.sim = None
        self.shared = ("shared", [1, None, True])


WIRINGS = {
    "plain": lambda: (plain(), None, SYNCHRONOUS, {}),
    "partition-held": held,
    "route-none-discarded": discarded,
    "multicast": multicast,
}

# what each wiring must show in its JSONL, so that it takes the path it names
COVERS = {
    "partition-held": '"deliver_at": "held"',
    "route-none-discarded": '"deliver_at": "discarded", "dst": 2, "dst_replica": null',
    "multicast": '"dst_replica": 1,',
}


def run_wiring(name, mid_run=False):
    nodes, policy, mode, behaviors = WIRINGS[name]()
    world = World(mid_run)
    sim = Simulation(PARAMS, NetworkConfig(mode=mode, delta=10, horizon=300), 7,
                     policy=policy() if policy else None)
    world.sim = sim
    for node in nodes:
        sim.add_node(node, lambda p: Prober(p, world), behaviors.get(node.party_id))
    sim.run()
    return sim.trace, [node.key for node in nodes], world.snapshot


THROUGH = (None, 0, 5, 12)


def transcripts(trace, keys):
    return {(key, through): trace.node_transcript(key, through=through)
            for key in keys for through in THROUGH}


def assert_transcripts_equal(got, events):
    for (key, through), transcript in got.items():
        expected = oracle.transcript(events, key, through)
        assert transcript == expected
        # the hash tells True from 1 and 1.0 from 1, where == does not
        assert ExecutionTrace.transcript_hash(transcript) == \
            ExecutionTrace.transcript_hash(expected)


# ---------------------------------------------------------------- differential


READ_ORDERS = ["no-events-read", "events-mid-run", "events-after-run",
               "transcript-before-and-after-jsonl"]


@pytest.mark.parametrize("order", READ_ORDERS)
@pytest.mark.parametrize("name", sorted(WIRINGS))
def test_readers_equal_parent_implementations(name, order):
    reference, _keys, _snapshot = run_wiring(name)
    expected_events = oracle.events(reference._events)
    expected = oracle.jsonl(expected_events)
    assert COVERS.get(name, '"kind": "SEND"') in expected

    trace, keys, snapshot = run_wiring(name, mid_run=order == "events-mid-run")
    if order == "events-mid-run":
        # the read saw a prefix, and flat records were appended after it
        assert snapshot is not None and snapshot == shape(expected_events[:len(snapshot)])
        assert any(len(e) == 8 for e in trace._events)
    else:
        assert snapshot is None
    if order == "events-after-run":
        assert shape(trace.events) == shape(expected_events)
    if order == "transcript-before-and-after-jsonl":
        assert_transcripts_equal(transcripts(trace, keys), expected_events)
    assert trace.jsonl().split("\n") == expected.split("\n")
    assert trace.sha256() == hashlib.sha256(expected.encode()).hexdigest()
    assert_transcripts_equal(transcripts(trace, keys), expected_events)
    if order == "no-events-read":
        # no reader writes a record back
        assert [len(e) for e in trace._events] == [len(e) for e in reference._events]
    assert shape(trace.events) == shape(expected_events)
    assert trace.jsonl() == expected


# ---------------------------------------------------------------- serialize once


READERS = {
    "events": lambda trace, keys: trace.events,
    "jsonl": lambda trace, keys: trace.jsonl(),
    "node_transcript": lambda trace, keys: transcripts(trace, keys),
}


def counting(monkeypatch):
    """Counts `_payload_detail` calls; keeps each payload so ids stay unique."""
    calls = []

    def detail(payload):
        calls.append(payload)
        return _payload_detail(payload)

    monkeypatch.setattr(simnet, "_payload_detail", detail)
    return calls


@pytest.mark.parametrize("mid_run", [False, True], ids=["after-run", "events-mid-run"])
@pytest.mark.parametrize("readers", list(itertools.permutations(READERS)),
                         ids="-".join)
def test_each_payload_serialized_at_most_once_per_trace(monkeypatch, readers, mid_run):
    calls = counting(monkeypatch)
    trace, keys, _snapshot = run_wiring("multicast", mid_run=mid_run)
    assert bool(calls) == mid_run
    payloads = {id(e[6]) for e in trace._events if len(e) == 8}
    for reader in readers:
        READERS[reader](trace, keys)
        READERS[reader](trace, keys)
    assert len({id(p) for p in calls}) == len(calls)
    # jsonl reads every record, so every payload of the run was serialized
    assert len(calls) >= len(payloads) and {id(p) for p in calls} >= payloads


def test_transcript_serializes_only_its_nodes_payloads(monkeypatch):
    calls = counting(monkeypatch)
    trace, _keys, _snapshot = run_wiring("plain")
    own = {id(e[6]) for e in trace._events if len(e) == 8 and e[2:4] == (2, 0)}
    trace.node_transcript((2, 0))
    assert {id(p) for p in calls} == own and len(calls) == len(own)
    assert all(len(e) == 8 for e in trace._events if e[1] in (SEND, DELIVER))  # nothing built


@pytest.mark.parametrize("mid_run", [False, True], ids=["after-run", "events-mid-run"])
def test_reads_write_nothing_back(monkeypatch, mid_run):
    calls = counting(monkeypatch)
    trace, keys, _snapshot = run_wiring("plain", mid_run=mid_run)
    records = list(trace._events)
    trace.events
    trace.jsonl()
    transcripts(trace, keys)
    trace.events
    assert len(trace._events) == len(records)
    assert all(now is before for now, before in zip(trace._events, records))
    # the memo outlives every read: each payload was serialized exactly once
    payloads = {id(e[6]) for e in records if len(e) == 8}
    assert {id(p) for p in calls} == payloads and len(calls) == len(payloads)


@pytest.mark.parametrize("name", sorted(WIRINGS))
def test_of_kind_serializes_only_what_it_returns(monkeypatch, name):
    calls = counting(monkeypatch)
    trace, _keys, _snapshot = run_wiring(name)
    assert not calls
    assert trace.of_kind(DECIDE) and trace.of_kind(COIN)
    assert not calls
    sends = [e for e in trace._events if e[1] == SEND]
    assert sends and len(trace.of_kind(SEND)) == len(sends)
    payloads = {id(e[6]) for e in sends}
    assert {id(p) for p in calls} == payloads and len(calls) == len(payloads)
