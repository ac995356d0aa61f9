"""Lazy trace payloads against the eager serialization they replaced.

The simulator records SEND and DELIVER payloads as objects and serializes
them on the first read of the trace. These tests compare every serialized
payload, and the JSONL bytes, with the payload text of `trace_oracle` taken at
send time and with the JSONL writer the eager trace used.
"""

import hashlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import aba.simnet as simnet
import trace_oracle as oracle
from aba.cli import main
from aba.core import SystemParams
from aba.protocols import Machine
from aba.simnet import (
    ASYNCHRONOUS,
    DECIDE,
    DELIVER,
    SEND,
    SYNCHRONOUS,
    AsyncRandomDelay,
    Broadcast,
    Decide,
    NetworkConfig,
    NodeInstance,
    Send,
    Simulation,
)

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class Opaque:
    """A payload part with no JSON form: the trace falls back to repr."""

    def __init__(self, k):
        self.k = k

    def __repr__(self):
        return f"Opaque({self.k})"


_leaves = st.one_of(
    st.integers(-5, 2**70),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.builds(Opaque, st.integers(0, 9)),
)
payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.text(max_size=2)), kids, max_size=3),
    ),
    max_leaves=8,
)


class Chatter(Machine):
    """Broadcasts its own payloads one per handler call, echoes every received
    payload object back to its sender once, and logs the eager serialization
    of each SEND and DELIVER in the order the trace records them."""

    def __init__(self, own, world):
        self.own = list(own)
        self.world = world
        self.echoed = set()

    def _emit(self, ctx, received=None, src=None):
        actions = []
        if received is not None and id(received) not in self.echoed:
            self.echoed.add(id(received))
            actions.append(Send(src, received))
        if self.own:
            payload = self.own.pop(0)
            self.world.sent(payload)
            actions.append(Broadcast(payload))
        for action in actions:
            copies = ctx.n if isinstance(action, Broadcast) else 1
            self.world.log.extend([self.world.text[id(action.payload)]] * copies)
        return actions

    def on_start(self, ctx, value):
        return self._emit(ctx)

    def on_message(self, ctx, src, payload):
        self.world.log.append(self.world.text[id(payload)])
        self.world.deliveries += 1
        if self.world.deliveries in (2, 7):  # two broadcasts make at least 8
            self.world.check_prefix()
        return self._emit(ctx, payload, src)


class World:
    """State the test machines share: eager texts by payload id (the payload
    objects are kept alive, so ids stay unique), the expected payload column
    of the trace, and the simulation whose trace is read mid-run."""

    def __init__(self):
        self.keep = []
        self.text = {}
        self.log = []
        self.deliveries = 0
        self.mid_run_reads = 0
        self.sim = None

    def sent(self, payload):
        self.keep.append(payload)
        self.text.setdefault(id(payload), oracle.payload_text(payload))

    def check_prefix(self):
        self.mid_run_reads += 1
        assert payload_column(self.sim.trace.events) == self.log


def payload_column(events):
    return [detail["payload"] for _t, kind, _p, _r, detail in events if kind in (SEND, DELIVER)]


def eager_jsonl(events, column):
    """The eager trace's JSONL: the generic writer, fed the send-time
    payload strings."""
    expected = iter(column)
    return oracle.jsonl([(*e[:4], dict(e[4], payload=next(expected)))
                         if e[1] in (SEND, DELIVER) else e for e in events])


def run_chatter(own_payloads, seed, asynchronous):
    world = World()
    if asynchronous:
        net = NetworkConfig(mode=ASYNCHRONOUS, delta=10, horizon=2000)
        sim = Simulation(PARAMS, net, seed, policy=AsyncRandomDelay(15))
    else:
        sim = Simulation(PARAMS, NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=2000), seed)
    world.sim = sim
    for party in range(PARAMS.n):
        own = own_payloads[party::PARAMS.n]
        sim.add_node(NodeInstance(party_id=party), lambda p, own=own: Chatter(own, world))
    sim.run()
    return world, sim.trace


@settings(max_examples=60, deadline=None)
@given(st.lists(payloads, min_size=2, max_size=10), st.integers(0, 50), st.booleans())
def test_lazy_payloads_equal_eager_serialization(own_payloads, seed, asynchronous):
    world, trace = run_chatter(own_payloads, seed, asynchronous)
    assert world.mid_run_reads == 2
    events = trace.events
    column = payload_column(events)
    assert column == world.log
    assert all(isinstance(text, str) and text.startswith("v1:") for text in column)
    text = trace.jsonl()
    # compared as lines: a failing example then reports the first differing
    # event instead of a character diff of the whole trace
    assert text.split("\n") == eager_jsonl(events, world.log).split("\n")
    assert trace.sha256() == hashlib.sha256(text.encode()).hexdigest()


class CountingRepr:
    calls = 0

    def __repr__(self):
        CountingRepr.calls += 1
        return "CountingRepr()"


class OneBroadcast(Machine):
    def __init__(self, payload):
        self.payload = payload

    def on_start(self, ctx, value):
        if ctx.party_id == 0:
            return [Broadcast(("x", self.payload)), Decide("0")]
        return [Decide("0")]


def test_each_payload_object_serialized_once_and_only_when_read():
    CountingRepr.calls = 0
    sim = Simulation(PARAMS, NetworkConfig(mode=SYNCHRONOUS, delta=10, horizon=100), 1)
    shared = CountingRepr()
    for party in range(PARAMS.n):
        sim.add_node(NodeInstance(party_id=party), lambda p: OneBroadcast(shared))
    sim.run()
    assert CountingRepr.calls == 0
    assert len(sim.trace.of_kind(DECIDE)) == PARAMS.n
    assert CountingRepr.calls == 0
    sends, delivers = sim.trace.of_kind(SEND), sim.trace.of_kind(DELIVER)
    assert len(sends) == len(delivers) == PARAMS.n
    assert CountingRepr.calls == 1
    assert {e[4]["payload"] for e in sends + delivers} == {'v1:["x", "CountingRepr()"]'}
    sim.trace.jsonl()
    assert CountingRepr.calls == 1


def test_fuzz_never_serializes_payloads(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(simnet, "_payload_detail", lambda p: calls.append(p) or "v1:null")
    assert main(["fuzz", str(SCENARIOS / "binba-async-byzantine.json"), "--seeds", "3"]) == 0
    capsys.readouterr()
    assert calls == []
