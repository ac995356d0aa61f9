"""A corrupted node's exception crashes that node only.

When the machine of a corrupted node raises in `on_start`, `on_message` or
`on_timer`, the engine records one CRASH event naming the exception type and
treats the node as crashed from then on. An honest machine's exception is a
bug and still propagates out of the run.
"""

import pytest

from aba.catalog import resolve
from aba.core import InputConfiguration as IC, SystemParams, compute_similarity_certificate
from aba.protocols import Machine, UniversalBa
from aba.simnet import (
    CRASH,
    SEND,
    SYNCHRONOUS,
    AdversaryScript,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    SyncRandomDelay,
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
