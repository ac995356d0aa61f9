"""Protocol state-machine interface and sub-protocol composition helpers."""

from __future__ import annotations

from ..errors import ProtocolError, ResilienceBoundError
from ..simnet import Broadcast, Decide, SetTimer


class Machine:
    """Event-driven party logic: handlers return lists of actions and must
    never block. At most one Decide is ever emitted per node.

    A payload is never mutated once it has been sent, by its sender or by
    any receiver: every destination gets the same object, and the trace
    serializes it only when the trace is first read.

    A machine never keeps a reference to itself: no table of its own bound
    methods, no closure over `self`. A run then holds no reference cycle and
    is freed as soon as its result is dropped; `tests/test_run_memory.py`
    checks that for every protocol."""

    def on_start(self, ctx, value) -> list:
        return []

    def on_message(self, ctx, src: int, payload) -> list:
        return []

    def on_timer(self, ctx, tag) -> list:
        return []


class ConstantProtocol(Machine):
    """Decides a fixed value immediately; the no-communication protocol that
    solves any trivial validity property."""

    def __init__(self, value):
        self.value = value

    def on_start(self, ctx, value):
        return [Decide(self.value)]


def wrap_actions(tag, actions) -> tuple[list, list]:
    """Namespaces a sub-protocol's broadcasts and timers under `tag`; returns
    (parent-level actions, values the sub-protocol decided). Sub-protocols
    only broadcast, so any other action, a `Send` included, is a
    ProtocolError."""
    wrapped, decided = [], []
    for action in actions:
        if isinstance(action, Broadcast):
            wrapped.append(Broadcast((tag, action.payload)))
        elif isinstance(action, SetTimer):
            wrapped.append(SetTimer((tag, action.tag), action.delay))
        elif isinstance(action, Decide):
            decided.append(action.value)
        else:
            raise ProtocolError(f"sub-protocol emitted unknown action {action!r}")
    return wrapped, decided


def check_param_bounds(params, enforce: bool = True) -> None:
    """Resilience precondition shared by the agreement protocols. It implies
    quorum intersection: two (n - t_s) quorums overlap in at least
    n - 2*t_s >= t_a + 1 parties (n > 2*t_s + t_a with PKI, and
    n > 3*t_s >= 2*t_s + t_a without)."""
    if not enforce:
        return
    if not params.n_bound_holds():
        raise ResilienceBoundError(
            f"parameters violate the resilience bound: n={params.n} t_s={params.t_s} "
            f"t_a={params.t_a} setup={params.setup}"
        )
