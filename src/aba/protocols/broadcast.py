"""Broadcast primitives: quorum reliable broadcast and signed-chain broadcast.

Two embeddable building blocks plus a standalone protocol wrapper:

* `RbcInstance` - single-sender reliable broadcast. Without setup this is the
  classic echo/ready quorum protocol with thresholds n - t_s and t_s + 1.
  With PKI, echoes are signed and a READY must carry an echo certificate
  (n - t_s echo signatures), which pins an honest sender's value to its
  signature and lets a single valid READY be re-broadcast for totality.

* `ChainBroadcastStage` - t_s + 1 rounds of signature-chain relay (one
  instance per sender, run in lockstep), giving all honest parties an
  identical per-sender value vector in a synchronous network at any t_s < n.
  Needs PKI.
"""

from __future__ import annotations

from typing import Any, Optional

from ..simnet import Broadcast, Decide
from .base import Machine, check_param_bounds


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _party_ids(signers) -> Optional[tuple]:
    """`signers` as a tuple when it is an iterable of exact ints, else None."""
    try:
        signers = tuple(signers)
    except TypeError:
        return None
    return signers if all(type(p) is int for p in signers) else None


class RbcInstance:
    """One sender's reliable broadcast; embed one per sender.

    Guarantees (within the caller's resilience bounds): an honest sender's
    value is eventually delivered by every honest party; any delivered value
    for an honest sender equals its input; and no two honest parties deliver
    different values as long as fewer than n - 2*t_s parties are corrupted.

    The instance is quiet once it has sent READY and delivered: later ECHOes
    and READYs are dropped without verifying their signatures. ECHOes are
    dropped as soon as READY is sent. A malformed message is dropped (see
    `handle`).
    """

    def __init__(self, n: int, t_s: int, pki: bool, sender: int):
        self.quorum = n - t_s
        self.amplify = t_s + 1
        self.pki = pki
        self.sender = sender
        self.echoed = False
        self.ready_sent = False
        self.delivered: Optional[Any] = None
        self.echoes: dict[Any, set] = {}
        self.readies: dict[Any, set] = {}

    # message tags
    def _prop_stmt(self, value):
        return ("rbc-prop", self.sender, value)

    def _echo_stmt(self, value):
        return ("rbc-echo", self.sender, value)

    def start(self, ctx, value) -> list:
        if ctx.party_id != self.sender:
            return []
        if self.pki:
            ctx.sign(self._prop_stmt(value))
        return [Broadcast(("PROPOSE", value))]

    def handle(self, ctx, src: int, msg) -> list:
        """Takes ("PROPOSE", v), ("ECHO", v) and ("READY", v, cert) and drops
        any other message. ECHO and READY values key `echoes` and `readies`,
        so they must be hashable; with PKI a READY's cert must be a list or
        tuple of party ids."""
        if not isinstance(msg, tuple) or not msg:
            return []
        kind = msg[0]
        if kind == "PROPOSE":
            return self._on_propose(ctx, src, msg[1]) if len(msg) == 2 else []
        if kind == "ECHO":
            return self._on_echo(ctx, src, msg[1]) if len(msg) == 2 and _hashable(msg[1]) else []
        if kind != "READY" or len(msg) != 3 or not _hashable(msg[1]):
            return []
        cert = msg[2]
        if self.pki and not (isinstance(cert, (list, tuple))
                             and all(type(p) is int for p in cert)):
            return []
        return self._on_ready(ctx, src, msg[1], cert)

    def _on_propose(self, ctx, src, value) -> list:
        if src != self.sender or self.echoed:
            return []
        if self.pki and not ctx.verify(self.sender, self._prop_stmt(value)):
            return []
        self.echoed = True
        if self.pki:
            ctx.sign(self._echo_stmt(value))
        return [Broadcast(("ECHO", value))]

    def _on_echo(self, ctx, src, value) -> list:
        if self.ready_sent:
            return []
        if self.pki and not ctx.verify(src, self._echo_stmt(value)):
            return []
        self.echoes.setdefault(value, set()).add(src)
        if len(self.echoes[value]) >= self.quorum:
            cert = sorted(self.echoes[value])[: self.quorum] if self.pki else None
            self.ready_sent = True
            return [Broadcast(("READY", value, cert))]
        return []

    def _cert_valid(self, ctx, value, cert) -> bool:
        if not self.pki:
            return True
        if len(set(cert)) < self.quorum:
            return False
        return ctx.verify_all(cert, self._echo_stmt(value))

    def _on_ready(self, ctx, src, value, cert) -> list:
        if self.ready_sent and self.delivered is not None:
            return []
        if not self._cert_valid(ctx, value, cert):
            return []
        self.readies.setdefault(value, set()).add(src)
        actions = []
        if not self.ready_sent:
            count = len(self.readies[value])
            # with PKI one certified READY suffices; without, amplify at t_s+1
            if (self.pki and count >= 1) or (not self.pki and count >= self.amplify):
                self.ready_sent = True
                actions.append(Broadcast(("READY", value, cert)))
        if len(self.readies[value]) >= self.quorum and self.delivered is None:
            self.delivered = value
            actions.append(Decide(value))
        return actions


class RbcProtocol(Machine):
    """Standalone reliable broadcast: the designated sender broadcasts its
    input; every party decides the delivered value."""

    def __init__(self, params, sender: int = 0, enforce_bounds: bool = True):
        check_param_bounds(params, enforce_bounds)
        self.instance = RbcInstance(
            params.n, params.t_s, pki=params.setup == "PKI", sender=sender
        )

    def on_start(self, ctx, value):
        return self.instance.start(ctx, value)

    def on_message(self, ctx, src, payload):
        return self.instance.handle(ctx, src, payload)


class ChainBroadcastStage:
    """Signature-chain relay, all n senders in lockstep rounds of the caller's
    chosen length. After round t_s + 1 the per-sender vector is frozen:
    exactly one accepted value, or None for silence or proven equivocation.

    Once any honest party accepts (sender, value) at round k <= t_s it relays
    a (k+1)-signature chain, so all honest parties accept it by round k + 1;
    a chain accepted at round t_s + 1 carries an honest signature, whose owner
    already relayed. In a synchronous network the vectors therefore agree at
    every honest party.

    A chain for a value already accepted from its sender, or for a sender
    that already has two values, changes nothing whatever its signatures
    say, so it is dropped before they are verified. A message that is not
    ("CHAIN", sender, value, signers), with a hashable sender and signers an
    iterable of party ids, is dropped too.
    """

    def __init__(self, n: int, t_s: int, me: int):
        self.me = me
        self.round = 0
        self.last_round = t_s + 1
        self.accepted: dict[int, list] = {s: [] for s in range(n)}

    def _stmt(self, sender: int, value):
        return ("chain", sender, value)

    def start(self, ctx, value) -> list:
        ctx.sign(self._stmt(self.me, value))
        self.round = 1
        self.accepted[self.me].append(value)
        return [Broadcast(("CHAIN", self.me, value, (self.me,)))]

    def on_round(self) -> None:
        """Caller ticks this once per round boundary after `start`."""
        self.round += 1

    def handle(self, ctx, src: int, msg) -> list:
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "CHAIN"):
            return []
        _, sender, value, signers = msg
        signers = _party_ids(signers)
        if signers is None or not _hashable(sender) or self.round > self.last_round:
            return []
        held = self.accepted.get(sender)  # True finds party 1's values
        if held is None or value in held or len(held) >= 2:
            return []
        if not self._chain_valid(ctx, sender, value, signers):
            return []
        held.append(value)
        if self.me not in signers and len(signers) < self.last_round:
            ctx.sign(self._stmt(sender, value))
            return [Broadcast(("CHAIN", sender, value, signers + (self.me,)))]
        return []

    def _chain_valid(self, ctx, sender, value, signers) -> bool:
        if len(set(signers)) != len(signers) or not signers or signers[0] != sender:
            return False
        if len(signers) < self.round:
            return False
        return ctx.verify_all(signers, self._stmt(sender, value))

    def vector(self) -> dict[int, Any]:
        """sender -> accepted value, or None when silent or equivocating."""
        return {
            s: (vals[0] if len(vals) == 1 else None) for s, vals in self.accepted.items()
        }
