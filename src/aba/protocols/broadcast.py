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


class RbcInstance:
    """One sender's reliable broadcast; embed one per sender.

    Guarantees (within the caller's resilience bounds): an honest sender's
    value is eventually delivered by every honest party; any delivered value
    for an honest sender equals its input; and no two honest parties deliver
    different values as long as fewer than n - 2*t_s parties are corrupted.
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
        kind = msg[0]
        if kind == "PROPOSE":
            return self._on_propose(ctx, src, msg[1])
        if kind == "ECHO":
            return self._on_echo(ctx, src, msg[1])
        if kind == "READY":
            return self._on_ready(ctx, src, msg[1], msg[2])
        return []

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
        if self.pki and not ctx.verify(src, self._echo_stmt(value)):
            return []
        self.echoes.setdefault(value, set()).add(src)
        if len(self.echoes[value]) >= self.quorum and not self.ready_sent:
            cert = sorted(self.echoes[value])[: self.quorum] if self.pki else None
            self.ready_sent = True
            return [Broadcast(("READY", value, cert))]
        return []

    def _cert_valid(self, ctx, value, cert) -> bool:
        if not self.pki:
            return True
        if not isinstance(cert, (list, tuple)) or len(set(cert)) < self.quorum:
            return False
        return all(ctx.verify(p, self._echo_stmt(value)) for p in cert)

    def _on_ready(self, ctx, src, value, cert) -> list:
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
        if self.round > self.last_round or msg[0] != "CHAIN":
            return []
        _, sender, value, signers = msg
        signers = tuple(signers)
        if not self._chain_valid(ctx, sender, value, signers):
            return []
        if value in self.accepted[sender] or len(self.accepted[sender]) >= 2:
            return []
        self.accepted[sender].append(value)
        if self.me not in signers and len(signers) < self.last_round:
            ctx.sign(self._stmt(sender, value))
            return [Broadcast(("CHAIN", sender, value, signers + (self.me,)))]
        return []

    def _chain_valid(self, ctx, sender, value, signers) -> bool:
        if len(set(signers)) != len(signers) or not signers or signers[0] != sender:
            return False
        if len(signers) < self.round:
            return False
        stmt = self._stmt(sender, value)
        return all(ctx.verify(p, stmt) for p in signers)

    def vector(self) -> dict[int, Any]:
        """sender -> accepted value, or None when silent or equivocating."""
        return {
            s: (vals[0] if len(vals) == 1 else None) for s, vals in self.accepted.items()
        }
