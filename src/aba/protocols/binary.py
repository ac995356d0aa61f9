"""Randomized binary agreement.

`CoinVotingInstance` is a message-driven common-coin voting loop usable on its
own whenever n > 3*t_s, and as the asynchronous stage of the network-agnostic
protocol otherwise. Per round: votes relay at t_s + 1 and a value becomes
quorum-certified at n - t_s support; parties then exchange one candidate each
and close the round on n - t_s certified candidates, deciding when a
unanimous candidate matches the common coin and adopting the coin on a split.
A certified value can only be displaced by another round's quorum. State
changes only when a counter crosses one of these thresholds, so the round
rules are re-evaluated only then.

`BinaryBa` composes the full (t_s, t_a) protocol: with PKI it first runs a
fixed-duration signed-chain stage whose vector seeds the voting loop (with a
certified flag, restored to the party's own input when uncertified), then the
loop; without PKI, n > 3*t_s makes the loop safe stand-alone.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import InputDomainError, ProtocolError
from ..simnet import Broadcast, Decide, SetTimer
from .base import Machine, check_param_bounds, wrap_actions
from .broadcast import ChainBroadcastStage

ROUND_SLACK = 1  # round length is delta + 1 so boundary messages land strictly inside


def sync_stage_duration(params, delta: int) -> int:
    """Fixed budget for the synchronous stage before the coin loop starts."""
    return 3 * (params.t_s + 2) * (delta + ROUND_SLACK)


class CoinVotingInstance:
    """One binary-agreement instance; embeddable and join-time tolerant.

    Messages: ("VOTE", r, b) relayed votes, ("CAND", r, b) round candidates,
    ("DONE", b) decision gossip. Deciding keeps the instance participating so
    laggards complete their rounds; n - t_s DONEs halt it.

    `handle` re-runs the round rules (`_progress`) only when a threshold is
    crossed: a VOTE that newly certifies its value, or a CAND or DONE from a
    new sender. A node's own vote enters `votes` when it is cast, and counts
    toward certification on the next VOTE delivered for that (r, b), which
    is often the node's own broadcast coming back, a duplicate.
    """

    def __init__(self, n: int, t_s: int, coin_key: Any):
        self.quorum = n - t_s
        self.relay = t_s + 1
        self.coin_key = coin_key
        self.est: Optional[int] = None
        self.round = 0
        self.decided: Optional[int] = None
        self.halted = False
        self.votes: dict[tuple[int, int], set] = {}
        self.vote_sent: set[tuple[int, int]] = set()
        self.certified: dict[int, set] = {}
        self.cands: dict[tuple[int, int], set] = {}
        self.cand_sent: set[int] = set()
        self.dones: dict[int, set] = {}

    @property
    def started(self) -> bool:
        return self.round > 0

    def start(self, ctx, bit: int) -> list:
        if self.started:
            return []
        if bit not in (0, 1):
            raise ProtocolError(f"binary agreement input must be 0/1, got {bit!r}")
        self.est = bit
        return self._enter_round(ctx, 1) + self._progress(ctx)

    def _enter_round(self, ctx, r: int) -> list:
        self.round = r
        return self._cast_vote(ctx, r, self.est)

    def _cast_vote(self, ctx, r: int, b: int) -> list:
        if (r, b) in self.vote_sent:
            return []
        self.vote_sent.add((r, b))
        self.votes.setdefault((r, b), set()).add(ctx.party_id)
        return [Broadcast(("VOTE", r, b))]

    def handle(self, ctx, src: int, msg) -> list:
        # the shape check: a tuple, a VOTE or CAND of arity 3 whose round is an
        # exact int >= 1 (not a bool), or a DONE of arity 2; anything else is
        # dropped, so a peer's junk never raises here
        if self.halted or type(msg) is not tuple:
            return []
        if len(msg) == 3:
            kind, r, b = msg
            if type(r) is not int or r < 1 or b not in (0, 1):
                return []
            if kind == "VOTE":
                voters = self.votes.get((r, b))
                if voters is None:
                    voters = self.votes[(r, b)] = set()
                voters.add(src)
                # a duplicate still counts: the node's own vote, added when it
                # was cast, is certified only by the next VOTE delivered for (r, b)
                actions = self._cast_vote(ctx, r, b) if len(voters) >= self.relay else []
                if len(voters) >= self.quorum:
                    bits = self.certified.setdefault(r, set())
                    if b not in bits:
                        bits.add(b)
                        return actions + self._progress(ctx)
                return actions
            if kind == "CAND":
                return self._add_sender(ctx, self.cands, (r, b), src)
        elif len(msg) == 2:
            kind, b = msg
            if kind == "DONE" and b in (0, 1):
                return self._add_sender(ctx, self.dones, b, src)
        return []

    def _add_sender(self, ctx, table: dict, key, src: int) -> list:
        senders = table.get(key)
        if senders is None:
            table[key] = {src}
        elif src in senders:
            return []
        else:
            senders.add(src)
        return self._progress(ctx)

    def _progress(self, ctx) -> list:
        """Runs the round rules to a fixpoint. They read only `dones`,
        `certified`, `cands`, `round`, `est` and `cand_sent`, so `handle`
        calls this only when one of those changed."""
        actions = []
        quorum = self.quorum
        changed = True
        while changed and not self.halted:
            changed = False
            for b, senders in self.dones.items():
                if len(senders) >= self.relay and self.decided is None:
                    actions += self._decide(ctx, b)
                    changed = True
                if len(senders) >= quorum:
                    self.halted = True
                    return actions
            if not self.started:
                break
            r = self.round
            certified = self.certified.get(r)
            if not certified:
                continue
            if r not in self.cand_sent:
                self.cand_sent.add(r)
                pick = self.est if self.est in certified else min(certified)
                self.cands.setdefault((r, pick), set()).add(ctx.party_id)
                actions.append(Broadcast(("CAND", r, pick)))
                changed = True
            # candidates count only while their value is quorum-certified
            cands0 = self.cands.get((r, 0)) if 0 in certified else None
            cands1 = self.cands.get((r, 1)) if 1 in certified else None
            if cands0 is not None and len(cands0) >= quorum:
                single = 0
            elif cands1 is not None and len(cands1) >= quorum:
                single = 1
            elif cands0 is None or cands1 is None or len(cands0 | cands1) < quorum:
                continue
            else:
                single = None
            coin = ctx.coin((self.coin_key, r))
            self.est = coin if single is None else single
            if single == coin and self.decided is None:
                actions += self._decide(ctx, coin)
            actions += self._enter_round(ctx, r + 1)
            changed = True
        return actions

    def _decide(self, ctx, b: int) -> list:
        self.decided = b
        self.dones.setdefault(b, set()).add(ctx.party_id)
        return [Decide(b), Broadcast(("DONE", b))]


class BinaryBa(Machine):
    """Network-agnostic binary agreement.

    Input and decision are the two `labels`, which stand for bits 0 and 1.
    Agreement and bit-validity hold in a synchronous network with up to t_s
    corruptions and an asynchronous one with up to t_a; termination is
    probabilistic via the common coin.
    """

    def __init__(self, params, delta: int, enforce_bounds: bool = True,
                 labels: tuple = ("0", "1")):
        check_param_bounds(params, enforce_bounds)
        self.params = params
        self.pki = params.setup == "PKI"
        self.labels = labels
        self.round_len = delta + ROUND_SLACK
        self.stage_end = sync_stage_duration(params, delta)
        self.loop = CoinVotingInstance(params.n, params.t_s, coin_key="binba")
        self.chains: Optional[ChainBroadcastStage] = None
        self.input_bit: Optional[int] = None

    def on_start(self, ctx, value):
        if value not in self.labels:
            raise InputDomainError(f"input {value!r} not in binary domain {self.labels}")
        bit = self.labels.index(value)
        self.input_bit = bit
        if not self.pki:
            return self._from_loop(self.loop.start(ctx, bit))
        self.chains = ChainBroadcastStage(self.params.n, self.params.t_s, ctx.party_id)
        actions, _ = wrap_actions("ds", self.chains.start(ctx, bit))
        actions.append(SetTimer(("round", 1), self.round_len))
        actions.append(SetTimer("loop-start", self.stage_end))
        return actions

    def on_timer(self, ctx, tag):
        # timers are set only with PKI
        if isinstance(tag, tuple) and tag[0] == "round":
            k = tag[1]
            self.chains.on_round()
            if k < self.chains.last_round:
                return [SetTimer(("round", k + 1), self.round_len)]
            return []
        if tag == "loop-start":
            return self._from_loop(self.loop.start(ctx, self._stage_exit()))
        return []

    def _stage_exit(self) -> int:
        """Vector exit rule, the loop's input bit: certified when at least
        n - t_s senders produced a value, then the plurality value (ties
        toward 0); an uncertified exit falls back to the party's own input."""
        values = [v for v in self.chains.vector().values() if v in (0, 1)]
        if len(values) < self.params.n - self.params.t_s:
            return self.input_bit
        return 1 if sum(values) * 2 > len(values) else 0

    def on_message(self, ctx, src, payload):
        if not isinstance(payload, tuple) or len(payload) != 2:
            return []
        tag, inner = payload
        if tag == "ds" and self.chains is not None:
            actions, _ = wrap_actions("ds", self.chains.handle(ctx, src, inner))
            return actions
        if tag == "loop":
            return self._from_loop(self.loop.handle(ctx, src, inner))
        return []

    def _from_loop(self, actions) -> list:
        wrapped, decided = wrap_actions("loop", actions)
        if decided:
            wrapped.append(Decide(self.labels[decided[0]]))
        return wrapped
