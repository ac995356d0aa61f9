"""Randomized binary agreement.

`CoinVotingInstance` is a message-driven common-coin voting loop usable on its
own whenever n > 3*t_s, and as the asynchronous stage of the network-agnostic
protocol otherwise. Per round: votes relay at t_s + 1 and a value becomes
quorum-certified at n - t_s support; parties then exchange one candidate each
and close the round on n - t_s certified candidates, deciding when a
unanimous candidate matches the common coin and adopting the coin on a split.
A certified value can only be displaced by another round's quorum.

`BinaryBa` composes the full (t_s, t_a) protocol: with PKI it first runs a
fixed-duration signed-chain stage whose vector seeds the voting loop (with a
certified flag, restored to the party's own input when uncertified), then the
loop; without PKI, n > 3*t_s makes the loop safe stand-alone.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ProtocolError
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
    """

    def __init__(self, n: int, t_s: int, coin_key: Any):
        self.quorum = n - t_s
        self.relay = t_s + 1
        self.coin_key = coin_key
        self.est: Optional[int] = None
        self.round = 0
        self.decided: Optional[int] = None
        self.halted = False
        self.done_sent = False
        self.votes: dict[tuple[int, int], set] = {}
        self.vote_sent: set[tuple[int, int]] = set()
        self.certified: dict[int, set] = {}
        self.cands: dict[tuple[int, int], set] = {}
        self.cand_sent: set[int] = set()
        self.closed: set[int] = set()
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
        if self.halted:
            return []
        kind = msg[0]
        if kind == "VOTE":
            _, r, b = msg
            if b not in (0, 1) or r < 1:
                return []
            self.votes.setdefault((r, b), set()).add(src)
            actions = []
            if len(self.votes[(r, b)]) >= self.relay and (r, b) not in self.vote_sent:
                actions += self._cast_vote(ctx, r, b)
            if len(self.votes[(r, b)]) >= self.quorum:
                self.certified.setdefault(r, set()).add(b)
            return actions + self._progress(ctx)
        if kind == "CAND":
            _, r, b = msg
            if b not in (0, 1) or r < 1:
                return []
            self.cands.setdefault((r, b), set()).add(src)
            return self._progress(ctx)
        if kind == "DONE":
            _, b = msg
            if b not in (0, 1):
                return []
            self.dones.setdefault(b, set()).add(src)
            return self._progress(ctx)
        return []

    def _progress(self, ctx) -> list:
        actions = []
        changed = True
        while changed and not self.halted:
            changed = False
            for b, senders in self.dones.items():
                if len(senders) >= self.relay and self.decided is None:
                    actions += self._decide(ctx, b)
                    changed = True
                if len(senders) >= self.quorum:
                    self.halted = True
                    return actions
            if not self.started:
                break
            r = self.round
            certified = self.certified.get(r, set())
            if certified and r not in self.cand_sent:
                self.cand_sent.add(r)
                pick = self.est if self.est in certified else min(certified)
                self.cands.setdefault((r, pick), set()).add(ctx.party_id)
                actions.append(Broadcast(("CAND", r, pick)))
                changed = True
            if r in self.cand_sent and r not in self.closed:
                # candidates count only while their value is quorum-certified
                single = [
                    b
                    for b in sorted(certified)
                    if len(self.cands.get((r, b), set())) >= self.quorum
                ]
                union: set = set()
                for b in certified:
                    union |= self.cands.get((r, b), set())
                if single:
                    b = single[0]
                    self.closed.add(r)
                    coin = ctx.coin((self.coin_key, r))
                    self.est = b
                    if b == coin and self.decided is None:
                        actions += self._decide(ctx, b)
                    actions += self._enter_round(ctx, r + 1)
                    changed = True
                elif len(certified) == 2 and len(union) >= self.quorum:
                    self.closed.add(r)
                    coin = ctx.coin((self.coin_key, r))
                    self.est = coin
                    actions += self._enter_round(ctx, r + 1)
                    changed = True
        return actions

    def _decide(self, ctx, b: int) -> list:
        self.decided = b
        actions = [Decide(b)]
        if not self.done_sent:
            self.done_sent = True
            self.dones.setdefault(b, set()).add(ctx.party_id)
            actions.append(Broadcast(("DONE", b)))
        return actions


class BinaryBa(Machine):
    """Network-agnostic binary agreement.

    Input and decision are the two `labels`, which stand for bits 0 and 1.
    Agreement and bit-validity hold in a synchronous network with up to t_s
    corruptions and an asynchronous one with up to t_a; termination is
    probabilistic via the common coin.
    """

    def __init__(
        self,
        params,
        delta: int,
        enforce_bounds: bool = True,
        tag: str = "binba",
        labels: tuple = ("0", "1"),
    ):
        check_param_bounds(params, enforce_bounds)
        self.params = params
        self.pki = params.setup == "PKI"
        self.labels = labels
        self.round_len = delta + ROUND_SLACK
        self.stage_end = sync_stage_duration(params, delta)
        self.loop = CoinVotingInstance(params.n, params.t_s, coin_key=tag)
        self.chains: Optional[ChainBroadcastStage] = None
        self.input_bit: Optional[int] = None
        self.decided = False

    def on_start(self, ctx, value):
        if value not in self.labels:
            raise ProtocolError(f"input {value!r} not in binary domain {self.labels}")
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
        if not self.pki:
            return []
        if isinstance(tag, tuple) and tag[0] == "round":
            k = tag[1]
            self.chains.on_round()
            if k < self.chains.last_round:
                return [SetTimer(("round", k + 1), self.round_len)]
            return []
        if tag == "loop-start":
            bit, certified = self._stage_exit()
            seed = bit if certified else self.input_bit
            return self._from_loop(self.loop.start(ctx, seed))
        return []

    def _stage_exit(self) -> tuple[int, bool]:
        """Vector exit rule: certified when at least n - t_s senders produced
        a value; the bit is the plurality value (ties toward 0). An
        uncertified exit falls back to the party's own input."""
        vector = self.chains.vector()
        values = [v for v in vector.values() if v in (0, 1)]
        if len(values) < self.params.n - self.params.t_s:
            return 0, False
        ones = sum(values)
        return (1 if ones * 2 > len(values) else 0), True

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
        if decided and not self.decided:
            self.decided = True
            bit = decided[0]
            wrapped.append(Decide(self.labels[bit]))
        return wrapped
