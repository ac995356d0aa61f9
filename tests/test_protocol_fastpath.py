"""Protocol fast paths against the handlers they replaced.

`CoinVotingInstance` re-runs its round rules only when a delivery crosses a
threshold, `RbcInstance` is quiet once it has sent READY and delivered, and
`AcsProtocol.on_message` reads a 2-tuple tag once. The oracles below are the
earlier handlers, copied as they were: they re-ran the round rules and
verified every signature on every delivery. Each pair is driven with the same
message sequences (random sources, rounds, bits and duplicates, messages
before `start` and after halting, and the node's own broadcasts and timers
fed back to it), drawn by hypothesis and by a seeded random source. After
every step both sides must return equal action lists, or raise the same
error, and hold equal state.
"""

import random
import zlib
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from aba.core import SystemParams
from aba.errors import ProtocolError
from aba.protocols import AcsProtocol
from aba.protocols.base import wrap_actions
from aba.protocols.binary import CoinVotingInstance
from aba.protocols.broadcast import RbcInstance
from aba.simnet import Broadcast, Decide, SetTimer

# ---------------------------------------------------------------- oracles
#
# Copied from the handlers these tests check, as they were before the fast
# paths; only the class names and docstrings differ.


class OracleCoinVoting:
    """`CoinVotingInstance` as it was: the round rules run after every
    delivery."""

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
        if self.halted:
            return []
        kind = msg[0]
        if kind == "VOTE":
            _, r, b = msg
            if b not in (0, 1) or r < 1:
                return []
            self.votes.setdefault((r, b), set()).add(src)
            actions = []
            if len(self.votes[(r, b)]) >= self.relay:
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
            if r in self.cand_sent:
                # candidates count only while their value is quorum-certified
                cands = {b: self.cands.get((r, b), set()) for b in sorted(certified)}
                single = next((b for b, senders in cands.items()
                               if len(senders) >= self.quorum), None)
                if single is not None or (
                    len(cands) == 2 and len(cands[0] | cands[1]) >= self.quorum
                ):
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



class OracleRbc:
    """`RbcInstance` as it was: every ECHO and READY is verified and counted."""

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


class OracleAcs(AcsProtocol):
    """`AcsProtocol` with the earlier tag dispatch, over oracle instances.
    The lifts it inherits (`_from_rbc`, ...) differ from the earlier ones
    only by returning at once on an empty action list."""

    def __init__(self, params, delta):
        super().__init__(params, delta, enforce_bounds=False)
        n, t_s = params.n, params.t_s
        self.rbcs = {j: OracleRbc(n, t_s, self.pki, j) for j in range(n)}
        self.abas = {j: OracleCoinVoting(n, t_s, coin_key=("acs", j)) for j in range(n)}
        self.main = OracleCoinVoting(n, t_s, coin_key="acs-main")

    def on_message(self, ctx, src, payload):
        if not isinstance(payload, tuple) or len(payload) != 2:
            return []
        tag, inner = payload
        if isinstance(tag, tuple) and tag[0] == "rbc":
            j = tag[1]
            if j in self.rbcs:
                return self._from_rbc(ctx, j, self.rbcs[j].handle(ctx, src, inner))
            return []
        if isinstance(tag, tuple) and tag[0] == "aba":
            j = tag[1]
            if j in self.abas:
                return self._from_aba(ctx, j, self.abas[j].handle(ctx, src, inner))
            return []
        if tag == "claims" and self.chains is not None:
            actions, _ = wrap_actions("claims", self.chains.handle(ctx, src, inner))
            return actions
        if tag == "main":
            return self._from_main(ctx, self.main.handle(ctx, src, inner))
        if tag == "coresig":
            return self._on_coresig(ctx, src, inner)
        if tag == "certshare":
            return self._on_certshare(ctx, src, inner)
        return []


# ---------------------------------------------------------------- message sequences


class StubCtx:
    """A node's context: a deterministic coin, and a signature registry that
    starts from `signed` and gains what the node signs. Coin flips and
    signatures are logged, since the simulator traces both."""

    def __init__(self, party_id: int, n: int, signed=()):
        self.party_id = party_id
        self.n = n
        self.now = 0
        self.registry = set(signed)
        self.log = []

    def coin(self, key) -> int:
        value = zlib.crc32(repr(key).encode()) & 1
        self.log.append(("coin", key, value))
        return value

    def sign(self, payload):
        self.registry.add((self.party_id, repr(payload)))
        self.log.append(("sign", payload))
        return ("SIG", self.party_id)

    def verify(self, party_id, payload, token=None) -> bool:
        return (party_id, repr(payload)) in self.registry

    def verify_all(self, parties, payload) -> bool:
        return all(self.verify(p, payload) for p in parties)


class Draws:
    """Choices read from bytes that hypothesis drew, so that it shrinks a
    failing sequence; zeros once the bytes run out."""

    def __init__(self, numbers):
        self.numbers = iter(numbers)

    def pick(self, options):
        return options[next(self.numbers, 0) % len(options)]

    def int(self, lo: int, hi: int) -> int:
        return lo + next(self.numbers, 0) % (hi - lo + 1)


class Seeded:
    """Choices from a seeded random source."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, options):
        return self.rng.choice(options)

    def int(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)


def outcome(call):
    try:
        return call()
    except ProtocolError as exc:
        return (type(exc), str(exc))


class Pair:
    """The fast and the oracle side of one node, each with its own context.
    `own` holds the node's broadcasts and timers not yet fed back to it, and
    `sent` every payload it broadcast, which a peer may echo back."""

    def __init__(self, fast, oracle, me: int, n: int, signed=()):
        self.fast, self.oracle = fast, oracle
        self.ctxs = StubCtx(me, n, signed), StubCtx(me, n, signed)
        self.me = me
        self.n = n
        self.own: list = []
        self.sent: list = []

    def step(self, call, state) -> bool:
        """Runs `call(side, ctx)` on both sides; False once they raised."""
        got = outcome(lambda: call(self.fast, self.ctxs[0]))
        want = outcome(lambda: call(self.oracle, self.ctxs[1]))
        assert got == want
        assert self.ctxs[0].log == self.ctxs[1].log
        assert state(self.fast) == state(self.oracle)
        if not isinstance(got, list):
            return False
        for action in got:
            if isinstance(action, Broadcast):
                self.own.append(("msg", action.payload))
                self.sent.append(action.payload)
            elif isinstance(action, SetTimer):
                self.own.append(("timer", action.tag))
        return True

    def replay(self, draw):
        """A message for the node: one of its own broadcasts or timers fed
        back, or a peer sending what the node broadcast, as honest peers
        do; None when there is none yet."""
        if draw.int(0, 1) and self.own:
            return self.me, self.own.pop(draw.int(0, len(self.own) - 1))
        if self.sent:
            payload = self.sent[-1 - draw.int(0, min(len(self.sent), 8) - 1)]
            return draw.int(0, self.n - 1), ("msg", payload)
        return None

    def set_now(self, now: int) -> None:
        for ctx in self.ctxs:
            ctx.now = now


VOTING_PARAMS = ((1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (7, 2))


def voting_state(inst):
    return vars(inst)


def vote_message(draw, round_now: int):
    kind = draw.pick(("VOTE", "VOTE", "VOTE", "CAND", "CAND", "DONE"))
    b = draw.pick((0, 1, 0, 1, 2))
    if kind == "DONE":
        return ("DONE", b)
    r = draw.pick((0, 1, 2, 3, 4, max(1, round_now), max(1, round_now)))
    return (kind, r, b)


def drive_voting(draw, steps: int) -> Pair:
    n, t_s = draw.pick(VOTING_PARAMS)
    me = draw.int(0, n - 1)
    pair = Pair(CoinVotingInstance(n, t_s, "k"), OracleCoinVoting(n, t_s, "k"), me, n)
    for _ in range(steps):
        op = draw.pick(("start", "msg", "msg", "replay", "replay", "replay", "replay"))
        if op == "start":
            bit = draw.int(0, 1)
            pair.step(lambda inst, ctx: inst.start(ctx, bit), voting_state)
            continue
        replayed = pair.replay(draw) if op == "replay" else None
        if replayed is None:
            src, msg = draw.int(0, n - 1), vote_message(draw, pair.fast.round)
        else:
            src, (_kind, msg) = replayed
        pair.step(lambda inst, ctx: inst.handle(ctx, src, msg), voting_state)
    return pair


RBC_PARAMS = ((3, 1), (4, 1), (7, 2))
RBC_VALUES = ("a", "b")


def rbc_state(inst):
    return inst.echoed, inst.ready_sent, inst.delivered


def rbc_signed(draw, n: int, sender: int, values=RBC_VALUES) -> set:
    """A random part of every signature the messages could need."""
    signed = set()
    for value in values:
        stmts = [(sender, ("rbc-prop", sender, value))]
        stmts += [(p, ("rbc-echo", sender, value)) for p in range(n)]
        signed |= {(p, repr(stmt)) for p, stmt in stmts if draw.int(0, 4)}
    return signed


def rbc_message(draw, n: int, sender: int, values=RBC_VALUES):
    kind = draw.pick(("PROPOSE", "ECHO", "ECHO", "READY", "READY"))
    value = draw.pick(values)
    src = draw.pick((sender, draw.int(0, n - 1)))
    if kind != "READY":
        return src, (kind, value)
    size, start = draw.int(0, n), draw.int(0, n - 1)
    cert = draw.pick((None, 7, [(start + i) % n for i in range(size)],
                      tuple(sorted((start + i) % n for i in range(size)))))
    return src, ("READY", value, cert)


def drive_rbc(draw, steps: int) -> Pair:
    n, t_s = draw.pick(RBC_PARAMS)
    pki = draw.pick((False, True))
    sender = draw.int(0, n - 1)
    me = draw.pick((sender, draw.int(0, n - 1)))
    signed = rbc_signed(draw, n, sender) if pki else ()
    pair = Pair(RbcInstance(n, t_s, pki, sender), OracleRbc(n, t_s, pki, sender), me, n, signed)
    for _ in range(steps):
        op = draw.pick(("start", "msg", "msg", "msg", "replay", "replay"))
        if op == "start":
            value = draw.pick(RBC_VALUES)
            pair.step(lambda inst, ctx: inst.start(ctx, value), rbc_state)
            continue
        replayed = pair.replay(draw) if op == "replay" else None
        if replayed is None:
            src, msg = rbc_message(draw, n, sender)
        else:
            src, (_kind, msg) = replayed
        pair.step(lambda inst, ctx: inst.handle(ctx, src, msg), rbc_state)
    return pair


ACS_PARAMS = (SystemParams(4, 1, 1, "NONE"), SystemParams(4, 1, 1, "PKI"),
              SystemParams(3, 1, 0, "PKI"))
ACS_DELTA = 2
ACS_VALUES = ("0", "1")


def acs_state(acs):
    return (
        acs.delivered, acs.aba_bits, acs.fallback_active, acs.output_set, acs.finished,
        acs.main_bit, acs.cert, voting_state(acs.main),
        [rbc_state(rbc) for rbc in acs.rbcs.values()],
        [voting_state(aba) for aba in acs.abas.values()],
    )


def acs_message(draw, acs, n: int):
    """A message with a well-formed tag, or with a tag that both dispatchers
    drop: an unknown layer, or an index out of range."""
    src = draw.int(0, n - 1)
    layer = draw.pick(("rbc", "rbc", "rbc", "aba", "aba", "main", "junk"))
    if layer == "rbc":
        j = draw.pick((src, src, draw.int(0, n - 1), n + 1))
        _src, inner = rbc_message(draw, n, j if j < n else src, ACS_VALUES)
        return src, (("rbc", j), inner)
    if layer == "aba":
        j = draw.pick((draw.int(0, n - 1), -1))
        round_now = acs.abas[j].round if j >= 0 else 1
        return src, (("aba", j), vote_message(draw, round_now))
    if layer == "main":
        return src, ("main", vote_message(draw, acs.main.round))
    return src, draw.pick(((("other", 0), ("VOTE", 1, 0)), ("coresig", "x"), "junk"))


def drive_acs(draw, steps: int) -> Pair:
    params = draw.pick(ACS_PARAMS)
    n = params.n
    me = draw.int(0, n - 1)
    signed = set()
    if params.setup == "PKI":
        for j in range(n):
            signed |= rbc_signed(draw, n, j, ACS_VALUES)
    pair = Pair(AcsProtocol(params, ACS_DELTA, enforce_bounds=False),
                OracleAcs(params, ACS_DELTA), me, n, signed)
    value = draw.pick(ACS_VALUES)
    if not pair.step(lambda acs, ctx: acs.on_start(ctx, value), acs_state):
        return pair
    now = 0
    for _ in range(steps):
        now += draw.int(0, 2)
        pair.set_now(now)
        replayed = pair.replay(draw) if draw.int(0, 3) else None
        if replayed is None:
            src, payload = acs_message(draw, pair.fast, n)
            replayed = src, ("msg", payload)
        src, (kind, item) = replayed
        if kind == "timer":
            ok = pair.step(lambda acs, ctx: acs.on_timer(ctx, item), acs_state)
        else:
            ok = pair.step(lambda acs, ctx: acs.on_message(ctx, src, item), acs_state)
        if not ok:
            break
    return pair


# ---------------------------------------------------------------- tests


numbers = st.binary(min_size=300, max_size=1200)


@settings(max_examples=300, deadline=None)
@given(numbers)
def test_coin_voting_matches_the_oracle(choices):
    drive_voting(Draws(choices), 200)


@settings(max_examples=200, deadline=None)
@given(numbers)
def test_rbc_matches_the_oracle(choices):
    drive_rbc(Draws(choices), 150)


@settings(max_examples=150, deadline=None)
@given(numbers)
def test_acs_dispatch_matches_the_oracle(choices):
    drive_acs(Draws(choices), 200)


def test_seeded_drives_reach_every_threshold():
    """Seeded drives match the oracles and reach each rule the fast paths
    skip to: certification, round changes, decisions, halting, and delivery
    and an ACS output with and without PKI."""
    reached = set()
    for seed in range(150):
        voting = drive_voting(Seeded(seed), 150).fast
        reached |= {"certified"} if voting.certified else set()
        reached |= {"round 3"} if voting.round >= 3 else set()
        reached |= {"decided"} if voting.decided is not None else set()
        reached |= {"halted"} if voting.halted else set()
        rbc = drive_rbc(Seeded(seed), 60).fast
        if rbc.delivered is not None:
            reached.add(f"delivered pki={rbc.pki}")
        acs = drive_acs(Seeded(seed), 300).fast
        if acs.finished:
            reached.add(f"acs output pki={acs.pki}")
    assert reached >= {"certified", "round 3", "decided", "halted", "delivered pki=False",
                       "delivered pki=True", "acs output pki=False", "acs output pki=True"}


def test_own_vote_is_certified_by_its_duplicate():
    """With n = 3 and t_s = 1 one other vote plus the node's own is a quorum.
    The node's own vote, cast by `start`, is certified only when its VOTE
    comes back: a duplicate, which must still run the quorum check."""
    pair = Pair(CoinVotingInstance(3, 1, "k"), OracleCoinVoting(3, 1, "k"), 0, 3)
    pair.step(lambda inst, ctx: inst.handle(ctx, 1, ("VOTE", 1, 0)), voting_state)
    pair.step(lambda inst, ctx: inst.start(ctx, 0), voting_state)
    assert pair.fast.votes[(1, 0)] == {0, 1} and not pair.fast.certified
    before = len(pair.own)
    pair.step(lambda inst, ctx: inst.handle(ctx, 0, ("VOTE", 1, 0)), voting_state)
    assert pair.fast.certified == {1: {0}}
    assert pair.own[before:] == [("msg", ("CAND", 1, 0))]
