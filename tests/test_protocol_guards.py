"""The guards that drop byzantine input, each driven directly.

Every case hands a handler one malformed or unsupported input and requires
that it returns [] and leaves the machine's state, and the context's log of
coin flips and signatures, as they were. Where a guard rejects a value that
would otherwise count, a control case shows the well-formed input changing
the state, so the malformed one is dropped by the guard, not by chance.
"""

import pytest

from aba import catalog
from aba.core import SystemParams, compute_similarity_certificate
from aba.protocols import AcsProtocol, BinaryBa, ChainBroadcastStage, UniversalBa
from aba.simnet import Broadcast

from test_protocol_fastpath import StubCtx

PKI = SystemParams(4, 1, 1, "PKI")
NONE = SystemParams(4, 1, 1, "NONE")
DELTA = 2
VALUES = ("0", "1")


def snapshot(value):
    """A copy of `value` that later mutation cannot reach: objects as their
    class and attributes, containers copied entry by entry."""
    if isinstance(value, dict):
        return {key: snapshot(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(snapshot, value))
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if hasattr(value, "__dict__"):
        return type(value).__name__, snapshot(vars(value))
    return value


def assert_dropped(machine, ctx, call):
    before = snapshot(machine)
    assert call() == []
    assert snapshot(machine) == before
    assert ctx.log == []


# ---------------------------------------------------------------- acs claims merge


def acs_with_claims(claims):
    """An acs node 0 whose claim stage froze one claim per sender."""
    acs = AcsProtocol(PKI, DELTA, valid_values=VALUES)
    acs.chains = ChainBroadcastStage(PKI.n, PKI.t_s, 0)
    acs.chains.accepted = {s: [claim] for s, claim in enumerate(claims)}
    return acs


# Parties 0 and 1 are claimed by every sender, one short of the n - t_s = 3
# a core needs; the item for party 2 decides whether the merge signs.
BASE = ((0, "0"), (1, "0"))
BAD_ITEMS = {
    "not a pair": [2, (2,), (2, "0", "0"), "20"],
    "party not an int": [("2", "0"), (2.0, "0"), (None, "0")],
    "party out of range": [(4, "0"), (-1, "0")],
    "value outside valid_values": [(2, "7"), (2, 0)],
}


@pytest.mark.parametrize("kind", sorted(BAD_ITEMS))
def test_merge_drops_a_malformed_claim_item(kind):
    for item in BAD_ITEMS[kind]:
        ctx = StubCtx(0, PKI.n)
        acs = acs_with_claims([BASE + (item,)] * PKI.n)
        assert_dropped(acs, ctx, lambda: acs._merge_claims(ctx))


def test_merge_counts_a_party_once_per_claim():
    # one sender repeats (2, "0"); counted twice it would reach t_s + 1 support
    ctx = StubCtx(0, PKI.n)
    acs = acs_with_claims([BASE + ((2, "0"), (2, "0"))] + [BASE] * (PKI.n - 1))
    assert_dropped(acs, ctx, lambda: acs._merge_claims(ctx))


def test_merge_signs_the_core_of_well_formed_claims():
    ctx = StubCtx(0, PKI.n)
    acs = acs_with_claims([BASE + ((2, "0"),)] * PKI.n)
    actions = acs._merge_claims(ctx)
    assert actions[0] == Broadcast(("coresig", "p0=0;p1=0;p2=0"))
    assert ctx.log == [("sign", ("coresig", "p0=0;p1=0;p2=0"))]
    assert acs.coresig_encodings == {0: "p0=0;p1=0;p2=0"}


# ---------------------------------------------------------------- acs certificate shares

ENCODING = "p0=0;p1=0;p2=0"
# parties 0-2 signed the encoding, and a non-string "encoding" too
SIGNED = {(p, repr(("coresig", encoding))) for p in range(3) for encoding in (ENCODING, 7)}


@pytest.mark.parametrize("inner", [
    "share",  # not a tuple
    (ENCODING,),  # not a pair
    (ENCODING, (0, 1, 2), "extra"),
    [ENCODING, (0, 1, 2)],  # a list, not a tuple
    (ENCODING, [0, 1, 2]),  # signers not a tuple
    (ENCODING, (0, 1, "2")),  # a signer that is not an int
    (ENCODING, (0, 1, 4)),  # a signer out of range
    (7, (0, 1, 2)),  # an encoding that is not a str
    (ENCODING, (0, 1, 1)),  # fewer than n - t_s distinct signers
    (ENCODING, (0, 1)),
    (ENCODING, (0, 1, 3)),  # party 3 did not sign the encoding
    ("p0=1;p1=0;p2=0", (0, 1, 2)),  # nobody signed this one
], ids=repr)
def test_certshare_drops_a_malformed_share(inner):
    ctx = StubCtx(0, PKI.n, SIGNED)
    acs = AcsProtocol(PKI, DELTA, valid_values=VALUES)
    assert_dropped(acs, ctx, lambda: acs.on_message(ctx, 1, ("certshare", inner)))


def test_certshare_adopts_a_signed_certificate():
    ctx = StubCtx(0, PKI.n, SIGNED)
    acs = AcsProtocol(PKI, DELTA, valid_values=VALUES)
    assert acs.on_message(ctx, 1, ("certshare", (ENCODING, (2, 0, 1)))) == []
    assert acs.cert == ENCODING


# ---------------------------------------------------------------- unknown timers and payloads


def started(machine):
    """`machine` as node 0 after its start, with an empty context log."""
    ctx = StubCtx(0, PKI.n)
    machine.on_start(ctx, "0")
    ctx.log.clear()
    return machine, ctx


def universal(params):
    prop, domain = catalog.resolve("strong", 2)
    certificate = compute_similarity_certificate(prop, params, domain).certificate
    return UniversalBa(params, DELTA, certificate)


MACHINES = {
    "acs-pki": lambda: AcsProtocol(PKI, DELTA, valid_values=VALUES),
    "acs-none": lambda: AcsProtocol(NONE, DELTA, valid_values=VALUES),
    "universal-pki": lambda: universal(PKI),
    "bin-ba-pki": lambda: BinaryBa(PKI, DELTA),
    "bin-ba-none": lambda: BinaryBa(NONE, DELTA),
}
UNKNOWN_TIMERS = ["nope", ("nope", 1), ("acs", "nope"), 5]
MALFORMED_PAYLOADS = [
    "junk", None, (), ("acs",), ("acs", ("main", ("VOTE", 1, 0)), "extra"),
    ("loop", ("VOTE", 1, 0), "extra"), ("other", ("VOTE", 1, 0)),
    ["loop", ("VOTE", 1, 0)], ("acs", "junk"), ("acs", ("other", 0)),
    ("claims", ("CHAIN", 1, "0", (1,))),  # before acs's claim stage starts
]


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_unknown_timer_tags_are_dropped(name):
    for tag in UNKNOWN_TIMERS:
        machine, ctx = started(MACHINES[name]())
        assert_dropped(machine, ctx, lambda: machine.on_timer(ctx, tag))


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_malformed_payloads_are_dropped(name):
    for payload in MALFORMED_PAYLOADS:
        machine, ctx = started(MACHINES[name]())
        assert_dropped(machine, ctx, lambda: machine.on_message(ctx, 1, payload))


def test_binary_ba_drops_chain_messages_without_a_chain_stage():
    # without PKI there is no signed-chain stage to hand them to
    machine, ctx = started(BinaryBa(NONE, DELTA))
    assert_dropped(machine, ctx,
                   lambda: machine.on_message(ctx, 1, ("ds", ("CHAIN", 1, 0, (1,)))))


# ---------------------------------------------------------------- signature chains


def chain_stage():
    """Node 0's chain stage in round 1, with party 1's value "v" signed by
    parties 1 and 2."""
    ctx = StubCtx(0, PKI.n, {(p, repr(("chain", 1, "v"))) for p in (1, 2)})
    stage = ChainBroadcastStage(PKI.n, PKI.t_s, 0)
    stage.start(ctx, "x")
    ctx.log.clear()
    return stage, ctx


@pytest.mark.parametrize("signers", [
    (),  # no signers
    (1, 1),  # a duplicate signer
    (1, 2, 1),
    (2,),  # the first signer is not the sender
    (2, 1),
], ids=repr)
def test_chain_rejects_a_malformed_signer_list(signers):
    stage, ctx = chain_stage()
    assert_dropped(stage, ctx, lambda: stage.handle(ctx, 2, ("CHAIN", 1, "v", signers)))


def test_chain_accepts_and_relays_a_signed_chain():
    stage, ctx = chain_stage()
    assert stage.handle(ctx, 2, ("CHAIN", 1, "v", (1,))) == \
        [Broadcast(("CHAIN", 1, "v", (1, 0)))]
    assert stage.accepted[1] == ["v"]
