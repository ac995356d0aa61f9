"""Signer-set checks and the chain checks that are skipped.

`SignatureOracle.verify_all` checks a whole signer set against one registry
text of the payload, and must answer as `verify` does party by party. The
reliable broadcast's READY certificate and the chain relay's signer chain
are checked that way, and the relay drops a chain that can change nothing
(a value it already accepted from that sender, or a third value) before it
looks up any signature.
"""

import pytest

from aba.core import SystemParams
from aba.errors import SetupUnavailableError
from aba.protocols.broadcast import ChainBroadcastStage, RbcInstance
from aba.simnet import SYNCHRONOUS, NetworkConfig, NodeCtx, NodeInstance, SignatureOracle, Simulation

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")

# payloads that are equal but have different reprs
PAYLOADS = [("x", 1), ("x", True), ("x", 1.0), ("y",)]
PARTY_SETS = [(), [0], (0, 0), (0, 1, 2), [1, 1, 0], (0, 3), (3,), (True, 2), {0, 2}]


def test_verify_all_answers_as_verify_does_party_by_party():
    oracle = SignatureOracle(enabled=True)
    oracle.sign(0, ("x", 1))
    oracle.sign(1, ("x", 1))
    oracle.sign(2, ("x", 1))
    oracle.sign(1, ("x", True))
    oracle.sign(2, ("x", 1.0))
    oracle.sign(0, ("x", 1.0))
    answers = set()
    for payload in PAYLOADS:
        for parties in PARTY_SETS:
            expected = all(oracle.verify(p, payload) for p in parties)
            assert oracle.verify_all(parties, payload) is expected, (parties, payload)
            assert oracle.verify_all(iter(parties), payload) is expected
            answers.add(expected)
    assert answers == {True, False}


def test_verify_all_unavailable_without_pki():
    oracle = SignatureOracle(enabled=False)
    for parties in ((), (0, 1)):
        with pytest.raises(SetupUnavailableError):
            oracle.verify_all(parties, "x")


class CountingSet(set):
    """A registry that counts membership lookups."""

    lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


class Counted:
    """A hashable value that counts how often it is written by `repr`."""

    reprs = 0

    def __repr__(self):
        Counted.reprs += 1
        return "Counted()"


def node_ctx(party):
    sim = Simulation(PARAMS, NetworkConfig(mode=SYNCHRONOUS), seed=1)
    sim.signatures._registry = CountingSet()
    return sim, NodeCtx(sim, NodeInstance(party_id=party))


def test_duplicate_and_third_chains_make_no_registry_lookup():
    sim, ctx = node_ctx(0)
    oracle, registry = sim.signatures, sim.signatures._registry
    stage = ChainBroadcastStage(PARAMS.n, PARAMS.t_s, me=0)
    stage.start(ctx, "mine")
    for value in ("a", "b", "c"):
        oracle.sign(1, ("chain", 1, value))

    before = registry.lookups
    relay = stage.handle(ctx, 1, ("CHAIN", 1, "a", (1,)))
    assert relay and stage.accepted[1] == ["a"]
    assert registry.lookups > before

    before = registry.lookups
    assert stage.handle(ctx, 2, ("CHAIN", 1, "a", (1,))) == []
    assert stage.handle(ctx, 2, ("CHAIN", True, "a", (1,))) == []  # True finds party 1's values
    assert registry.lookups == before

    assert stage.handle(ctx, 1, ("CHAIN", 1, "b", (1,)))
    before = registry.lookups
    assert stage.handle(ctx, 1, ("CHAIN", 1, "c", (1,))) == []
    assert registry.lookups == before
    assert stage.accepted[1] == ["a", "b"]


@pytest.mark.parametrize("signers", [3, 4])
def test_ready_certificate_makes_one_repr(signers):
    sim, ctx = node_ctx(3)
    oracle, registry = sim.signatures, sim.signatures._registry
    rbc = RbcInstance(PARAMS.n, PARAMS.t_s, pki=True, sender=0)
    value = Counted()
    cert = list(range(signers))
    for p in cert:
        oracle.sign(p, ("rbc-echo", 0, value))
    Counted.reprs = 0
    before = registry.lookups
    assert rbc.handle(ctx, 1, ("READY", value, cert))  # it amplifies the READY
    assert rbc.readies == {value: {1}}
    assert Counted.reprs == 1
    assert registry.lookups - before == signers
