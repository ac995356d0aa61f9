"""Agreement on a core set, and the universal validity-solving protocol.

Contract (both network modes, within the mode's corruption bound): all honest
parties output one identical set of at least n - t_s (party, value) pairs;
every honest party listed appears with its true input (integrity); and in a
synchronous network the set contains all honest parties (honest core).

Construction: every party reliable-broadcasts its input, then one binary
agreement per party decides membership. A party votes 1 for instance j upon
delivering broadcast j, and votes 0 on the remaining instances only after
n - t_s instances decided 1 and its clock passed T_core (by which time every
honest broadcast has delivered in a synchronous network, forcing the honest
core). Without setup n > 3*t_s makes the voting instances safe as-is.

With PKI (where n may be as low as 2*t_s + t_a + 1, too few for quorum
arguments against t_s synchronous corruptions) membership agreement is
reached through a certified-core stage instead: parties sign-chain-broadcast
their delivery snapshots at T_core, deterministically merge the synchronized
claim vectors into a candidate core, and collect n - t_s signatures over its
encoding. Conflicting certificates would need an honest double-signer, so a
certificate is unique when it exists; in a synchronous run every honest party
certifies the same core. One binary agreement on "certified?" then either
adopts the certified core or falls back to the voting composition, which that
agreement's bit-validity reaches only in asynchronous runs, where the smaller
corruption bound t_a restores the quorum arguments.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import InputConfiguration
from ..errors import MissingSigmaEntryError, ProtocolError
from ..simnet import Broadcast, Decide, SetTimer
from .base import Machine, check_param_bounds, wrap_actions
from .binary import ROUND_SLACK, CoinVotingInstance
from .broadcast import ChainBroadcastStage, RbcInstance


def core_wait_time(delta: int) -> int:
    """T_core: one tick past the worst-case synchronous delivery time (3Δ)
    of an honest reliable broadcast."""
    return 4 * delta + 1


class AcsProtocol(Machine):
    """Agreement on a core set of (party, value) pairs; decides an
    InputConfiguration."""

    def __init__(self, params, delta: int, enforce_bounds: bool = True,
                 valid_values: Optional[tuple] = None):
        check_param_bounds(params, enforce_bounds)
        self.params = params
        self.quorum = params.n - params.t_s
        self.pki = params.setup == "PKI"
        self.round_len = delta + ROUND_SLACK
        self.t_core = core_wait_time(delta)
        self.valid_values = tuple(valid_values) if valid_values is not None else None

        self.rbcs = {j: RbcInstance(params.n, params.t_s, self.pki, j) for j in range(params.n)}
        self.delivered: dict[int, Any] = {}
        self.abas = {
            j: CoinVotingInstance(params.n, params.t_s, coin_key=("acs", j))
            for j in range(params.n)
        }
        self.aba_bits: dict[int, int] = {}
        self.fallback_active = not self.pki
        self.output_set: Optional[set] = None
        self.finished = False

        # PKI certified-core stage
        self.chains: Optional[ChainBroadcastStage] = None
        self.main = CoinVotingInstance(params.n, params.t_s, coin_key="acs-main")
        self.main_bit: Optional[int] = None
        self.coresig_encodings: dict[int, str] = {}
        self.cert: Optional[str] = None

    # ------------------------------------------------------------ lifecycle

    def on_start(self, ctx, value):
        if self.valid_values is not None and value not in self.valid_values:
            raise ProtocolError(f"input {value!r} outside the declared domain")
        actions = self._from_rbc(ctx, ctx.party_id, self.rbcs[ctx.party_id].start(ctx, value))
        actions.append(SetTimer("t-core", self.t_core))
        return actions

    def on_timer(self, ctx, tag):
        if tag == "t-core":
            if not self.pki:
                return self._try_zero_votes(ctx)
            return self._start_claims(ctx)
        if isinstance(tag, tuple) and tag[0] == "claim-round":
            return self._claim_round(ctx, tag[1])
        if tag == "main-input":
            bit = 1 if self.cert is not None else 0
            return self._from_main(ctx, self.main.start(ctx, bit))
        return []

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

    # ------------------------------------------------------------ broadcast stage

    def _from_rbc(self, ctx, j: int, actions) -> list:
        wrapped, decided = wrap_actions(("rbc", j), actions)
        if decided and (self.valid_values is None or decided[0] in self.valid_values):
            self.delivered[j] = decided[0]
            if self.fallback_active:
                wrapped += self._from_aba(ctx, j, self.abas[j].start(ctx, 1))
            wrapped += self._try_output(ctx)
        return wrapped

    # ------------------------------------------------------------ voting composition

    def _from_aba(self, ctx, j: int, actions) -> list:
        wrapped, decided = wrap_actions(("aba", j), actions)
        if decided:
            self.aba_bits[j] = decided[0]
            wrapped += self._try_zero_votes(ctx)
            wrapped += self._try_output(ctx)
        return wrapped

    def _try_zero_votes(self, ctx) -> list:
        """Votes 0 on every instance not yet started, once n - t_s instances
        decided 1 and the clock reached T_core."""
        if (not self.fallback_active or ctx.now < self.t_core
                or sum(b == 1 for b in self.aba_bits.values()) < self.quorum):
            return []
        actions = []
        for j in range(self.params.n):
            actions += self._from_aba(ctx, j, self.abas[j].start(ctx, 0))
        return actions

    def _try_output(self, ctx) -> list:
        if self.output_set is None:
            if not self.fallback_active or len(self.aba_bits) < self.params.n:
                return []
            self.output_set = {j for j, b in self.aba_bits.items() if b == 1}
            if len(self.output_set) < self.quorum:
                raise ProtocolError("core smaller than n - t_s despite the voting gate")
        if not all(j in self.delivered for j in self.output_set):
            return []
        config = InputConfiguration.of((j, self.delivered[j]) for j in sorted(self.output_set))
        return self._finish(config)

    def _finish(self, config: InputConfiguration) -> list:
        if self.finished:
            return []
        if len(config) < self.quorum:
            raise ProtocolError("core smaller than n - t_s")
        self.finished = True
        return [Decide(config)]

    # ------------------------------------------------------------ certified core (PKI)

    def _start_claims(self, ctx) -> list:
        self.chains = ChainBroadcastStage(self.params.n, self.params.t_s, ctx.party_id)
        snapshot = tuple(sorted(self.delivered.items()))
        actions, _ = wrap_actions("claims", self.chains.start(ctx, snapshot))
        actions.append(SetTimer(("claim-round", 1), self.round_len))
        actions.append(SetTimer("main-input", (self.params.t_s + 2) * self.round_len))
        return actions

    def _claim_round(self, ctx, k: int) -> list:
        self.chains.on_round()
        if k < self.chains.last_round:
            return [SetTimer(("claim-round", k + 1), self.round_len)]
        return self._merge_claims(ctx)

    def _merge_claims(self, ctx) -> list:
        """Deterministic merge of the synchronized claim vectors: keep (j, v)
        pairs claimed by at least t_s + 1 parties, per j the best-supported
        value; sign the encoding when the core is large enough."""
        support: dict[tuple[int, Any], int] = {}
        for claim in self.chains.vector().values():
            if not isinstance(claim, tuple):
                continue
            seen = set()
            for item in claim:
                if not (isinstance(item, (tuple, list)) and len(item) == 2):
                    continue
                j, v = item
                if not isinstance(j, int) or not (0 <= j < self.params.n) or j in seen:
                    continue
                if self.valid_values is not None and v not in self.valid_values:
                    continue
                seen.add(j)
                support[(j, v)] = support.get((j, v), 0) + 1
        core: dict[int, tuple] = {}
        for (j, v), count in sorted(support.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            if count <= self.params.t_s:
                continue
            best = core.get(j)
            if best is None or count > best[1]:
                core[j] = (v, count)
        if len(core) < self.quorum:
            return []
        encoding = InputConfiguration.of((j, v) for j, (v, _) in core.items()).encode()
        ctx.sign(("coresig", encoding))
        return [Broadcast(("coresig", encoding))] + self._on_coresig(ctx, ctx.party_id, encoding)

    def _on_coresig(self, ctx, src: int, encoding) -> list:
        if not isinstance(encoding, str) or src in self.coresig_encodings:
            return []
        if not ctx.verify(src, ("coresig", encoding)):
            return []
        self.coresig_encodings[src] = encoding
        signers = sum(1 for enc in self.coresig_encodings.values() if enc == encoding)
        if self.cert is not None or signers < self.quorum:
            return []
        self.cert = encoding
        return self._on_cert_found(ctx)

    def _on_certshare(self, ctx, src: int, inner) -> list:
        if self.cert is not None:
            return []
        if not (isinstance(inner, tuple) and len(inner) == 2):
            return []
        encoding, signers = inner
        if not isinstance(encoding, str) or len(set(signers)) < self.quorum:
            return []
        if not all(ctx.verify(p, ("coresig", encoding)) for p in signers):
            return []
        self.cert = encoding
        return self._on_cert_found(ctx)

    def _on_cert_found(self, ctx) -> list:
        """Runs once both main decided 1 and a certificate is known, whichever
        came second: shares the certificate (when this party holds its
        signatures) and adopts the certified core."""
        if self.main_bit != 1 or self.cert is None:
            return []
        signers = tuple(
            sorted(p for p, enc in self.coresig_encodings.items() if enc == self.cert)
        )
        actions = []
        if len(signers) >= self.quorum:
            actions.append(Broadcast(("certshare", (self.cert, signers))))
        return actions + self._finish(InputConfiguration.decode(self.cert))

    def _from_main(self, ctx, actions) -> list:
        wrapped, decided = wrap_actions("main", actions)
        if decided:
            self.main_bit = decided[0]
            if self.main_bit == 1:
                return wrapped + self._on_cert_found(ctx)
            self.fallback_active = True
            for j in sorted(self.delivered):
                wrapped += self._from_aba(ctx, j, self.abas[j].start(ctx, 1))
            wrapped += self._try_zero_votes(ctx)
            wrapped += self._try_output(ctx)
        return wrapped


class UniversalBa(Machine):
    """Validity-universal agreement: agree on a core set, then decide the
    certificate's choice for it. Correct because the true honest
    configuration is always similar to the agreed core: integrity makes it a
    neighbor, the synchronous honest core makes it a sub-configuration, and
    in asynchrony its size is at least n - t_a."""

    def __init__(self, params, delta: int, certificate, enforce_bounds: bool = True):
        self.certificate = certificate
        self.acs = AcsProtocol(
            params,
            delta,
            enforce_bounds=enforce_bounds,
            valid_values=certificate.domain.input_values,
        )
        self.core: Optional[InputConfiguration] = None

    def _from_acs(self, actions) -> list:
        wrapped, decided = wrap_actions("acs", actions)
        if decided:
            core = self.core = decided[0]
            try:
                value = self.certificate.lookup(core)
            except KeyError:
                raise MissingSigmaEntryError(
                    f"no sigma entry for agreed core {core.encode()}"
                ) from None
            wrapped.append(Decide(value))
        return wrapped

    def on_start(self, ctx, value):
        return self._from_acs(self.acs.on_start(ctx, value))

    def on_message(self, ctx, src, payload):
        if not isinstance(payload, tuple) or len(payload) != 2 or payload[0] != "acs":
            return []
        return self._from_acs(self.acs.on_message(ctx, src, payload[1]))

    def on_timer(self, ctx, tag):
        if not isinstance(tag, tuple) or tag[0] != "acs":
            return []
        return self._from_acs(self.acs.on_timer(ctx, tag[1]))
