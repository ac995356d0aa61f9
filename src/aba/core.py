"""Finite-domain input configurations, validity properties, and the solvability boundary.

Parties are integers 0..n-1. An input configuration assigns one input value to
each member of a party subset of size >= n - t_s; it stands for "these parties
are honest and hold these inputs". Everything here enumerates explicit finite
domains, guarded by a budget that caps how many configurations (or orbits)
one call enumerates. One recurrence, `_Walk`, gives the intersection of the
property over the configurations similar to a key, evaluating the property
at most once per key. Its keys are orbits, (size, multiset of values)
pairs, for an anonymous property, whose value depends on nothing else, and
configurations otherwise. Each call builds one walk, whose memos are plain
dicts, and drops it. `is_solvable` walks the keys to its verdict, and
`similarity_pass` turns them into rows in canonical order, a party set at a
time, from which certificates are built.
`SimilarityCertificate.validate` is the independent check and shares no code
with them: for an anonymous property it passes I when sigma(I) lies in the AND
of V over the orbits of similar(I), enumerated directly once per orbit, and a
pair scan over every J similar to I, built as (party, value) assignments,
serves table properties and every I that fails that lookup.
`similar()` and `neighbors()` keep the definitional, one-object-per-
configuration form of the relations, which the tests check both against.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import BudgetExceededError, ConfigError

SETUP_NONE = "NONE"
SETUP_PKI = "PKI"

# Verdict reasons
TRIVIAL = "TRIVIAL"
SIMILARITY_AND_N_OK = "SIMILARITY_AND_N_OK"
N_TOO_SMALL = "N_TOO_SMALL"
SIMILARITY_FAILS = "SIMILARITY_FAILS"


def _integer_text(text: str) -> Optional[int]:
    """The int that `text` writes in canonical decimal, `str(int(text))`, or
    None for any other text: no sign but a leading "-", no leading zero, no
    "_" and no surrounding space."""
    try:
        number = int(text)
    except ValueError:
        return None
    return number if str(number) == text else None


def read_integer(value, where: str) -> int:
    """A count read from a file or a validity name: an int, an integral float
    or an integer string in canonical decimal (`_integer_text`). Anything else,
    a boolean or a fractional or non-finite number included, raises
    ConfigError: "{where} must be an integer, got {value!r}"."""
    if isinstance(value, str):
        number = _integer_text(value)
        if number is not None:
            return number
    elif not isinstance(value, bool) and not (isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def read_labels(value, where: str) -> list:
    """A label list read from a file: a list of strings, else ConfigError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of strings, got {value!r}")
    return value


def read_object(value, where: str, *required: str) -> dict:
    """A JSON object read from a file, holding every key in `required`.
    Anything else raises ConfigError: "{where} must be a JSON object, got
    {type}", or "{where} missing {key!r}" for the first absent key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where} missing {key!r}")
    return value


def read_string(value, where: str) -> str:
    """A string read from a file, else ConfigError naming `where`."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Party count and per-network-mode corruption bounds."""

    n: int
    t_s: int
    t_a: int
    setup: str = SETUP_PKI

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if not (0 <= self.t_a <= self.t_s <= self.n - 1):
            raise ConfigError(
                f"need 0 <= t_a <= t_s <= n-1, got n={self.n} t_s={self.t_s} t_a={self.t_a}"
            )
        if self.setup not in (SETUP_NONE, SETUP_PKI):
            raise ConfigError(f"setup must be NONE or PKI, got {self.setup!r}")

    @property
    def min_config_size(self) -> int:
        return self.n - self.t_s

    def n_bound_holds(self) -> bool:
        """Resilience precondition: n > 2*t_s + t_a with PKI, n > 3*t_s without."""
        if self.setup == SETUP_PKI:
            return self.n > 2 * self.t_s + self.t_a
        return self.n > 3 * self.t_s

    def to_dict(self) -> dict:
        return {"n": self.n, "t_s": self.t_s, "t_a": self.t_a, "setup": self.setup}

    @classmethod
    def from_dict(cls, d) -> "SystemParams":
        """Reads `to_dict` output: an object holding n, t_s and t_a, each read
        by `read_integer`, and an optional setup string. Anything else raises
        ConfigError."""
        read_object(d, "params", "n", "t_s", "t_a")
        n, t_s, t_a = (read_integer(d[key], f"params field {key}") for key in ("n", "t_s", "t_a"))
        return cls(n, t_s, t_a, read_string(d.get("setup", SETUP_PKI), "params field setup"))


@dataclass(frozen=True)
class Domain:
    """Finite ordered input and output value labels.

    The declared order doubles as the tie-break order for certificate values.
    """

    input_values: tuple[str, ...]
    output_values: tuple[str, ...]

    def __post_init__(self):
        for name, vals in (("input", self.input_values), ("output", self.output_values)):
            if not vals:
                raise ConfigError(f"{name} domain must be non-empty")
            if len(set(vals)) != len(vals):
                raise ConfigError(f"{name} domain has duplicate labels: {vals}")
        split = [v for v in self.input_values if ";" in v]
        if split:
            raise ConfigError(f"input labels may not contain ';', which separates parties "
                              f"in encoded configurations: {split}")

    @classmethod
    def binary(cls) -> "Domain":
        return cls(("0", "1"), ("0", "1"))

    @classmethod
    def labels(cls, count: int) -> "Domain":
        vals = tuple(str(i) for i in range(count))
        return cls(vals, vals)

    def to_dict(self) -> dict:
        return {"input_values": list(self.input_values), "output_values": list(self.output_values)}

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "Domain":
        """Reads `to_dict` output: each side goes through `read_labels`, whose
        errors name it as `{where} {side}`."""
        return cls(*(tuple(read_labels(d.get(side), f"{where} {side}"))
                     for side in ("input_values", "output_values")))


@dataclass(frozen=True)
class InputConfiguration:
    """Sorted (party, value) assignments for the honest parties."""

    assignments: tuple[tuple[int, str], ...]

    def __post_init__(self):
        parties = [p for p, _ in self.assignments]
        if parties != sorted(set(parties)):
            raise ConfigError(f"assignments must be sorted with distinct parties: {self.assignments}")
        if parties and parties[0] < 0:
            raise ConfigError("party ids must be non-negative")

    @classmethod
    def of(cls, pairs) -> "InputConfiguration":
        return cls(tuple(sorted((int(p), str(v)) for p, v in pairs)))

    @property
    def parties(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def value_of(self, party: int) -> Optional[str]:
        for p, v in self.assignments:
            if p == party:
                return v
        return None

    def as_dict(self) -> dict[int, str]:
        return dict(self.assignments)

    def is_subset_of(self, other: "InputConfiguration") -> bool:
        """Sub-configuration relation: same values on a party subset."""
        theirs = other.as_dict()
        return all(theirs.get(p) == v for p, v in self.assignments)

    def agrees_with(self, other: "InputConfiguration") -> bool:
        """Neighbor relation: equal values on every commonly present party."""
        theirs = other.as_dict()
        return all(theirs.get(p, v) == v for p, v in self.assignments)

    def encode(self) -> str:
        return ";".join(f"p{p}={v}" for p, v in self.assignments)

    @classmethod
    def decode(cls, text: str) -> "InputConfiguration":
        pairs = []
        for part in text.split(";"):
            if not part.startswith("p") or "=" not in part:
                raise ConfigError(f"bad configuration encoding: {text!r}")
            head, value = part.split("=", 1)
            party = _integer_text(head[1:])
            if party is None:
                raise ConfigError(f"bad party id in configuration encoding: {text!r}")
            pairs.append((party, value))
        return cls.of(pairs)


@dataclass(frozen=True)
class ValidityProperty:
    """Named deterministic map from input configurations to allowed output sets.

    `anonymous` states a fact about the map: V(I) depends only on |I| and the
    multiset of I's values, never on which parties hold them. The checker
    then works on orbits (see `_Walk`) instead of configurations.
    """

    name: str
    evaluate: Callable[[SystemParams, Domain, InputConfiguration], frozenset]
    anonymous: bool = False


@dataclass
class Budget:
    """A hard cap on the configurations (or orbits) a checker enumerates; a
    count over the cap raises before any work, never truncates."""

    max_configs: int = 5_000_000

    def check_configs(self, count: int, unit: str = "configurations") -> None:
        if count > self.max_configs:
            raise BudgetExceededError(
                f"{count} {unit} exceed the enumeration cap {self.max_configs}"
            )


def count_input_configs(params: SystemParams, domain: Domain) -> int:
    m = len(domain.input_values)
    n = params.n
    total = 0
    for k in range(params.min_config_size, n + 1):
        total += math.comb(n, k) * m**k
    return total


def count_orbits(params: SystemParams, domain: Domain) -> int:
    """Number of (size, multiset of values) pairs over the configurations."""
    m = len(domain.input_values)
    return sum(
        math.comb(k + m - 1, m - 1) for k in range(params.min_config_size, params.n + 1)
    )


def enumerate_input_configs(
    params: SystemParams, domain: Domain, budget: Optional[Budget] = None
) -> Iterator[InputConfiguration]:
    """All configurations, party subsets by ascending size then lexicographic,
    assignments lexicographic in declared domain order."""
    budget = budget or Budget()
    budget.check_configs(count_input_configs(params, domain))
    values = domain.input_values
    for size in range(params.min_config_size, params.n + 1):
        for subset in itertools.combinations(range(params.n), size):
            for assignment in itertools.product(values, repeat=size):
                yield InputConfiguration(tuple(zip(subset, assignment)))


def _compatible_configs(
    base: InputConfiguration, params: SystemParams, domain: Domain, min_size: int
) -> Iterator[InputConfiguration]:
    """Configurations of size >= min_size agreeing with `base` on shared parties,
    in canonical enumeration order."""
    fixed = base.as_dict()
    values = domain.input_values
    for size in range(min_size, params.n + 1):
        for subset in itertools.combinations(range(params.n), size):
            free = [p for p in subset if p not in fixed]
            if not free:
                yield InputConfiguration(tuple((p, fixed[p]) for p in subset))
                continue
            for assignment in itertools.product(values, repeat=len(free)):
                chosen = dict(zip(free, assignment))
                yield InputConfiguration(
                    tuple((p, fixed[p] if p in fixed else chosen[p]) for p in subset)
                )


def neighbors(
    config: InputConfiguration, params: SystemParams, domain: Domain
) -> list[InputConfiguration]:
    """Configurations agreeing with `config` on every commonly present party."""
    return list(_compatible_configs(config, params, domain, params.min_config_size))


def similar(
    config: InputConfiguration, params: SystemParams, domain: Domain
) -> list[InputConfiguration]:
    """Neighbors that are sub-configurations (corruption ambiguity) or have
    size >= n - t_a (asynchrony ambiguity)."""
    floor_async = params.n - params.t_a
    return [
        other
        for other in _compatible_configs(config, params, domain, params.min_config_size)
        if len(other) >= floor_async or other.is_subset_of(config)
    ]


def is_similar_to(
    config: InputConfiguration, other: InputConfiguration, params: SystemParams
) -> bool:
    """Fast membership predicate: other in similar(config)."""
    if len(other) < params.min_config_size:
        return False
    if not other.agrees_with(config):
        return False
    return len(other) >= params.n - params.t_a or other.is_subset_of(config)


def _output_masks(
    validity: ValidityProperty, params: SystemParams, domain: Domain
) -> Callable[[InputConfiguration], int]:
    """The property as a bitmask over the declared output order (bit i is
    output_values[i]); values outside the output domain raise ConfigError."""
    bits = {value: 1 << i for i, value in enumerate(domain.output_values)}

    def evaluate(config: InputConfiguration) -> int:
        result = frozenset(validity.evaluate(params, domain, config))
        mask = 0
        try:
            for value in result:
                mask |= bits[value]
        except KeyError:
            raise ConfigError(
                f"property {validity.name!r} returned values outside the output domain: "
                f"{sorted(result - bits.keys())}"
            ) from None
        return mask

    return evaluate


def _lowest_output(domain: Domain, mask: int) -> Optional[str]:
    """Smallest output in `mask` in declared order; None for the empty mask."""
    return domain.output_values[(mask & -mask).bit_length() - 1] if mask else None


def is_trivial(
    validity: ValidityProperty,
    params: SystemParams,
    domain: Domain,
    budget: Optional[Budget] = None,
) -> tuple[bool, Optional[str]]:
    """Whether one output is valid under every configuration; returns the
    smallest such value in declared output order if so."""
    budget = budget or Budget()
    evaluate = _output_masks(validity, params, domain)
    common = (1 << len(domain.output_values)) - 1
    for config in enumerate_input_configs(params, domain, budget):
        common &= evaluate(config)
        if not common:
            return False, None
    return True, _lowest_output(domain, common)


def _indented(value, pad: str = "\n") -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it, for
    objects of containers or of scalars and lists of scalars, without the
    pure-Python encoder `indent` selects, which is slow and leaves a cycle per
    call: the C encoder writes each container of scalars, with the separators
    that indentation would put between its entries."""
    inner = pad + "  "
    if isinstance(value, dict) and isinstance(next(iter(value.values()), None), (dict, list)):
        entries = (f"{json.dumps(key)}: {_indented(value[key], inner)}" for key in sorted(value))
        return "".join(("{", inner, ("," + inner).join(entries), pad, "}"))
    text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
    return "".join((text[0], inner, text[1:-1], pad, text[-1])) if value else text


@dataclass(frozen=True)
class SimilarityCertificate:
    """A choice table sigma mapping every configuration to one output that is
    valid under all of its similar configurations."""

    params: SystemParams
    domain: Domain
    sigma: dict  # encoded configuration -> output value

    def lookup(self, config: InputConfiguration) -> str:
        return self.sigma[config.encode()]

    def to_json(self) -> str:
        """The certificate as `json.dumps(..., indent=2, sort_keys=True)`
        writes it (see `_indented`)."""
        return _indented({"domain": self.domain.to_dict(), "params": self.params.to_dict(),
                          "sigma": self.sigma})

    @classmethod
    def from_json(cls, text: str) -> "SimilarityCertificate":
        """Parses `to_json` output. Anything but an object holding `params`,
        a `domain` of two label lists and a `sigma` object of labels raises
        ConfigError."""
        data = read_object(json.loads(text), "certificate", "params", "domain", "sigma")
        params, domain, sigma = (read_object(data[key], f"certificate {key}")
                                 for key in ("params", "domain", "sigma"))
        if not all(map(isinstance, sigma.values(), itertools.repeat(str))):
            raise ConfigError("certificate sigma values must be output labels (strings)")
        return cls(params=SystemParams.from_dict(params),
                   domain=Domain.from_dict(domain, "certificate domain"), sigma=sigma)

    def validate(
        self, validity: ValidityProperty, budget: Optional[Budget] = None
    ) -> tuple[bool, Optional[str]]:
        """Independent soundness re-check: sigma(I) in V(J) for every I in
        canonical order and every J in similar(I). It shares nothing with
        `similarity_pass`. Returns (ok, first failure description); the
        budget caps the configuration count.

        For an anonymous property, I passes with one lookup when sigma(I)
        lies in the AND of V over the orbits of similar(I), computed once
        per orbit (`_similar_orbit_masks`); a party set's lookups run in
        bulk, and only its missing or failing rows go on, in order. For
        those, and for every I of a table property, the pair scan decides
        I: J by J in `similar()` order, evaluating V at most once per J, so
        the failure it reports and any ConfigError are those of a scan over
        every pair.

        The pair scan builds each J as its (party, value) assignments: for
        each similar party set S in `similar()` order (every S of size >=
        n - t_a and every S within I's parties of size >= n - t_s) it fills
        S's parties outside I in `itertools.product` order. Every J takes its
        pairs from one table, so the memo of V, keyed by J, compares them by
        identity."""
        params, domain = self.params, self.domain
        budget = budget or Budget()
        budget.check_configs(count_input_configs(params, domain))
        evaluate = _output_masks(validity, params, domain)
        n, values = params.n, domain.input_values
        bit_of = {value: 1 << i for i, value in enumerate(domain.output_values)}
        orbit_mask = (_similar_orbit_masks(evaluate, params, domain) if validity.anonymous
                      else lambda orbit: 0)
        party_sets = [
            parties
            for size in range(params.min_config_size, n + 1)
            for parties in itertools.combinations(range(n), size)
        ]
        pairs = [[(p, value) for value in values] for p in range(n)]
        row_masks: dict = {}  # size -> the orbit mask of each assignment in product order
        allowed: dict = {}  # J's assignments -> output mask
        for own in party_sets:
            if len(own) not in row_masks:
                codes, orbits = _orbit_codes(n, len(values), len(own))
                mask_of = {code: orbit_mask(orbit) for code, orbit in orbits.items()}
                row_masks[len(own)] = list(map(mask_of.__getitem__, codes))
            rows = plan = None  # built when the first row on `own` fails its lookup
            encodings = list(_encodings(own, values))
            bits = map(bit_of.get, map(self.sigma.get, encodings), itertools.repeat(0))
            failing = map(operator.not_, map(operator.and_, row_masks[len(own)], bits))
            for row in itertools.compress(itertools.count(), failing):
                encoded = encodings[row]
                if encoded not in self.sigma:
                    return False, f"missing sigma entry for {encoded}"
                chosen = self.sigma[encoded]
                bit = bit_of.get(chosen, 0)
                rows = rows or list(itertools.product(*(pairs[p] for p in own)))
                plan = plan or [parties for parties in party_sets  # the S similar to own
                                if len(parties) >= n - params.t_a or set(parties) <= set(own)]
                choices = pairs.copy()  # I's pair for its parties, every pair for the rest
                for pair in rows[row]:
                    choices[pair[0]] = (pair,)
                for parties in plan:
                    for other in itertools.product(*map(choices.__getitem__, parties)):
                        mask = allowed.get(other)
                        if mask is None:
                            mask = allowed[other] = evaluate(InputConfiguration(other))
                        if not mask & bit:
                            return False, (f"sigma({encoded})={chosen} invalid under "
                                           f"{InputConfiguration(other).encode()}")
        return True, None


def _similar_orbit_masks(
    evaluate: Callable[[InputConfiguration], int], params: SystemParams, domain: Domain
) -> Callable[[tuple], int]:
    """For an anonymous property: the AND of V over the orbits of similar(I),
    as a function of I's orbit, its value indices in ascending order.

    With c the multiset of I's values, the orbits of similar(I) are
      - every sub-multiset d <= c with |d| >= n - t_s: the sub-configurations;
      - every d + e with d <= c and e any multiset with 1 <= |e| <= n - |c|
        and |d| + |e| >= n - t_a: the configurations that keep d on I's
        parties and add e on |e| parties outside I.
    Only a d with |d| >= min(n - t_s, |c| - t_a) adds one, so the walk
    removes at most |c| - min(n - t_s, |c| - t_a) values from c; the AND over
    the extensions of d is memoized per (d, n - |c|). Multisets are count
    vectors, and V runs once per orbit, on its representative. The mask is 0
    where some V raises ConfigError, so that the caller's pair scan meets the
    error at its own point. This enumerates the orbits directly and shares no
    code with `_Walk`.
    """
    n, m = params.n, len(domain.input_values)
    vectors = {  # size -> the count vectors of that size
        size: [tuple(e.count(i) for i in range(m))
               for e in itertools.combinations_with_replacement(range(m), size)]
        for size in range(params.t_s + 1)
    }

    @functools.cache
    def own(counts: tuple) -> int:
        orbit = tuple(i for i, count in enumerate(counts) for _ in range(count))
        return evaluate(_representative(domain, orbit))

    @functools.cache
    def extended(d: tuple, room: int) -> int:
        """The AND of V over d + e for every e that fits in `room` parties."""
        result = _EVERY_OUTPUT
        for extra in range(max(1, n - params.t_a - sum(d)), room + 1):
            for e in vectors[extra]:
                result &= own(tuple(map(operator.add, d, e)))
        return result

    def orbit_mask(orbit: tuple) -> int:
        counts = tuple(map(orbit.count, range(m)))
        removable = len(orbit) - min(params.min_config_size, len(orbit) - params.t_a)
        result = _EVERY_OUTPUT
        try:
            for removed in range(removable + 1):
                for r in vectors[removed]:
                    d = tuple(map(operator.sub, counts, r))
                    if min(d) < 0:
                        continue
                    if removed <= len(orbit) - params.min_config_size:
                        result &= own(d)
                    result &= extended(d, n - len(orbit))  # n - |c| parties outside I
                    if not result:
                        return 0
        except ConfigError:
            return 0
        return result

    return orbit_mask


def _orbit_codes(n: int, m: int, size: int) -> tuple[list, dict]:
    """Orbits of `size` values out of m, keyed by an additive code, the
    orbit's count vector read in base n + 1: the code of each assignment in
    `itertools.product` order, and {code: orbit as sorted value indices}."""
    weights = [(n + 1) ** i for i in range(m)]
    orbits = {sum(map(weights.__getitem__, orbit)): orbit
              for orbit in itertools.combinations_with_replacement(range(m), size)}
    return list(map(sum, itertools.product(weights, repeat=size))), orbits


def _encodings(parties: tuple, values: tuple) -> Iterator[str]:
    """`InputConfiguration.encode()` of every assignment of `values` to
    `parties`, in `itertools.product` order, joined from per-party pieces."""
    *head, last = parties
    return map("".join, itertools.product(*([f"p{p}={v};" for v in values] for p in head),
                                          [f"p{last}={v}" for v in values]))


@dataclass(frozen=True)
class CertificateOutcome:
    """Either a certificate or the first configuration with an empty
    similar-intersection, in canonical order."""

    certificate: Optional[SimilarityCertificate]
    witness: Optional[InputConfiguration]

    @property
    def feasible(self) -> bool:
        return self.certificate is not None


def _representative(domain: Domain, orbit: tuple) -> InputConfiguration:
    """The orbit's member on parties 0..k-1 with values in ascending order."""
    return InputConfiguration(tuple((p, domain.input_values[i]) for p, i in enumerate(orbit)))


_EVERY_OUTPUT = -1  # the mask with every bit set


class _Walk:
    """The AND of V over similar(I), as an output mask, for every key I of
    the key space `validity` is solved on, evaluating V at most once per key.

    An anonymous property is solved on orbits. An orbit is a configuration
    size k in [n - t_s, n] with a multiset of input values. It is keyed by
    its sorted assignment, the value indices in ascending order, which is
    also the assignment of its representative on parties 0..k-1. A smaller
    orbit drops one value and a larger one adds any value.

    Any other property is solved on configurations, keyed by their
    `InputConfiguration.assignments`. A smaller configuration drops one
    party; the larger ones give the first absent party each input value,
    since every full-size configuration above I extends one of them. Every
    key holds the same (party, value) pair objects, so that comparing keys
    in the memos compares pairs by identity.

    similar(I) holds the sub-configurations of I of size >= n - t_s and
    every configuration of size >= n - t_a that agrees with I where both are
    present; each of the latter lies below a full-size G above I. So the
    mask is the AND of
      (a) the closure C(I) = V(I) & AND C(smaller(I)), down to size n - t_s;
      (b) the AND, over the full-size G above I, of the same closure taken
          down to size n - t_a.
    Both parts recurse through methods on demand and memoize in plain dicts,
    so a caller pays only for the keys it asks about, and a walk that is
    dropped is freed by reference counting.
    """

    def __init__(self, validity: ValidityProperty, params: SystemParams, domain: Domain):
        self.params, self.domain, self.anonymous = params, domain, validity.anonymous
        self.evaluate = _output_masks(validity, params, domain)
        self.pairs = [[(p, value) for value in domain.input_values] for p in range(params.n)]
        self.owns: dict = {}  # key -> V(key)
        self.closures_s: dict = {}  # key -> C(key) down to size n - t_s
        self.closures_a = self.closures_s if params.t_a == params.t_s else {}  # to n - t_a
        self.aboves: dict = {}  # key -> part (b)

    def keys(self) -> Iterator[tuple]:
        """Orbits by size, each size in lexicographic order; configurations
        in canonical order (see `enumerate_input_configs`)."""
        params, m = self.params, len(self.domain.input_values)
        for size in range(params.min_config_size, params.n + 1):
            if self.anonymous:
                yield from itertools.combinations_with_replacement(range(m), size)
                continue
            for subset in itertools.combinations(range(params.n), size):
                yield from itertools.product(*map(self.pairs.__getitem__, subset))

    def config_of(self, key: tuple) -> InputConfiguration:
        return _representative(self.domain, key) if self.anonymous else InputConfiguration(key)

    def own(self, key: tuple) -> int:
        mask = self.owns.get(key)
        if mask is None:
            mask = self.owns[key] = self.evaluate(self.config_of(key))
        return mask

    def smaller(self, key: tuple) -> Iterable[tuple]:
        if self.anonymous:
            return [key[:j] + key[j + 1:] for j, i in enumerate(key) if not j or key[j - 1] != i]
        return itertools.combinations(key, len(key) - 1)

    def larger(self, key: tuple) -> list[tuple]:
        if self.anonymous:
            return [key[:j] + (i,) + key[j:]
                    for i in range(len(self.domain.input_values)) for j in (bisect.bisect(key, i),)]
        q = next((q for q, (p, _) in enumerate(key) if p != q), len(key))  # first absent party
        return [key[:q] + (pair,) + key[q:] for pair in self.pairs[q]]

    def closure(self, key: tuple, floor: int, memo: dict) -> int:
        mask = memo.get(key)
        if mask is None:
            mask = self.own(key)
            if len(key) > floor:
                for sub in self.smaller(key):
                    if not mask:
                        break
                    mask &= self.closure(sub, floor, memo)
            memo[key] = mask
        return mask

    def above(self, key: tuple) -> int:
        mask = self.aboves.get(key)
        if mask is None:
            params = self.params
            if len(key) == params.n:
                mask = self.closure(key, params.n - params.t_a, self.closures_a)
            else:
                mask = _EVERY_OUTPUT
                for bigger in self.larger(key):
                    if not mask:
                        break
                    mask &= self.above(bigger)
            self.aboves[key] = mask
        return mask

    def intersection(self, key: tuple) -> int:
        mask = self.closure(key, self.params.min_config_size, self.closures_s)
        return mask and mask & self.above(key)


def similarity_pass(
    validity: ValidityProperty,
    params: SystemParams,
    domain: Domain,
    budget: Optional[Budget] = None,
) -> Iterator[tuple[Iterable[str], list, list]]:
    """Yields blocks (encodings, choices, owns) that cover every
    configuration I once, in canonical order: for each I its encoding (a
    block's encodings are an iterable read once), `choice`, the smallest
    output valid under every configuration in similar(I), and `own`, the
    smallest valid under I itself; None when there is no such output. The
    budget is charged the configuration count.

    Both come from `_Walk`. For an anonymous property its
    keys are orbits, so V runs once per orbit, and a block is a party set:
    each size reads one (choice, own) pair per orbit, and from it, by the
    orbit code of each assignment (`_orbit_codes`), one list of each in
    product order, which every party set of that size shares; no
    `InputConfiguration` is built per row. Otherwise its keys are the
    configurations themselves, one per block, walked lazily: the pass
    computes only what the configurations it has yielded need, and V runs at
    most once per configuration.
    """
    budget = budget or Budget()
    budget.check_configs(count_input_configs(params, domain))
    walk = _Walk(validity, params, domain)
    lowest = functools.partial(_lowest_output, domain)
    if not validity.anonymous:
        for key in walk.keys():
            yield ((walk.config_of(key).encode(),), [lowest(walk.intersection(key))],
                   [lowest(walk.own(key))])
        return
    values = domain.input_values
    for size in range(params.min_config_size, params.n + 1):
        codes, orbits = _orbit_codes(params.n, len(values), size)
        labels = {code: (lowest(walk.intersection(orbit)), lowest(walk.own(orbit)))
                  for code, orbit in orbits.items()}
        choices, owns = map(list, zip(*map(labels.__getitem__, codes)))
        for parties in itertools.combinations(range(params.n), size):
            yield _encodings(parties, values), choices, owns


def compute_similarity_certificate(
    validity: ValidityProperty,
    params: SystemParams,
    domain: Domain,
    budget: Optional[Budget] = None,
) -> CertificateOutcome:
    """The certificate choosing, for every configuration, the smallest output
    valid under all of its similar configurations, a block of rows at a time;
    or the first configuration in canonical order where no output is."""
    sigma: dict[str, str] = {}
    for encodings, choices, _owns in similarity_pass(validity, params, domain, budget):
        if None in choices:
            encoded = next(itertools.islice(encodings, choices.index(None), None))
            return CertificateOutcome(certificate=None, witness=InputConfiguration.decode(encoded))
        sigma.update(zip(encodings, choices))
    return CertificateOutcome(
        certificate=SimilarityCertificate(params=params, domain=domain, sigma=sigma),
        witness=None,
    )


@dataclass(frozen=True)
class SolvabilityVerdict:
    solvable: bool
    reason: str
    witness: Optional[InputConfiguration] = None
    trivial_value: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"solvable": self.solvable, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.encode()
        if self.trivial_value is not None:
            out["trivial_value"] = self.trivial_value
        return out


def is_solvable(
    validity: ValidityProperty,
    params: SystemParams,
    domain: Domain,
    budget: Optional[Budget] = None,
) -> SolvabilityVerdict:
    """Decides solvability: trivial properties always solve; otherwise the
    resilience bound on n and the similarity condition must both hold.

    An anonymous property is decided on orbits, and the budget is charged
    the orbit count; any other property on configurations, charged the
    configuration count. Keys are walked in order twice, and V runs at most
    once per key: first the AND of V until it is empty (triviality), then
    the walk's intersection up to the first empty key. Orbits come by size,
    then as sorted assignments in lexicographic order, and every orbit has
    its sorted member on parties 0..k-1; so the representative of the first
    failing orbit is the first failing configuration in canonical order."""
    budget = budget or Budget()
    if validity.anonymous:
        budget.check_configs(count_orbits(params, domain), "orbits")
    else:
        budget.check_configs(count_input_configs(params, domain))
    walk = _Walk(validity, params, domain)
    common = _EVERY_OUTPUT
    for key in walk.keys():
        common &= walk.own(key)
        if not common:
            break
    if common:
        return SolvabilityVerdict(
            solvable=True, reason=TRIVIAL, trivial_value=_lowest_output(domain, common)
        )
    if not params.n_bound_holds():
        return SolvabilityVerdict(solvable=False, reason=N_TOO_SMALL)
    failing = next((key for key in walk.keys() if not walk.intersection(key)), None)
    if failing is None:
        return SolvabilityVerdict(solvable=True, reason=SIMILARITY_AND_N_OK)
    return SolvabilityVerdict(solvable=False, reason=SIMILARITY_FAILS,
                              witness=walk.config_of(failing))
