"""Named validity properties over finite domains.

Catalog entries are addressable by CLI name: `strong`, `weak`, `it-strong`,
`interval:<lo>:<hi>`, `clique:<omega>`. Custom properties load from a JSON
table keyed by encoded configuration, with an explicit default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Domain, InputConfiguration, SystemParams, ValidityProperty
from .errors import ConfigError, DomainMismatchError

BOT = "⊥"

CLIQUE_VERTEX_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _unanimous_value(config: InputConfiguration):
    values = {v for _, v in config.assignments}
    if len(values) == 1:
        return next(iter(values))
    return None


def strong_validity() -> ValidityProperty:
    """If all honest parties hold the same value, that value must be decided."""

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if not set(domain.input_values) <= set(domain.output_values):
            raise DomainMismatchError("strong validity needs output domain ⊇ input domain")
        v = _unanimous_value(config)
        if v is not None:
            return frozenset({v})
        return frozenset(domain.output_values)

    return ValidityProperty(name="strong", evaluate=evaluate, anonymous=True)


def weak_validity() -> ValidityProperty:
    """Constrains only runs where every party is honest and unanimous."""

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if not set(domain.input_values) <= set(domain.output_values):
            raise DomainMismatchError("weak validity needs output domain ⊇ input domain")
        if len(config) == params.n:
            v = _unanimous_value(config)
            if v is not None:
                return frozenset({v})
        return frozenset(domain.output_values)

    return ValidityProperty(name="weak", evaluate=evaluate, anonymous=True)


def intrusion_tolerant_strong() -> ValidityProperty:
    """Strong validity plus intrusion tolerance: decide an honest input or ⊥."""

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if set(domain.output_values) != set(domain.input_values) | {BOT}:
            raise DomainMismatchError("it-strong needs output domain = input domain ∪ {⊥}")
        v = _unanimous_value(config)
        if v is not None:
            return frozenset({v})
        present = {val for _, val in config.assignments}
        return frozenset(present | {BOT})

    return ValidityProperty(name="it-strong", evaluate=evaluate, anonymous=True)


@dataclass(frozen=True)
class IntervalDomainSpec:
    """Totally ordered integer domain [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(f"interval bounds reversed: [{self.lo}, {self.hi}]")

    def domain(self) -> Domain:
        vals = tuple(str(i) for i in range(self.lo, self.hi + 1))
        return Domain(vals, vals)


def interval_hull(spec: IntervalDomainSpec) -> ValidityProperty:
    """Decide within the range spanned by the honest inputs."""

    expected = spec.domain()

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if domain != expected:
            raise DomainMismatchError(f"interval domain must be [{spec.lo}..{spec.hi}]")
        present = [int(v) for _, v in config.assignments]
        lo, hi = min(present), max(present)
        return frozenset(str(i) for i in range(lo, hi + 1))

    return ValidityProperty(
        name=f"interval:{spec.lo}:{spec.hi}", evaluate=evaluate, anonymous=True
    )


@dataclass(frozen=True)
class CliqueHullSpec:
    """Vertices of the complete graph K_omega as both input and output domain."""

    omega: int

    def __post_init__(self):
        if self.omega < 2:
            raise ConfigError(f"clique size must be >= 2, got {self.omega}")
        if self.omega > len(CLIQUE_VERTEX_LABELS):
            raise ConfigError(f"clique size {self.omega} too large")

    def domain(self) -> Domain:
        vals = tuple(CLIQUE_VERTEX_LABELS[: self.omega])
        return Domain(vals, vals)


def clique_hull(spec: CliqueHullSpec) -> ValidityProperty:
    """Monophonic hull of the honest inputs in a complete graph.

    Every induced path in K_omega is a single edge, so the hull of a vertex
    set is the set itself.
    """

    expected = spec.domain()

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if domain != expected:
            raise DomainMismatchError(f"clique domain must be K_{spec.omega} vertices")
        return frozenset(v for _, v in config.assignments)

    return ValidityProperty(name=f"clique:{spec.omega}", evaluate=evaluate, anonymous=True)


def table_property(
    name: str, table: dict[str, list], default: list, canonicalize: bool = True
) -> ValidityProperty:
    """Property defined by an explicit {encoded-config: values} table with a
    default for unlisted configurations."""

    if canonicalize:
        table = {InputConfiguration.decode(k).encode(): list(v) for k, v in table.items()}
    default_vals = frozenset(default)

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        listed = table.get(config.encode())
        if listed is None:
            return default_vals
        return frozenset(listed)

    return ValidityProperty(name=name, evaluate=evaluate)


def _labels(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of strings, got {value!r}")
    return value


def load_table_property(path: str, params: SystemParams) -> tuple[ValidityProperty, Domain]:
    """Loads {name?, domain, default, table} from a JSON file: `domain` holds
    the input_values and output_values label lists, `default` and each table
    value are label lists, and each table key encodes a configuration that
    can occur under `params` (n - t_s or more of the parties 0..n-1, each
    holding an input value) and that no other key names. Anything else raises
    ConfigError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"custom validity file must be a JSON object, got {data!r}")
    for key in ("domain", "default", "table"):
        if key not in data:
            raise ConfigError(f"custom validity file missing {key!r}")
    name, domain, table = data.get("name", "custom"), data["domain"], data["table"]
    if not isinstance(name, str):
        raise ConfigError(f"custom validity name must be a string, got {name!r}")
    for key, value in (("domain", domain), ("table", table)):
        if not isinstance(value, dict):
            raise ConfigError(f"custom validity {key} must be a JSON object, got {value!r}")
    domain = Domain(*(
        tuple(_labels(domain.get(side), f"domain {side}"))
        for side in ("input_values", "output_values")
    ))
    n, least = params.n, params.n - params.t_s
    canonical: dict[str, list] = {}
    for key, values in table.items():
        config = InputConfiguration.decode(key)
        if len(config) < least:
            raise ConfigError(f"table key {key!r} names fewer than n - t_s = {least} parties")
        for party, value in config.assignments:
            if party >= n:
                raise ConfigError(f"table key {key!r} names party {party}, outside 0..{n - 1}")
            if value not in domain.input_values:
                raise ConfigError(f"table key {key!r} holds {value!r}, outside the input domain")
        if config.encode() in canonical:
            raise ConfigError(f"table key {key!r} names a configuration another key names")
        canonical[config.encode()] = _labels(values, f"table entry {key!r}")
    default = _labels(data["default"], "default")
    return table_property(name, canonical, default, canonicalize=False), domain


def _name_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer in {name!r}, got {text!r}") from None


def resolve(name: str, values: int = 2) -> tuple[ValidityProperty, Domain]:
    """Maps a catalog name to (property, its default domain).

    `values` sizes the domain for strong/weak/it-strong; interval and clique
    carry their own domains.
    """
    if name == "strong":
        return strong_validity(), Domain.labels(values)
    if name == "weak":
        return weak_validity(), Domain.labels(values)
    if name == "it-strong":
        inputs = tuple(str(i) for i in range(values))
        return intrusion_tolerant_strong(), Domain(inputs, inputs + (BOT,))
    if name.startswith("interval:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected interval:<lo>:<hi>, got {name!r}")
        spec = IntervalDomainSpec(_name_int(parts[1], name), _name_int(parts[2], name))
        return interval_hull(spec), spec.domain()
    if name.startswith("clique:"):
        parts = name.split(":")
        if len(parts) != 2:
            raise ConfigError(f"expected clique:<omega>, got {name!r}")
        spec = CliqueHullSpec(_name_int(parts[1], name))
        return clique_hull(spec), spec.domain()
    raise ConfigError(f"unknown validity name {name!r}")
