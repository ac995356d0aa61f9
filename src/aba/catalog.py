"""Named validity properties over finite domains.

`VALIDITIES` is the one registry of catalog names, keyed by usage string:
`strong`, `weak`, `it-strong`, `interval:<lo>:<hi>`, `clique:<omega>`;
`resolve` reads a name against it and the CLI's `--validity` help prints its
keys. Every builder returns (property, domain). Custom properties load from a
JSON table keyed by encoded configuration, with an explicit default.
"""

from __future__ import annotations

import json
from typing import Callable

from .core import Domain, InputConfiguration, SystemParams, ValidityProperty
from .core import read_integer, read_labels, read_object, read_string
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


def interval_hull(lo: int, hi: int) -> tuple[ValidityProperty, Domain]:
    """Decide within the range spanned by the honest inputs, over the totally
    ordered integer domain [lo, hi]."""
    if lo > hi:
        raise ConfigError(f"interval bounds reversed: [{lo}, {hi}]")
    vals = tuple(str(i) for i in range(lo, hi + 1))
    expected = Domain(vals, vals)

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if domain != expected:
            raise DomainMismatchError(f"interval domain must be [{lo}..{hi}]")
        try:
            present = [int(v) for _, v in config.assignments]
        except ValueError:
            raise DomainMismatchError(
                f"interval validity cannot read an input of {config.encode()} "
                f"as an integer in [{lo}..{hi}]") from None
        return frozenset(str(i) for i in range(min(present), max(present) + 1))

    return ValidityProperty(name=f"interval:{lo}:{hi}", evaluate=evaluate, anonymous=True), expected


def clique_hull(omega: int) -> tuple[ValidityProperty, Domain]:
    """Monophonic hull of the honest inputs in a complete graph, over the
    vertices of K_omega.

    Every induced path in K_omega is a single edge, so the hull of a vertex
    set is the set itself.
    """
    if omega < 2:
        raise ConfigError(f"clique size must be >= 2, got {omega}")
    if omega > len(CLIQUE_VERTEX_LABELS):
        raise ConfigError(f"clique size {omega} too large")
    vals = tuple(CLIQUE_VERTEX_LABELS[:omega])
    expected = Domain(vals, vals)

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        if domain != expected:
            raise DomainMismatchError(f"clique domain must be K_{omega} vertices")
        return frozenset(v for _, v in config.assignments)

    return ValidityProperty(name=f"clique:{omega}", evaluate=evaluate, anonymous=True), expected


def table_property(name: str, table: dict[str, list], default: list) -> ValidityProperty:
    """Property defined by an explicit {encoded-config: values} table with a
    default for unlisted configurations. Keys are canonical encodings, as
    `InputConfiguration.encode` writes them; `load_table_property` reads and
    checks them from a file."""
    default_vals = frozenset(default)

    def evaluate(params: SystemParams, domain: Domain, config: InputConfiguration) -> frozenset:
        listed = table.get(config.encode())
        if listed is None:
            return default_vals
        return frozenset(listed)

    return ValidityProperty(name=name, evaluate=evaluate)


def load_table_property(path: str, params: SystemParams) -> tuple[ValidityProperty, Domain]:
    """Loads {name?, domain, default, table} from a JSON file: `domain` holds
    the input_values and output_values label lists, `default` and each table
    value are label lists, and each table key encodes a configuration that
    can occur under `params` (n - t_s or more of the parties 0..n-1, each
    holding an input value) and that no other key names. Anything else raises
    ConfigError."""
    with open(path) as fh:
        data = read_object(json.load(fh), "custom validity file", "domain", "default", "table")
    name = read_string(data.get("name", "custom"), "custom validity name")
    where = "custom validity domain"
    domain = Domain.from_dict(read_object(data["domain"], where), where)
    table = read_object(data["table"], "custom validity table")
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
        canonical[config.encode()] = read_labels(values, f"table entry {key!r}")
    default = read_labels(data["default"], "default")
    return table_property(name, canonical, default), domain


def _it_strong(values: int) -> tuple[ValidityProperty, Domain]:
    inputs = tuple(str(i) for i in range(values))
    return intrusion_tolerant_strong(), Domain(inputs, inputs + (BOT,))


# The validity names, keyed by their usage strings. Each builder takes
# `values` (the domain size of strong/weak/it-strong) and the integers of
# the key's <slots>, and returns (property, its domain).
VALIDITIES: dict[str, Callable[..., tuple[ValidityProperty, Domain]]] = {
    "strong": lambda values: (strong_validity(), Domain.labels(values)),
    "weak": lambda values: (weak_validity(), Domain.labels(values)),
    "it-strong": _it_strong,
    "interval:<lo>:<hi>": lambda values, lo, hi: interval_hull(lo, hi),
    "clique:<omega>": lambda values, omega: clique_hull(omega),
}
_SLOTS = {"<lo>": "lower bound", "<hi>": "upper bound", "<omega>": "clique size"}


def resolve(name: str, values: int = 2) -> tuple[ValidityProperty, Domain]:
    """Maps a name to (property, its domain) through `VALIDITIES`. A key
    without slots matches only itself; a key with slots matches every name
    with its head (`clique`, `clique:x`), which must then hold one integer
    per slot. Anything else raises ConfigError."""
    head, *fields = name.split(":")
    for key, build in VALIDITIES.items():
        key_head, *slots = key.split(":")
        if key_head == head and (slots or not fields):
            if len(fields) != len(slots):
                raise ConfigError(f"expected {key}, got {name!r}")
            return build(values, *(read_integer(field, f"{_SLOTS[slot]} in {name!r}")
                                   for field, slot in zip(fields, slots)))
    raise ConfigError(f"unknown validity name {name!r}")
