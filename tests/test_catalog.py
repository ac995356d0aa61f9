"""Catalog property definitions against their stated semantics."""

import itertools

import pytest

from aba.catalog import (
    BOT,
    VALIDITIES,
    clique_hull,
    intrusion_tolerant_strong,
    interval_hull,
    resolve,
    strong_validity,
    table_property,
    weak_validity,
)
from aba.core import (
    Budget,
    Domain,
    InputConfiguration as IC,
    SystemParams,
    enumerate_input_configs,
    is_solvable,
)
from aba.errors import ConfigError, DomainMismatchError


BINARY = Domain.labels(2)


def cfg(*pairs):
    return IC.of(pairs)


def test_strong_validity_cases():
    params = SystemParams(n=3, t_s=1, t_a=1)
    prop = strong_validity()
    assert prop.evaluate(params, BINARY, cfg((0, "0"), (1, "0"))) == {"0"}
    assert prop.evaluate(params, BINARY, cfg((0, "0"), (1, "1"))) == {"0", "1"}
    singleton_params = SystemParams(n=2, t_s=1, t_a=0)
    assert prop.evaluate(singleton_params, BINARY, cfg((0, "1"))) == {"1"}


def test_strong_validity_domain_mismatch():
    params = SystemParams(n=2, t_s=1, t_a=0)
    bad = Domain(("0", "1"), ("0",))
    with pytest.raises(DomainMismatchError):
        strong_validity().evaluate(params, bad, cfg((0, "0")))


def test_weak_validity_cases():
    params = SystemParams(n=3, t_s=1, t_a=0)
    prop = weak_validity()
    assert prop.evaluate(params, BINARY, cfg((0, "1"), (1, "1"), (2, "1"))) == {"1"}
    assert prop.evaluate(params, BINARY, cfg((0, "1"), (1, "1"))) == {"0", "1"}
    assert prop.evaluate(params, BINARY, cfg((0, "1"), (1, "0"), (2, "1"))) == {"0", "1"}


def test_intrusion_tolerant_strong_cases():
    values = ("0", "1", "2")
    domain = Domain(values, values + (BOT,))
    params = SystemParams(n=3, t_s=1, t_a=0)
    prop = intrusion_tolerant_strong()
    assert prop.evaluate(params, domain, cfg((0, "0"), (1, "0"), (2, "0"))) == {"0"}
    assert prop.evaluate(params, domain, cfg((0, "0"), (1, "1"))) == {"0", "1", BOT}
    assert prop.evaluate(params, domain, cfg((0, "2"))) == {"2"}
    with pytest.raises(DomainMismatchError):
        prop.evaluate(params, Domain(values, values), cfg((0, "0")))


def test_interval_hull_cases():
    prop, domain = interval_hull(0, 9)
    params = SystemParams(n=2, t_s=1, t_a=0)
    assert prop.evaluate(params, domain, cfg((0, "2"), (1, "5"))) == {"2", "3", "4", "5"}
    assert prop.evaluate(params, domain, cfg((0, "7"), (1, "7"))) == {"7"}
    assert prop.evaluate(params, domain, cfg((0, "0"), (1, "9"))) == set(domain.output_values)
    with pytest.raises(ConfigError):
        interval_hull(5, 2)


def test_clique_hull_cases():
    prop, domain = clique_hull(3)
    params = SystemParams(n=3, t_s=1, t_a=0)
    assert prop.evaluate(params, domain, cfg((0, "a"), (1, "b"))) == {"a", "b"}
    assert prop.evaluate(params, domain, cfg((0, "a"), (1, "a"))) == {"a"}
    assert prop.evaluate(params, domain, cfg((0, "a"), (1, "b"), (2, "c"))) == {"a", "b", "c"}
    with pytest.raises(ConfigError):
        clique_hull(1)


# sample integers for the <slots> of the VALIDITIES keys
SAMPLES = {"<lo>": 0, "<hi>": 3, "<omega>": 3}


def sample_name(key):
    head, *slots = key.split(":")
    return ":".join([head] + [str(SAMPLES[slot]) for slot in slots])


def test_catalog_properties_never_empty():
    grid = [SystemParams(3, 1, 0), SystemParams(3, 1, 1), SystemParams(4, 2, 1)]
    for name in [sample_name(key) for key in VALIDITIES] + ["clique:2"]:
        prop, domain = resolve(name, 2)
        for params in grid:
            for config in enumerate_input_configs(params, domain, Budget()):
                assert prop.evaluate(params, domain, config), (name, params, config)


CATALOG = [("strong", 2), ("strong", 3), ("weak", 2), ("weak", 3), ("it-strong", 2),
           ("it-strong", 3), ("interval:0:3", 0), ("clique:2", 0), ("clique:3", 0)]


@pytest.mark.parametrize("name,values", CATALOG)
def test_anonymous_flag_holds(name, values):
    """The checker solves anonymous properties on orbits, which is sound only
    if V(I) = V(pi I) for every configuration I and party permutation pi."""
    prop, domain = resolve(name, values)
    assert prop.anonymous
    for n in range(1, 5):
        # t_s = n - 1 enumerates every configuration size
        for t_a, setup in itertools.product(range(n), ("PKI", "NONE")):
            params = SystemParams(n, n - 1, t_a, setup)
            for config in enumerate_input_configs(params, domain):
                allowed = prop.evaluate(params, domain, config)
                for pi in itertools.permutations(range(n)):
                    moved = IC.of((pi[p], v) for p, v in config.assignments)
                    assert prop.evaluate(params, domain, moved) == allowed, (params, config, pi)


def test_table_properties_are_not_anonymous():
    assert not table_property("t", {"p0=0": ["1"]}, ["0"]).anonymous


def test_resolve_rejects_unknown():
    with pytest.raises(ConfigError):
        resolve("unknown")


RESOLVED = [
    ("strong", 3, ("0", "1", "2"), ("0", "1", "2")),
    ("weak", 2, ("0", "1"), ("0", "1")),
    ("it-strong", 2, ("0", "1"), ("0", "1", BOT)),
    ("interval:-1:2", 2, ("-1", "0", "1", "2"), ("-1", "0", "1", "2")),
    ("clique:4", 5, ("a", "b", "c", "d"), ("a", "b", "c", "d")),
]


def test_resolved_cases_cover_the_registry():
    assert [key.split(":")[0] for key in VALIDITIES] == [name.split(":")[0] for name, *_ in RESOLVED]


@pytest.mark.parametrize("name, values, inputs, outputs", RESOLVED)
def test_resolve_builds_each_registry_entry(name, values, inputs, outputs):
    prop, domain = resolve(name, values)
    assert prop.name == name
    assert domain == Domain(inputs, outputs)


@pytest.mark.parametrize("name, message", [
    ("unknown", "unknown validity name 'unknown'"),
    ("", "unknown validity name ''"),
    ("strong:3", "unknown validity name 'strong:3'"),
    ("interval:1", "expected interval:<lo>:<hi>, got 'interval:1'"),
    ("interval:0:1:2", "expected interval:<lo>:<hi>, got 'interval:0:1:2'"),
    ("clique:3:4", "expected clique:<omega>, got 'clique:3:4'"),
    ("interval:a:3", "lower bound in 'interval:a:3' must be an integer, got 'a'"),
    ("interval:0:b", "upper bound in 'interval:0:b' must be an integer, got 'b'"),
    ("interval:x:y", "lower bound in 'interval:x:y' must be an integer, got 'x'"),
    ("clique:", "clique size in 'clique:' must be an integer, got ''"),
    ("interval:5:2", "interval bounds reversed: [5, 2]"),
    ("clique:1", "clique size must be >= 2, got 1"),
    ("clique:27", "clique size 27 too large"),
    # a bare head names the usage it lacks
    ("interval", "expected interval:<lo>:<hi>, got 'interval'"),
    ("clique", "expected clique:<omega>, got 'clique'"),
])
def test_resolve_error_messages(name, message):
    with pytest.raises(ConfigError) as raised:
        resolve(name)
    assert str(raised.value) == message


def test_clique_feasibility_matches_closed_form_small_grid():
    # spot-check the closed form n > max(w*t_s, w*t_a + t_s, 2*t_s + t_a)
    # (full grid is covered by the acceptance suite)
    for omega in (2, 3):
        prop, domain = clique_hull(omega)
        for n in range(3, 7):
            for t_s in (1, 2):
                if t_s > n - 1:
                    continue
                for t_a in range(0, t_s + 1):
                    params = SystemParams(n, t_s, t_a, "PKI")
                    expected = n > max(omega * t_s, omega * t_a + t_s, 2 * t_s + t_a)
                    verdict = is_solvable(prop, params, domain)
                    assert verdict.solvable == expected, (omega, params, verdict.reason)


def test_strong_weak_feasibility_matches_bound_small_grid():
    for name in ("strong", "weak"):
        prop, domain = resolve(name, 2)
        for n in range(2, 6):
            for t_s in (1, 2):
                if t_s > n - 1:
                    continue
                for t_a in range(0, t_s + 1):
                    pki = is_solvable(prop, SystemParams(n, t_s, t_a, "PKI"), domain)
                    assert pki.solvable == (n > 2 * t_s + t_a), (name, n, t_s, t_a)
                    plain = is_solvable(prop, SystemParams(n, t_s, t_a, "NONE"), domain)
                    assert plain.solvable == (n > 3 * t_s), (name, n, t_s, t_a)
