"""Checker combinatorics against brute-force oracles."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aba.catalog import clique_hull, strong_validity, table_property, weak_validity
from aba.core import (
    Budget,
    Domain,
    InputConfiguration,
    InputConfiguration as IC,
    N_TOO_SMALL,
    SIMILARITY_AND_N_OK,
    SIMILARITY_FAILS,
    SimilarityCertificate,
    SystemParams,
    TRIVIAL,
    ValidityProperty,
    _output_masks,
    compute_similarity_certificate,
    count_input_configs,
    enumerate_input_configs,
    is_similar_to,
    is_solvable,
    is_trivial,
    similar,
)
from aba.errors import BudgetExceededError, ConfigError


BINARY = Domain.labels(2)


def cfg(*pairs):
    return IC.of(pairs)


# ---------------------------------------------------------------- oracles


def oracle_all_configs(params, domain):
    """Independent enumeration: subsets via bitmask filters, assignments via product."""
    out = []
    for size in range(params.n - params.t_s, params.n + 1):
        for subset in itertools.combinations(range(params.n), size):
            for values in itertools.product(domain.input_values, repeat=size):
                out.append(IC.of(zip(subset, values)))
    return out


def _sub_configs(config, params):
    pairs = config.assignments
    for size in range(params.min_config_size, len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            yield IC(subset)


def monotone_closure(validity):
    """Intersection of the property over all sub-configurations; antitone."""

    def evaluate(params, domain, config):
        result = None
        for sub in _sub_configs(config, params):
            vals = frozenset(validity.evaluate(params, domain, sub))
            result = vals if result is None else result & vals
            if not result:
                break
        return result if result is not None else frozenset()

    return ValidityProperty(name=f"closure({validity.name})", evaluate=evaluate)


def is_trivial_maximal(validity, params, domain, budget=None):
    """Triviality restricted to maximal configurations (all parties present)."""
    budget = budget or Budget()
    budget.check_configs(len(domain.input_values) ** params.n)
    evaluate = _output_masks(validity, params, domain)
    common = (1 << len(domain.output_values)) - 1
    parties = tuple(range(params.n))
    for assignment in itertools.product(domain.input_values, repeat=params.n):
        common &= evaluate(IC(tuple(zip(parties, assignment))))
        if not common:
            return False
    return True


def oracle_neighbors(config, params, domain):
    base = config.as_dict()
    result = []
    for other in oracle_all_configs(params, domain):
        if all(base.get(p, v) == v for p, v in other.assignments):
            result.append(other)
    return result


def oracle_similar(config, params, domain):
    result = []
    for other in oracle_neighbors(config, params, domain):
        if other.is_subset_of(config) or len(other) >= params.n - params.t_a:
            result.append(other)
    return result


# ---------------------------------------------------------------- enumeration


def test_enumeration_count_n2():
    params = SystemParams(n=2, t_s=1, t_a=0)
    configs = list(enumerate_input_configs(params, BINARY))
    # 2 singleton party sets x 2 values, plus 2^2 full assignments
    assert len(configs) == 2 * 2 + 2**2 == 8
    assert count_input_configs(params, BINARY) == 8
    # singletons first (ascending subset size)
    assert [len(c) for c in configs] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert configs[0] == cfg((0, "0"))
    assert configs[1] == cfg((0, "1"))


def test_enumeration_singleton():
    params = SystemParams(n=1, t_s=0, t_a=0)
    domain = Domain(("0",), ("0",))
    assert list(enumerate_input_configs(params, domain)) == [cfg((0, "0"))]


def test_enumeration_count_n4():
    params = SystemParams(n=4, t_s=1, t_a=1)
    configs = list(enumerate_input_configs(params, BINARY))
    assert len(configs) == math.comb(4, 3) * 2**3 + 2**4 == 48


def test_enumeration_matches_oracle_and_is_deterministic():
    for n, t_s in [(2, 1), (3, 1), (4, 2)]:
        params = SystemParams(n=n, t_s=t_s, t_a=0)
        first = list(enumerate_input_configs(params, BINARY))
        second = list(enumerate_input_configs(params, BINARY))
        assert first == second
        assert sorted(c.assignments for c in first) == sorted(
            c.assignments for c in oracle_all_configs(params, BINARY)
        )


def test_enumeration_budget_exceeded():
    params = SystemParams(n=4, t_s=1, t_a=1)
    with pytest.raises(BudgetExceededError):
        list(enumerate_input_configs(params, BINARY, Budget(max_configs=10)))


# ---------------------------------------------------------------- similar


def test_similar_examples():
    params = SystemParams(n=3, t_s=1, t_a=1)
    base = cfg((0, "0"), (1, "0"))
    got = similar(base, params, BINARY)
    assert set(got) == set(oracle_neighbors(base, params, BINARY))
    assert len(got) == 7

    params0 = SystemParams(n=3, t_s=1, t_a=0)
    got0 = set(similar(base, params0, BINARY))
    assert got0 == {
        base,
        cfg((0, "0"), (1, "0"), (2, "0")),
        cfg((0, "0"), (1, "0"), (2, "1")),
    }


def test_similar_equals_neighbors_when_ta_equals_ts():
    params = SystemParams(n=4, t_s=1, t_a=1)
    for base in [cfg((0, "0"), (1, "1"), (2, "0")), cfg((0, "1"), (1, "1"), (2, "1"), (3, "0"))]:
        assert set(similar(base, params, BINARY)) == set(oracle_neighbors(base, params, BINARY))


def test_similar_matches_oracle():
    for n, t_s, t_a in [(3, 1, 0), (3, 1, 1), (4, 2, 1), (4, 2, 2)]:
        params = SystemParams(n=n, t_s=t_s, t_a=t_a)
        for base in oracle_all_configs(params, BINARY):
            got = similar(base, params, BINARY)
            want = oracle_similar(base, params, BINARY)
            assert sorted(c.assignments for c in got) == sorted(c.assignments for c in want)
            assert base in got
            for other in got:
                assert is_similar_to(base, other, params)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    data=st.data(),
)
def test_is_similar_predicate_agrees_with_enumeration(n, data):
    t_s = data.draw(st.integers(1, n - 1))
    t_a = data.draw(st.integers(0, t_s))
    params = SystemParams(n=n, t_s=t_s, t_a=t_a)
    configs = oracle_all_configs(params, BINARY)
    base = data.draw(st.sampled_from(configs))
    other = data.draw(st.sampled_from(configs))
    assert is_similar_to(base, other, params) == (
        other in set(similar(base, params, BINARY))
    )


def test_a_configuration_below_n_minus_ts_is_similar_to_nothing():
    # a sub-configuration that agrees with base, but holds fewer than n - t_s
    # parties, so it stands for no honest set
    params = SystemParams(n=4, t_s=1, t_a=1)
    base = cfg((0, "0"), (1, "1"), (2, "0"))
    assert is_similar_to(base, cfg((0, "0"), (1, "1"), (2, "0")), params)
    assert not is_similar_to(base, cfg((0, "0"), (1, "1")), params)
    assert not is_similar_to(base, cfg((0, "0"),), params)


# ---------------------------------------------------------------- closure / triviality


def constant_property(domain):
    return ValidityProperty(
        name="const", evaluate=lambda p, d, c: frozenset(domain.output_values)
    )


def test_closure_refines_strong():
    # closure(strong)(I) intersects strong over all sub-configurations, so a
    # unanimous sub-configuration of size >= n - t_s pins the value even when
    # I itself is mixed.
    params = SystemParams(n=3, t_s=1, t_a=1)
    strong = strong_validity()
    closed = monotone_closure(strong)
    for config in oracle_all_configs(params, BINARY):
        closed_vals = closed.evaluate(params, BINARY, config)
        assert closed_vals <= strong.evaluate(params, BINARY, config)
        values = [v for _, v in config.assignments]
        if len(set(values)) == 1:
            assert closed_vals == frozenset(set(values))
    mixed = cfg((0, "0"), (1, "0"), (2, "1"))
    assert closed.evaluate(params, BINARY, mixed) == frozenset({"0"})
    balanced = cfg((0, "0"), (1, "1"))
    assert closed.evaluate(params, BINARY, balanced) == frozenset({"0", "1"})


def test_closure_of_constant_is_constant():
    params = SystemParams(n=3, t_s=1, t_a=0)
    const = constant_property(BINARY)
    closed = monotone_closure(const)
    for config in oracle_all_configs(params, BINARY):
        assert closed.evaluate(params, BINARY, config) == frozenset(BINARY.output_values)


def test_closure_of_weak_on_maximal_unanimous():
    params = SystemParams(n=3, t_s=1, t_a=0)
    closed = monotone_closure(weak_validity())
    maximal_zero = cfg((0, "0"), (1, "0"), (2, "0"))
    assert closed.evaluate(params, BINARY, maximal_zero) == frozenset({"0"})
    # strict sub-configurations are unconstrained by weak validity
    assert closed.evaluate(params, BINARY, cfg((0, "0"), (1, "0"))) == frozenset({"0", "1"})


def test_closure_antitone():
    params = SystemParams(n=4, t_s=2, t_a=0)
    closed = monotone_closure(strong_validity())
    configs = oracle_all_configs(params, BINARY)
    for big in configs:
        value_big = closed.evaluate(params, BINARY, big)
        for small in configs:
            if small.is_subset_of(big):
                assert value_big <= closed.evaluate(params, BINARY, small)


def test_is_trivial():
    params = SystemParams(n=3, t_s=1, t_a=1)
    assert is_trivial(constant_property(BINARY), params, BINARY) == (True, "0")
    assert is_trivial(strong_validity(), params, BINARY) == (False, None)
    assert is_trivial(weak_validity(), params, BINARY) == (False, None)


def test_is_trivial_maximal():
    params = SystemParams(n=3, t_s=1, t_a=1)
    assert is_trivial_maximal(constant_property(BINARY), params, BINARY)
    assert not is_trivial_maximal(strong_validity(), params, BINARY)

    # output 0 unless all n parties are present and unanimously 1
    def all_one(p, d, c):
        if len(c) == p.n and all(v == "1" for _, v in c.assignments):
            return frozenset({"1"})
        return frozenset({"0"})

    prop = ValidityProperty(name="all-one", evaluate=all_one)
    assert not is_trivial_maximal(prop, params, BINARY)
    assert is_trivial(prop, params, BINARY)[0] is False


def test_trivial_implies_trivial_maximal():
    grid = [(2, 1, 0), (3, 1, 1), (4, 2, 1)]
    props = [constant_property(BINARY), strong_validity(), weak_validity()]
    for n, t_s, t_a in grid:
        params = SystemParams(n=n, t_s=t_s, t_a=t_a)
        for prop in props:
            if is_trivial(prop, params, BINARY)[0]:
                assert is_trivial_maximal(prop, params, BINARY)


# ---------------------------------------------------------------- certificates


def test_certificate_strong_forces_unanimous_value():
    params = SystemParams(n=4, t_s=1, t_a=1)
    outcome = compute_similarity_certificate(strong_validity(), params, BINARY)
    assert outcome.feasible
    all_zero = cfg((0, "0"), (1, "0"), (2, "0"), (3, "0"))
    assert outcome.certificate.lookup(all_zero) == "0"
    all_one = cfg((0, "1"), (1, "1"), (2, "1"), (3, "1"))
    assert outcome.certificate.lookup(all_one) == "1"


def test_certificate_clique_k3_n6_infeasible():
    prop, domain = clique_hull(3)
    params = SystemParams(n=6, t_s=2, t_a=0)
    outcome = compute_similarity_certificate(prop, params, domain)
    assert not outcome.feasible
    witness = outcome.witness
    # the witness has an empty intersection over its similar set
    common = None
    for other in similar(witness, params, domain):
        vals = prop.evaluate(params, domain, other)
        common = vals if common is None else common & vals
    assert common == frozenset()


def test_certificate_clique_k3_n7_feasible_and_sound():
    prop, domain = clique_hull(3)
    params = SystemParams(n=7, t_s=2, t_a=0)
    outcome = compute_similarity_certificate(prop, params, domain)
    assert outcome.feasible
    ok, detail = outcome.certificate.validate(prop)
    assert ok, detail


def test_certificate_soundness_validator_catches_bad_entry():
    params = SystemParams(n=3, t_s=1, t_a=0)
    outcome = compute_similarity_certificate(strong_validity(), params, BINARY)
    cert = outcome.certificate
    bad_sigma = dict(cert.sigma)
    all_zero = cfg((0, "0"), (1, "0"), (2, "0"))
    bad_sigma[all_zero.encode()] = "1"
    bad = SimilarityCertificate(params=params, domain=BINARY, sigma=bad_sigma)
    ok, detail = bad.validate(strong_validity())
    assert not ok
    assert "invalid" in detail


def test_certificate_serialization_roundtrip_and_determinism():
    params = SystemParams(n=3, t_s=1, t_a=0)
    first = compute_similarity_certificate(strong_validity(), params, BINARY)
    second = compute_similarity_certificate(strong_validity(), params, BINARY)
    assert first.certificate.to_json().encode() == second.certificate.to_json().encode()
    reloaded = SimilarityCertificate.from_json(first.certificate.to_json())
    assert reloaded == first.certificate


def test_certificate_feasibility_under_closure():
    # closure(V) <= V pointwise, so closure feasibility implies direct
    # feasibility; the converse holds when t_a == t_s (then every
    # sub-configuration of a similar configuration is itself similar).
    clique, k3 = clique_hull(3)
    cases = [
        (strong_validity(), BINARY, SystemParams(n=4, t_s=1, t_a=1)),
        (weak_validity(), BINARY, SystemParams(n=4, t_s=1, t_a=0)),
        (strong_validity(), BINARY, SystemParams(n=3, t_s=1, t_a=1)),
        (strong_validity(), BINARY, SystemParams(n=4, t_s=2, t_a=2)),
        (clique, k3, SystemParams(n=6, t_s=2, t_a=0)),
        (clique, k3, SystemParams(n=7, t_s=2, t_a=2)),
    ]
    for prop, domain, params in cases:
        direct = compute_similarity_certificate(prop, params, domain).feasible
        closed = compute_similarity_certificate(monotone_closure(prop), params, domain).feasible
        if closed:
            assert direct
        if params.t_a == params.t_s:
            assert direct == closed


def test_certificate_closure_divergence_when_ta_below_ts():
    # With t_a < t_s the closure can fail while the property itself passes:
    # a maximal similar configuration J of a mixed I contains unanimous
    # sub-configurations that only a synchronous adversary could realize.
    params = SystemParams(n=3, t_s=1, t_a=0)
    assert compute_similarity_certificate(strong_validity(), params, BINARY).feasible
    closed = compute_similarity_certificate(monotone_closure(strong_validity()), params, BINARY)
    assert not closed.feasible
    assert closed.witness == cfg((0, "0"), (1, "1"))


# ---------------------------------------------------------------- solvability


def test_solvable_strong_pki():
    verdict = is_solvable(strong_validity(), SystemParams(4, 1, 1, "PKI"), BINARY)
    assert verdict.solvable and verdict.reason == SIMILARITY_AND_N_OK


def test_n_bound_implies_quorum_intersection():
    # the protocols rely on two (n - t_s) quorums sharing >= t_a + 1 parties
    for n in range(1, 13):
        for t_s in range(n):
            for t_a in range(t_s + 1):
                for setup in ("PKI", "NONE"):
                    params = SystemParams(n, t_s, t_a, setup)
                    if params.n_bound_holds():
                        assert n - 2 * t_s >= t_a + 1, params


def test_unsolvable_weak_n_too_small():
    verdict = is_solvable(weak_validity(), SystemParams(4, 2, 0, "PKI"), BINARY)
    assert not verdict.solvable
    assert verdict.reason == N_TOO_SMALL
    assert verdict.witness is None


def test_strong_n3_pki_unsolvable():
    verdict = is_solvable(strong_validity(), SystemParams(3, 1, 1, "PKI"), BINARY)
    assert not verdict.solvable and verdict.reason == N_TOO_SMALL


def test_trivial_solvable_at_any_params():
    for params in [SystemParams(2, 1, 1), SystemParams(4, 3, 3), SystemParams(3, 2, 2, "NONE")]:
        verdict = is_solvable(constant_property(BINARY), params, BINARY)
        assert verdict.solvable and verdict.reason == TRIVIAL
        assert verdict.trivial_value == "0"


def test_clique_k3_n6_similarity_fails():
    prop, domain = clique_hull(3)
    verdict = is_solvable(prop, SystemParams(6, 2, 0, "PKI"), domain)
    assert not verdict.solvable
    assert verdict.reason == SIMILARITY_FAILS
    assert verdict.witness is not None


def test_encode_decode_roundtrip():
    config = cfg((0, "0"), (2, "1"))
    assert config.encode() == "p0=0;p2=1"
    assert InputConfiguration.decode(config.encode()) == config


@pytest.mark.parametrize("text", ["p0_1=0;p 2=1;p3=0", "p0=0;p01=1", "p0=0;p+1=1", "p0=0;p1 =1",
                                  "p=0", "p٣=0"])
def test_decode_reads_party_ids_in_canonical_decimal_only(text):
    # int() would read each party id it rejects
    with pytest.raises(ConfigError, match="bad party id"):
        InputConfiguration.decode(text)


def test_table_property_lookup():
    params = SystemParams(n=2, t_s=1, t_a=0)
    table = {"p0=0;p1=0": ["0"]}
    prop = table_property("custom", table, default=["0", "1"])
    assert prop.evaluate(params, BINARY, cfg((0, "0"), (1, "0"))) == frozenset({"0"})
    assert prop.evaluate(params, BINARY, cfg((0, "1"))) == frozenset({"0", "1"})
