"""The single-pass certificate synthesis against the brute-force scan.

`oracle_certificate` and `oracle_best_effort` intersect V over `similar(I)`
for every configuration I, pair by pair; the pass must reproduce their
sigma JSON byte for byte, their witness and their best-effort tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aba.attacks import best_effort_certificate
from aba.catalog import resolve, table_property
from aba.core import (
    CertificateOutcome,
    Domain,
    SimilarityCertificate,
    SystemParams,
    ValidityProperty,
    compute_similarity_certificate,
    enumerate_input_configs,
    similar,
)
from aba.errors import ConfigError


# ---------------------------------------------------------------- oracles


def _min_output(domain, values):
    return min(values, key=domain.output_values.index)


def _similar_intersection(validity, params, domain, config):
    common = frozenset(domain.output_values)
    for other in similar(config, params, domain):
        common &= frozenset(validity.evaluate(params, domain, other))
    return common


def oracle_certificate(validity, params, domain):
    """Brute-force synthesis: the first configuration whose similar set has
    no common valid output is the witness."""
    sigma = {}
    for config in enumerate_input_configs(params, domain):
        common = _similar_intersection(validity, params, domain, config)
        if not common:
            return CertificateOutcome(certificate=None, witness=config)
        sigma[config.encode()] = _min_output(domain, common)
    return CertificateOutcome(
        certificate=SimilarityCertificate(params=params, domain=domain, sigma=sigma),
        witness=None,
    )


def oracle_best_effort(validity, params, domain):
    """Brute-force best-effort table: an empty similar-intersection falls
    back to the smallest output valid under the configuration itself."""
    sigma = {}
    for config in enumerate_input_configs(params, domain):
        common = _similar_intersection(validity, params, domain, config)
        if not common:
            common = validity.evaluate(params, domain, config)
        sigma[config.encode()] = _min_output(domain, common)
    return SimilarityCertificate(params=params, domain=domain, sigma=sigma)


def assert_matches_oracle(validity, params, domain):
    got = compute_similarity_certificate(validity, params, domain)
    want = oracle_certificate(validity, params, domain)
    assert got.witness == want.witness
    assert got.feasible == want.feasible
    if want.feasible:
        assert got.certificate.to_json().encode() == want.certificate.to_json().encode()
        ok, detail = got.certificate.validate(validity)
        assert ok, detail
    best = best_effort_certificate(validity, params, domain)
    assert best.to_json() == oracle_best_effort(validity, params, domain).to_json()
    return got


# ---------------------------------------------------------------- differential


@st.composite
def table_points(draw):
    n = draw(st.integers(1, 5))
    t_s = draw(st.integers(0, n - 1))
    t_a = draw(st.integers(0, t_s))
    setup = draw(st.sampled_from(["PKI", "NONE"]))
    params = SystemParams(n, t_s, t_a, setup)
    inputs = tuple(str(i) for i in range(draw(st.integers(2, 3))))
    outputs = inputs + (("x",) if draw(st.booleans()) else ())
    domain = Domain(inputs, outputs)
    subsets = st.lists(st.sampled_from(outputs), min_size=1, unique=True)
    default = draw(subsets)
    configs = [c.encode() for c in enumerate_input_configs(params, domain)]
    keys = draw(st.lists(st.sampled_from(configs), max_size=12, unique=True))
    table = {key: draw(subsets) for key in keys}
    return table_property("random", table, default, canonicalize=False), params, domain


@settings(max_examples=200, deadline=None)
@given(table_points())
def test_pass_matches_oracle_on_random_tables(point):
    assert_matches_oracle(*point)


PARAMETER_POINTS = [
    (n, t_s, t_a, setup)
    for n in range(1, 6)
    for t_s in range(n)
    for t_a in range(t_s + 1)
    for setup in ("PKI", "NONE")
]


@pytest.mark.parametrize("name", ["strong", "it-strong"])
def test_pass_matches_oracle_at_every_parameter_point(name):
    prop, domain = resolve(name, 2)
    outcomes = [
        assert_matches_oracle(prop, SystemParams(*point), domain).feasible
        for point in PARAMETER_POINTS
    ]
    assert any(outcomes) and not all(outcomes)


# ---------------------------------------------------------------- golden pins


@pytest.mark.parametrize("n,t_s,t_a,witness", [
    # recorded from the brute-force scan
    (6, 2, 0, "p0=a;p1=a;p2=b;p3=b;p4=c;p5=c"),
    (7, 2, 2, "p0=a;p1=a;p2=b;p3=b;p4=c"),
])
def test_clique_k3_witness_pins(n, t_s, t_a, witness):
    prop, domain = resolve("clique:3")
    outcome = compute_similarity_certificate(prop, SystemParams(n, t_s, t_a), domain)
    assert outcome.witness.encode() == witness


# ---------------------------------------------------------------- evaluation


def test_out_of_domain_output_raises_config_error():
    prop = ValidityProperty(name="rogue", evaluate=lambda p, d, c: frozenset({"0", "9"}))
    with pytest.raises(ConfigError, match=r"outside the output domain: \['9'\]"):
        compute_similarity_certificate(prop, SystemParams(4, 1, 1), Domain.binary())


def test_each_configuration_evaluated_at_most_once():
    calls = []
    strong, domain = resolve("strong", 3)

    def counted(params, domain, config):
        calls.append(config.assignments)
        return strong.evaluate(params, domain, config)

    params = SystemParams(6, 1, 1)
    outcome = compute_similarity_certificate(ValidityProperty("counted", counted), params, domain)
    assert outcome.feasible
    assert len(calls) == len(set(calls)) == len(outcome.certificate.sigma)
