"""The single-pass certificate synthesis and the integer-coded validator
against the brute-force scan.

`oracle_certificate` and `oracle_best_effort` intersect V over `similar(I)`
for every configuration I, pair by pair; the pass must reproduce their
sigma JSON byte for byte, their witness and their best-effort tables.
`oracle_validate` checks sigma(I) in V(J) for each J in `similar(I)`;
`SimilarityCertificate.validate` must return its result and raise where it
raises, and on table properties, which it checks pair by pair, evaluate V in
its order. Anonymous properties, solved on orbits, must answer exactly as
the same property run through the per-configuration pass.
"""

import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aba.attacks import best_effort_certificate
from aba.catalog import resolve, table_property
from aba.core import (
    Budget,
    CertificateOutcome,
    Domain,
    InputConfiguration,
    SimilarityCertificate,
    SystemParams,
    ValidityProperty,
    _encodings,
    _output_masks,
    compute_similarity_certificate,
    count_input_configs,
    count_orbits,
    enumerate_input_configs,
    is_solvable,
    similar,
)
from aba.errors import BudgetExceededError, ConfigError


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


def oracle_validate(cert, validity):
    """Brute-force soundness check: each J comes from the `similar()` scan,
    and V is evaluated lazily, at most once per J."""
    evaluate = _output_masks(validity, cert.params, cert.domain)
    outputs = cert.domain.output_values
    allowed = {}  # assignments -> output mask
    for config in enumerate_input_configs(cert.params, cert.domain):
        encoded = config.encode()
        if encoded not in cert.sigma:
            return False, f"missing sigma entry for {encoded}"
        chosen = cert.sigma[encoded]
        bit = 1 << outputs.index(chosen) if chosen in outputs else 0
        for other in similar(config, cert.params, cert.domain):
            mask = allowed.get(other.assignments)
            if mask is None:
                mask = allowed[other.assignments] = evaluate(other)
            if not mask & bit:
                return False, f"sigma({encoded})={chosen} invalid under {other.encode()}"
    return True, None


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
def random_tables(draw):
    """(params, domain, table, default) for a random `table_property`."""
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
    return params, domain, table, default


@st.composite
def table_points(draw):
    params, domain, table, default = draw(random_tables())
    return table_property("random", table, default), params, domain


@settings(max_examples=200, deadline=None)
@given(table_points())
def test_pass_matches_oracle_on_random_tables(point):
    assert_matches_oracle(*point)


ROGUE = "9"  # a label outside every output domain drawn here
MUTATIONS = ("none", "flip", "missing", "out-of-domain", "extra")


@st.composite
def validate_cases(draw):
    """A best-effort certificate, possibly mutated, and the property to check
    it against, whose table may list the out-of-domain label ROGUE."""
    params, domain, table, default = draw(random_tables())
    clean = table_property("random", table, default)
    sigma = dict(best_effort_certificate(clean, params, domain).sigma)
    if table and draw(st.booleans()):
        rogue = draw(st.lists(st.sampled_from(sorted(table)), min_size=1, unique=True))
        table = {key: values + [ROGUE] if key in rogue else values
                 for key, values in table.items()}
    validity = table_property("random", table, default)
    return validity, _mutated(draw, params, domain, sigma)


def _mutated(draw, params, domain, sigma):
    """A certificate of `sigma`, intact or with one of MUTATIONS applied."""
    mutation = draw(st.sampled_from(MUTATIONS))
    key = draw(st.sampled_from(sorted(sigma)))
    if mutation == "flip":
        sigma[key] = draw(st.sampled_from([v for v in domain.output_values if v != sigma[key]]))
    elif mutation == "missing":
        del sigma[key]
    elif mutation == "out-of-domain":
        sigma[key] = ROGUE
    elif mutation == "extra":
        extra = draw(st.sampled_from([f"p{params.n}=0", "p0=zz", "junk", ""]))
        sigma[extra] = draw(st.sampled_from(domain.output_values + (ROGUE,)))
    return SimilarityCertificate(params=params, domain=domain, sigma=sigma)


def _checked(check, cert, validity):
    """(result or raised ConfigError, configurations evaluated in order)."""
    evaluated = []

    def recording(params, domain, config):
        evaluated.append(config.encode())
        return validity.evaluate(params, domain, config)

    try:
        result = check(cert, ValidityProperty(validity.name, recording))
    except ConfigError as e:
        result = ("ConfigError", str(e))
    return result, evaluated


@settings(max_examples=300, deadline=None)
@given(validate_cases())
def test_validate_matches_oracle_on_mutated_certificates(case):
    validity, cert = case
    assert _checked(SimilarityCertificate.validate, cert, validity) == \
        _checked(oracle_validate, cert, validity)


# the random tables above use 2-3 input values; interval:0:3 has four, so
# its codes need three bits per party
@pytest.mark.parametrize("name,values,n,t_s,t_a,setup", [
    ("strong", 2, 5, 1, 1, "PKI"),
    ("clique:3", 0, 5, 1, 1, "PKI"),
    ("interval:0:3", 0, 4, 1, 1, "NONE"),
    ("it-strong", 2, 5, 2, 0, "PKI"),
])
def test_validate_matches_oracle_on_catalog_certificates(name, values, n, t_s, t_a, setup):
    prop, domain = resolve(name, values)
    params = SystemParams(n, t_s, t_a, setup)
    cert = best_effort_certificate(prop, params, domain)
    assert cert.validate(prop) == oracle_validate(cert, prop)
    # the last configuration in canonical order, flipped
    last = next(c for c in enumerate_input_configs(params, domain) if len(c) == n
                and all(v == domain.input_values[-1] for _, v in c.assignments))
    sigma = dict(cert.sigma)
    sigma[last.encode()] = next(v for v in domain.output_values if v != sigma[last.encode()])
    flipped = SimilarityCertificate(params=params, domain=domain, sigma=sigma)
    assert flipped.validate(prop) == oracle_validate(flipped, prop)


# ---------------------------------------------------------------- budgets


def _strong_certificate():
    prop, domain = resolve("strong", 2)
    params = SystemParams(4, 1, 1)
    return prop, compute_similarity_certificate(prop, params, domain).certificate


def test_validate_passes_every_configuration_on_its_orbit():
    for name, values, point in [
        ("strong", 2, (4, 1, 1, "PKI")),
        ("interval:0:3", 0, (4, 1, 1, "NONE")),  # four values
        ("strong", 2, (6, 2, 1, "PKI")),  # t_a < t_s
    ]:
        prop, domain = resolve(name, values)
        params = SystemParams(*point)
        cert = compute_similarity_certificate(prop, params, domain).certificate
        evaluated = []

        def counted(params, domain, config):
            evaluated.append(config)
            return prop.evaluate(params, domain, config)

        assert cert.validate(dataclasses.replace(prop, evaluate=counted)) == (True, None)
        # every configuration passed on its orbit: V ran at most once per orbit
        assert len(evaluated) <= count_orbits(params, domain), name


def test_validate_raises_under_config_cap():
    prop, cert = _strong_certificate()
    with pytest.raises(BudgetExceededError, match="enumeration cap 10"):
        cert.validate(prop, Budget(max_configs=10))


def test_validate_passes_a_sound_certificate_past_a_billion_pairs():
    # strong (13,4,3): the 880,128 configurations have over 10^9 similar
    # pairs in all, and each passes on its orbit without a pair scanned
    prop, domain = resolve("strong", 2)
    params = SystemParams(13, 4, 3)
    cert = compute_similarity_certificate(prop, params, domain).certificate
    assert len(cert.sigma) == 880_128
    evaluated = []

    def counted(params, domain, config):
        evaluated.append(config)
        return prop.evaluate(params, domain, config)

    assert cert.validate(dataclasses.replace(prop, evaluate=counted)) == (True, None)
    assert len(evaluated) <= count_orbits(params, domain)


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


@pytest.mark.parametrize("name,params,configs,evaluated,orbits", [
    ("clique:3", SystemParams(7, 2, 2), 12_393, 1_649, 54),  # a witness, early
    ("strong", SystemParams(7, 2, 2), 1_248, 1_248, 21),  # solvable
    ("clique:3", SystemParams(6, 2, 0), 3_402, 3_402, 64),  # a witness, late
])
def test_is_solvable_evaluates_a_pinned_count(name, params, configs, evaluated, orbits):
    # the walk is lazy: a later change must not raise these counts unseen
    prop, domain = resolve(name, 0 if ":" in name else 2)
    assert count_input_configs(params, domain) == configs
    for anonymous, count in ((False, evaluated), (True, orbits)):
        calls = []

        def counted(params, domain, config):
            calls.append(config)
            return prop.evaluate(params, domain, config)

        copy = dataclasses.replace(prop, evaluate=counted, anonymous=anonymous)
        assert is_solvable(copy, params, domain) == is_solvable(prop, params, domain)
        assert len(calls) == count, anonymous


def test_orbit_verdict_charges_orbits_and_certificate_configurations():
    prop, domain = resolve("strong", 2)
    params = SystemParams(4, 1, 1)
    orbits, configs = count_orbits(params, domain), count_input_configs(params, domain)
    assert (orbits, configs) == (9, 48)
    budget = Budget(max_configs=20)
    assert is_solvable(prop, params, domain, budget).reason == "SIMILARITY_AND_N_OK"
    with pytest.raises(BudgetExceededError, match="48 configurations exceed the enumeration cap 20"):
        compute_similarity_certificate(prop, params, domain, budget)
    with pytest.raises(BudgetExceededError, match="9 orbits exceed the enumeration cap 8"):
        is_solvable(prop, params, domain, Budget(max_configs=8))


# ---------------------------------------------------------------- orbits


CATALOG = [("strong", 2), ("strong", 3), ("weak", 2), ("weak", 3), ("it-strong", 2),
           ("it-strong", 3), ("clique:2", 0), ("clique:3", 0), ("interval:0:3", 0)]
MISMATCHED = [Domain.labels(2), Domain(("0", "1", "2"), ("0", "1")), Domain.labels(4)]


def constant_property():
    return ValidityProperty(
        "constant", lambda params, domain, config: frozenset(domain.output_values[-1:]),
        anonymous=True,
    )


def checker_answers(validity, params, domain):
    """The verdict, the certificate JSON or witness, and the best-effort
    sigma at one point; or the type and message of the error raised."""
    try:
        verdict = is_solvable(validity, params, domain)
        outcome = compute_similarity_certificate(validity, params, domain)
        best = best_effort_certificate(validity, params, domain)
    except ConfigError as e:
        return type(e), str(e)
    text = outcome.certificate.to_json() if outcome.feasible else None
    return verdict, outcome.witness, text, best.sigma


@st.composite
def anonymous_points(draw):
    """A catalog property or the anonymous constant, on its own domain or a
    mismatched one, at n <= 7 and at most 20,000 configurations, which keeps
    the per-configuration pass under a second."""
    name, values = draw(st.sampled_from(CATALOG + [("constant", 2)]))
    if name == "constant":
        prop, domain = constant_property(), Domain.labels(values)
    else:
        prop, domain = resolve(name, values)
    if draw(st.integers(0, 9)) == 0:
        domain = draw(st.sampled_from(MISMATCHED))
    n = draw(st.integers(1, 7))
    t_s = draw(st.integers(0, n - 1))
    t_a = draw(st.integers(0, t_s))
    params = SystemParams(n, t_s, t_a, draw(st.sampled_from(["PKI", "NONE"])))
    assume(count_input_configs(params, domain) <= 20_000)
    return prop, params, domain


@settings(max_examples=100, deadline=None)
@given(anonymous_points())
def test_orbits_answer_as_the_per_configuration_pass(point):
    prop, params, domain = point
    assert prop.anonymous
    plain = dataclasses.replace(prop, anonymous=False)
    assert checker_answers(prop, params, domain) == checker_answers(plain, params, domain)


@pytest.mark.parametrize("name,values", CATALOG)
def test_orbit_verdicts_match_the_pass_at_every_parameter_point(name, values):
    prop, domain = resolve(name, values)
    plain = dataclasses.replace(prop, anonymous=False)
    for point in PARAMETER_POINTS:
        params = SystemParams(*point)
        assert is_solvable(prop, params, domain) == is_solvable(plain, params, domain), point


def _oracle_cost(params, domain):
    """Configurations the brute-force `similar()` scans of `oracle_validate`
    build: for each I, every configuration agreeing with I where both are
    present."""
    n, m, least = params.n, len(domain.input_values), params.min_config_size
    return sum(
        math.comb(n, k) * m**k * math.comb(k, kept) * math.comb(n - k, size - kept)
        * m ** (size - kept)
        for k in range(least, n + 1)
        for size in range(least, n + 1)
        for kept in range(min(k, size) + 1)
    )


@st.composite
def orbit_validate_cases(draw):
    """A catalog property at n <= 6, on its own domain or a mismatched one,
    and a certificate for it: the best-effort table (a constant table where
    the property raises on the domain), intact or mutated once. Points whose
    brute-force scan would build over 150,000 configurations are skipped."""
    name, values = draw(st.sampled_from(CATALOG))
    prop, domain = resolve(name, values)
    if draw(st.integers(0, 9)) == 0:
        domain = draw(st.sampled_from(MISMATCHED))
    n = draw(st.integers(1, 6))
    t_s = draw(st.integers(0, n - 1))
    t_a = draw(st.integers(0, t_s))
    params = SystemParams(n, t_s, t_a, draw(st.sampled_from(["PKI", "NONE"])))
    assume(_oracle_cost(params, domain) <= 150_000)
    try:
        sigma = dict(best_effort_certificate(prop, params, domain).sigma)
    except ConfigError:
        sigma = {c.encode(): domain.output_values[0]
                 for c in enumerate_input_configs(params, domain)}
    return prop, _mutated(draw, params, domain, sigma)


def _answer(check, cert, validity):
    try:
        return check(cert, validity)
    except ConfigError as e:
        return "ConfigError", str(e)


@settings(max_examples=150, deadline=None)
@given(orbit_validate_cases())
def test_orbit_validate_matches_oracle(case):
    prop, cert = case
    assert prop.anonymous
    assert _answer(SimilarityCertificate.validate, cert, prop) == \
        _answer(oracle_validate, cert, prop)


@st.composite
def bulk_cases(draw):
    """An anonymous catalog property at n <= 6, PKI or NONE, on its own
    domain or a mismatched one, and a table for it, the one
    `orbit_validate_cases` draws: the best-effort table or a constant one,
    and a copy with one of MUTATIONS applied."""
    name, values = draw(st.sampled_from(CATALOG))
    prop, domain = resolve(name, values)
    if draw(st.integers(0, 4)) == 0:
        domain = draw(st.sampled_from(MISMATCHED))
    n = draw(st.integers(1, 6))
    t_s = draw(st.integers(0, n - 1))
    t_a = draw(st.integers(0, t_s))
    params = SystemParams(n, t_s, t_a, draw(st.sampled_from(["PKI", "NONE"])))
    assume(_oracle_cost(params, domain) <= 150_000)
    try:
        sigma = dict(best_effort_certificate(prop, params, domain).sigma)
    except ConfigError:
        sigma = {c.encode(): domain.output_values[0]
                 for c in enumerate_input_configs(params, domain)}
    intact = SimilarityCertificate(params=params, domain=domain, sigma=dict(sigma))
    return prop, params, domain, intact, _mutated(draw, params, domain, sigma)


def _bulk_answers(validity, params, domain, intact, mutated):
    """The witness and certificate JSON bytes of the synthesis, the
    best-effort JSON, and the validate answers on both tables; each one the
    ConfigError it raises instead."""
    def synthesized():
        outcome = compute_similarity_certificate(validity, params, domain)
        return outcome.witness, outcome.feasible and outcome.certificate.to_json().encode()

    checks = (synthesized, lambda: best_effort_certificate(validity, params, domain).to_json(),
              lambda: intact.validate(validity), lambda: mutated.validate(validity))
    answers = []
    for check in checks:
        try:
            answers.append(check())
        except ConfigError as e:
            answers.append(("ConfigError", str(e)))
    return answers


@settings(max_examples=150, deadline=None)
@given(bulk_cases())
def test_bulk_rows_answer_as_the_per_configuration_rows(case):
    prop, params, domain, intact, mutated = case
    assert prop.anonymous
    plain = dataclasses.replace(prop, anonymous=False)
    assert _bulk_answers(prop, params, domain, intact, mutated) == \
        _bulk_answers(plain, params, domain, intact, mutated)


LABELS = ["0", "ab", "\u22a5", "{}", "{0}", "x=y", "p1=0", ""]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True),
       st.integers(1, 4), st.data())
def test_joined_encodings_equal_encode(labels, n, data):
    parties = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    want = [InputConfiguration(tuple(zip(parties, assignment))).encode()
            for assignment in itertools.product(labels, repeat=len(parties))]
    assert list(_encodings(parties, tuple(labels))) == want
    # and the certificate of an anonymous property is keyed by them
    domain = Domain(tuple(labels), tuple(labels))
    params = SystemParams(n, n - 1, 0)
    cert = compute_similarity_certificate(constant_property(), params, domain).certificate
    assert list(cert.sigma) == [c.encode() for c in enumerate_input_configs(params, domain)]


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


@pytest.mark.parametrize("n,t_s,t_a,setup,witness", [
    # recorded from the per-configuration pass; each point has three failing
    # orbits at the witness's size, so only the canonical first one matches
    (5, 2, 0, "PKI", "p0=a;p1=a;p2=b;p3=b;p4=c"),
    (7, 2, 2, "NONE", "p0=a;p1=a;p2=b;p3=b;p4=c"),
    (8, 3, 1, "PKI", "p0=a;p1=a;p2=a;p3=b;p4=b;p5=b;p6=c;p7=c"),
])
def test_clique_k3_orbit_witness_pins(n, t_s, t_a, setup, witness):
    prop, domain = resolve("clique:3")
    verdict = is_solvable(prop, SystemParams(n, t_s, t_a, setup), domain)
    assert verdict.reason == "SIMILARITY_FAILS"
    assert verdict.witness.encode() == witness


# ---------------------------------------------------------------- evaluation


def test_out_of_domain_output_raises_config_error():
    prop = ValidityProperty(name="rogue", evaluate=lambda p, d, c: frozenset({"0", "9"}))
    with pytest.raises(ConfigError, match=r"outside the output domain: \['9'\]"):
        compute_similarity_certificate(prop, SystemParams(4, 1, 1), Domain.labels(2))


@pytest.mark.parametrize("name,n,t_s,t_a,setup,reason", [
    ("strong", 6, 1, 1, "PKI", "SIMILARITY_AND_N_OK"),
    ("strong", 6, 2, 1, "NONE", "N_TOO_SMALL"),
    ("clique:3", 6, 2, 0, "PKI", "SIMILARITY_FAILS"),
    ("constant", 5, 2, 1, "PKI", "TRIVIAL"),
])
def test_is_solvable_evaluates_each_configuration_at_most_once(name, n, t_s, t_a, setup, reason):
    if name == "constant":
        prop, domain = constant_property(), Domain.labels(2)
    else:
        prop, domain = resolve(name, 3)
    calls = []

    def counted(params, domain, config):
        calls.append(config.assignments)
        return prop.evaluate(params, domain, config)

    params = SystemParams(n, t_s, t_a, setup)
    verdict = is_solvable(ValidityProperty("counted", counted), params, domain)
    assert verdict.reason == reason
    assert calls and len(calls) == len(set(calls))


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


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.text(max_size=3), max_size=6),
       st.lists(st.sampled_from(["0", "1", "a", "\u00e9"]), min_size=1, unique=True))
def test_certificate_json_equals_indented_dumps(sigma, labels):
    cert = SimilarityCertificate(SystemParams(4, 1, 1), Domain(tuple(labels), tuple(labels)),
                                 sigma)
    want = json.dumps({"params": cert.params.to_dict(), "domain": cert.domain.to_dict(),
                       "sigma": sigma}, indent=2, sort_keys=True)
    assert cert.to_json() == want
