"""CLI exit-code contract and end-to-end command flows."""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aba.cli import PROTOCOLS, Scenario, main
from aba.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_solvable_exit_zero(capsys):
    code, out, _ = invoke(capsys, "check", "--validity", "strong",
                          "--n", "4", "--ts", "1", "--ta", "1", "--setup", "pki")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["solvable"] is True


def test_check_unsolvable_exit_three(capsys):
    code, out, _ = invoke(capsys, "check", "--validity", "clique:3",
                          "--n", "6", "--ts", "2", "--ta", "0", "--setup", "pki")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"]["reason"] == "SIMILARITY_FAILS"
    assert "witness" in payload["verdict"]


def test_check_n_too_small(capsys):
    code, out, _ = invoke(capsys, "check", "--validity", "strong",
                          "--n", "3", "--ts", "1", "--ta", "1", "--setup", "pki")
    assert code == 3
    assert json.loads(out)["verdict"]["reason"] == "N_TOO_SMALL"


def test_check_bad_params_exit_two(capsys):
    code, _, err = invoke(capsys, "check", "--validity", "strong",
                          "--n", "2", "--ts", "3", "--ta", "0")
    assert code == 2
    assert "configuration error" in err


def test_check_budget_exit_four(capsys, monkeypatch):
    monkeypatch.setenv("ABA_BUDGET", "5")
    code, _, err = invoke(capsys, "check", "--validity", "strong",
                          "--n", "4", "--ts", "1", "--ta", "1")
    assert code == 4
    assert "budget" in err.lower()


def _clique_closed_form(omega, n, t_s, t_a):
    """ACCEPT-1's bound for clique:omega with PKI."""
    return n > max(omega * t_s, omega * t_a + t_s, 2 * t_s + t_a)


def test_check_answers_beyond_the_configuration_cap(capsys):
    # 10.9 million configurations, over the 5 million cap: solved on orbits
    code, out, _ = invoke(capsys, "check", "--validity", "clique:3",
                          "--n", "12", "--ts", "3", "--ta", "1")
    assert code == 0 and _clique_closed_form(3, 12, 3, 1)
    assert json.loads(out)["verdict"] == {"solvable": True, "reason": "SIMILARITY_AND_N_OK"}


def test_check_witness_beyond_the_configuration_cap(capsys):
    code, out, _ = invoke(capsys, "check", "--validity", "clique:3",
                          "--n", "12", "--ts", "4", "--ta", "1")
    assert code == 3 and not _clique_closed_form(3, 12, 4, 1)
    verdict = json.loads(out)["verdict"]
    assert verdict["reason"] == "SIMILARITY_FAILS"
    pairs = [part.split("=") for part in verdict["witness"].split(";")]
    assert [p for p, _ in pairs] == [f"p{i}" for i in range(len(pairs))]
    assert [v for _, v in pairs] == sorted(v for _, v in pairs)
    assert "".join(v for _, v in pairs) == "aaaabbbbcccc"


def test_certificate_writes_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = invoke(capsys, "certificate", "--validity", "strong",
                          "--n", "4", "--ts", "1", "--ta", "1", "--setup", "pki",
                          "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["sigma"]) == 48
    assert json.loads(out)["entries"] == 48


def test_certificate_unsolvable_no_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, err = invoke(capsys, "certificate", "--validity", "clique:3",
                          "--n", "6", "--ts", "2", "--ta", "0", "--setup", "pki",
                          "--out", str(out_path))
    assert code == 3
    assert not out_path.exists()
    assert "witness" in err


def test_certificate_matches_committed_golden_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "certificate", "--validity", "strong",
                        "--n", "4", "--ts", "1", "--ta", "1", "--setup", "pki",
                        "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (SCENARIOS / "strong-4-1-1.cert.json").read_bytes()


def test_certificate_budget_exit_four(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ABA_BUDGET", "5")
    out_path = tmp_path / "cert.json"
    code, _, err = invoke(capsys, "certificate", "--validity", "strong",
                          "--n", "4", "--ts", "1", "--ta", "1", "--out", str(out_path))
    assert code == 4
    assert "budget" in err.lower() and "Traceback" not in err
    assert not out_path.exists()


def test_certificate_out_of_domain_table_exit_two(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "domain": {"input_values": ["0", "1"], "output_values": ["0", "1"]},
        "default": ["0", "1"],
        "table": {"p0=0;p1=0;p2=1": ["2"]},
    }))
    out_path = tmp_path / "cert.json"
    code, _, err = invoke(capsys, "certificate", "--validity-table", str(table),
                          "--n", "3", "--ts", "1", "--ta", "0", "--out", str(out_path))
    assert code == 2
    assert "outside the output domain" in err
    assert not out_path.exists()


_TABLE = {
    "domain": {"input_values": ["0", "1"], "output_values": ["0", "1"]},
    "default": ["0", "1"],
    "table": {"p0=0;p1=0": ["0"]},
}


def check_table(data, *extra):
    """`aba check` at (3,1,0) on a validity-table file holding `data`:
    (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", "--validity-table", str(path),
                         "--n", "3", "--ts", "1", "--ta", "0", *extra])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("field,value,message", [
    ("domain", ["0", "1"], "domain must be a JSON object"),
    ("table", {"px=0": ["0"]}, "bad party id"),
    ("table", {"p0=0;p1=0": 5}, "must be a list of strings"),
    ("default", "01", "default must be a list of strings"),
    ("default", ["0", 1], "default must be a list of strings"),
    ("domain", {"input_values": "01", "output_values": ["0", "1"]}, "input_values"),
    ("name", ["custom"], "name must be a string"),
    # keys no configuration at (3,1,0) with inputs 0/1 can have
    ("table", {"p0=0;p7=0": ["1"]}, "names party 7, outside 0..2"),
    ("table", {"p0=2;p1=0": ["1"]}, "holds '2', outside the input domain"),
    ("table", {"p0=0": ["1"]}, "fewer than n - t_s = 2 parties"),
    ("table", {"p0=0;p1=0": ["0"], "p1=0;p0=0": ["1"]}, "another key names"),
])
def test_malformed_validity_table_exit_two(field, value, message):
    code, out, err = check_table(dict(_TABLE, **{field: value}))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and message in err


def test_validity_table_file_must_hold_an_object():
    code, _, err = check_table([_TABLE])
    assert code == 2 and err.startswith("configuration error:")


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_validity_table_exit_two(capsys, tmp_path, kind):
    path = tmp_path / "table.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    code, _, err = invoke(capsys, "check", "--validity-table", str(path),
                          "--n", "3", "--ts", "1", "--ta", "0")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("configuration error:")


@pytest.mark.parametrize("env,flag", [
    ("abc", None), ("0", None), ("-5", None), (None, "0"), (None, "-1"), ("abc", "10"),
])
def test_bad_budget_exit_two(capsys, monkeypatch, env, flag):
    if env is not None:
        monkeypatch.setenv("ABA_BUDGET", env)
    argv = ["check", "--validity", "strong", "--n", "4", "--ts", "1", "--ta", "1"]
    code, out, err = invoke(capsys, *argv, *(["--budget", flag] if flag else []))
    assert code == 2 and out == ""
    assert err.startswith("configuration error:") and "positive integer" in err


def test_budget_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("ABA_BUDGET", "5")
    code, _, _ = invoke(capsys, "check", "--validity", "strong",
                        "--n", "4", "--ts", "1", "--ta", "1", "--budget", "9")
    assert code == 0
    code, _, _ = invoke(capsys, "check", "--validity", "strong",
                        "--n", "4", "--ts", "1", "--ta", "1", "--budget", "8")
    assert code == 4


def scenario_file(tmp_path, **overrides):
    data = {
        "params": {"n": 4, "t_s": 1, "t_a": 1, "setup": "PKI"},
        "protocol": "bin-ba",
        "validity": "strong",
        "network": {"mode": "SYNCHRONOUS", "delta": 10, "horizon": 6000},
        "adversary": {"delivery": {"kind": "exact"}},
        "inputs": {"0": "1", "1": "1", "2": "1", "3": "1"},
        "seed": 7,
    }
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_run_scenario_exit_zero(capsys, tmp_path):
    path = scenario_file(tmp_path)
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert set(payload["decisions"].values()) == {"1"}


def test_run_replay_same_trace_hash(capsys, tmp_path):
    path = scenario_file(tmp_path)
    _, out1, _ = invoke(capsys, "run", path)
    _, out2, _ = invoke(capsys, "run", path)
    assert json.loads(out1)["trace_hash"] == json.loads(out2)["trace_hash"]


def test_run_writes_trace_file(capsys, tmp_path):
    path = scenario_file(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = invoke(capsys, "run", path, "--trace", str(trace_path))
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines
    event = json.loads(lines[0])
    assert {"t", "kind", "party", "replica", "detail"} <= set(event)


def test_run_universal_with_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "certificate", "--validity", "strong",
                        "--n", "4", "--ts", "1", "--ta", "1", "--setup", "pki",
                        "--out", str(cert_path))
    assert code == 0
    path = scenario_file(
        tmp_path,
        protocol="universal",
        certificate=str(cert_path),
        inputs={"0": "0", "1": "0", "2": "0", "3": "0"},
    )
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["decisions"].values()) == {"0"}
    assert payload["violations"] == []


def test_run_acs_scenario(capsys, tmp_path):
    path = scenario_file(tmp_path, protocol="acs",
                         inputs={"0": "0", "1": "1", "2": "0", "3": "1"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    core = set(payload["decisions"].values())
    assert core == {"p0=0;p1=1;p2=0;p3=1"}


@pytest.mark.parametrize("protocol, violations", [
    ("constant:1", ["validity"]),
    ("constant:0", []),
])
def test_run_checks_validity_for_every_declared_property(capsys, tmp_path, protocol,
                                                         violations):
    # every honest input is "0", so strong validity allows only "0"
    path = scenario_file(tmp_path, protocol=protocol,
                         inputs={"0": "0", "1": "0", "2": "0", "3": "0"})
    code, out, _ = invoke(capsys, "run", path)
    payload = json.loads(out)
    assert set(payload["decisions"].values()) == {protocol[-1]}
    assert payload["violations"] == violations
    assert code == (1 if violations else 0)


def test_run_reports_a_stalled_run(capsys, tmp_path):
    # the rbc sender crashes before sending, so nobody ever delivers
    path = scenario_file(tmp_path, protocol="rbc",
                         adversary={"corrupted": {"0": {"behavior": "CRASH_AT", "time": 0}},
                                    "delivery": {"kind": "exact"}},
                         inputs={"1": "0", "2": "0", "3": "0"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["horizon_exceeded"] is True
    assert payload["undecided"] == ["1/0", "2/0", "3/0"]
    assert payload["decisions"] == {} and payload["violations"] == []


def test_run_missing_file_exit_two(capsys):
    code, _, err = invoke(capsys, "run", "/nonexistent/scenario.json")
    assert code == 2


@pytest.mark.parametrize("overrides, message", [
    ({"inputs": ["1", "1", "1", "1"]}, "inputs must be a JSON object"),
    ({"network": {"delta": "x"}}, "network delta must be an integer"),
    ({"adversary": {"corrupted": {"3": {"behavior": "SILENT_TO", "parties": "12"}}},
      "inputs": {"0": "1", "1": "1", "2": "1"}},
     "SILENT_TO parties must be a list of party ids"),
    ({"params": {"n": "four", "t_s": 1, "t_a": 1}}, "params fields must be integers"),
    ({"validity": "clique:x"}, "expected an integer in 'clique:x'"),
])
def test_run_malformed_scenario_exit_two(capsys, tmp_path, overrides, message):
    code, out, err = invoke(capsys, "run", scenario_file(tmp_path, **overrides))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and message in err


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
              st.sampled_from(["0", "1", "strong", "clique:3", "exact", "partition",
                               "SILENT_TO", "EQUIVOCATE", "CRASH_AT"])),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=2), kids, max_size=3)),
    max_leaves=6,
)
_FIELDS = [
    ("params",), ("params", "n"), ("params", "t_s"), ("params", "setup"), ("protocol",),
    ("validity",), ("values",), ("certificate",), ("seed",), ("inputs",), ("inputs", "0"),
    ("network",), ("network", "mode"), ("network", "delta"), ("network", "horizon"),
    ("adversary",), ("adversary", "delivery"), ("adversary", "delivery", "kind"),
    ("adversary", "delivery", "max_delay"), ("adversary", "delivery", "groups"),
    ("adversary", "delivery", "release_time"), ("adversary", "corrupted"),
    ("adversary", "corrupted", "3"), ("adversary", "corrupted", "3", "behavior"),
    ("adversary", "corrupted", "3", "parties"), ("adversary", "corrupted", "3", "values"),
    ("adversary", "corrupted", "3", "split"), ("adversary", "corrupted", "3", "time"),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELDS), _json_values), min_size=1, max_size=3))
def test_scenario_loader_fails_only_with_configuration_errors(edits):
    data = {
        "params": {"n": 4, "t_s": 1, "t_a": 1, "setup": "PKI"},
        "protocol": "bin-ba",
        "validity": "strong",
        "network": {"mode": "ASYNCHRONOUS", "delta": 10, "horizon": 6000},
        "adversary": {"delivery": {"kind": "partition", "groups": [[0, 1], [2, 3]]},
                      "corrupted": {"3": {"behavior": "SILENT_TO", "parties": [0]}}},
        "inputs": {"0": "1", "1": "1", "2": "1"},
        "seed": 7,
    }
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    try:
        Scenario(data)
    except (ConfigError, KeyError):  # what `main` reports with exit code 2
        pass


_TABLE_FIELDS = [
    ("name",), ("domain",), ("domain", "input_values"), ("domain", "output_values"),
    ("default",), ("table",), ("table", "p0=0;p1=0"), ("table", "p0=1;p2=1"),
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TABLE_FIELDS), _json_values), min_size=1, max_size=3))
def test_validity_table_fails_only_with_exit_codes(edits):
    data = json.loads(json.dumps(_TABLE))
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    code, _, err = check_table(data)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("configuration error:")


def test_run_trace_file_bytes_hash_to_trace_hash(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = invoke(capsys, "run", str(SCENARIOS / "acs-sync-crash.json"),
                          "--trace", str(trace_path))
    assert code == 0
    trace_hash = json.loads(out)["trace_hash"]
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == trace_hash
    # the golden hash of this scenario, as in tests/test_trace_golden.py
    assert trace_hash == "c39ac39758062946540cd42964ef96323703b2cd1f2dde09310c22cb3cebdb88"


def test_fuzz_report_unchanged(capsys):
    # golden report: reading only DECIDE events must not change it
    code, out, _ = invoke(capsys, "fuzz", str(SCENARIOS / "binba-async-byzantine.json"),
                          "--seeds", "20")
    assert code == 0
    assert out == ('{"decided_fraction": 1.0, "max_decision_time": 371, '
                   '"runs": 20, "violations": 0}\n')


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_fuzz_seeds_must_be_positive(capsys, seeds):
    code, out, err = invoke(capsys, "fuzz", str(SCENARIOS / "ba-star.json"), "--seeds", seeds)
    assert code == 2 and out == ""
    assert err == f"configuration error: --seeds must be a positive integer, got {seeds}\n"


def test_fuzz_aggregate(capsys, tmp_path):
    path = scenario_file(
        tmp_path,
        adversary={"delivery": {"kind": "random", "max_delay": 20},
                   "corrupted": {"3": {"behavior": "FOLLOW_WITH_INPUT", "value": "0"}}},
        network={"mode": "ASYNCHRONOUS", "delta": 10, "horizon": 8000},
        inputs={"0": "1", "1": "1", "2": "1"},
    )
    code, out, _ = invoke(capsys, "fuzz", path, "--seeds", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["decided_fraction"] >= 0.95


def test_attack_split_brain_cli(capsys):
    code, out, _ = invoke(capsys, "attack", "split-brain", "--protocol", "local-min",
                          "--n", "4", "--ts", "2", "--ta", "0", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["cross_group_disagreement"] is True


def test_attack_ring_cli(capsys):
    code, out, _ = invoke(capsys, "attack", "ring", "--protocol", "majority",
                          "--r", "1", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 24
    assert payload["checks"]["all_middle_fidelity"] is True


# ---------------------------------------------------------------- protocol registry


# every registry name as `aba attack --protocol` takes it
ATTACK_NAMES = [("constant:1" if name == "constant:<v>" else name) for name in PROTOCOLS] \
    + ["universal:strong"]


@pytest.mark.parametrize("kind, n, t_a", [
    ("split-brain", 4, 0), ("triple-partition", 5, 1), ("ring", 3, 0)])
@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_attack_every_registry_name_reports_or_exits_two(capsys, kind, n, t_a, name):
    code, out, err = invoke(capsys, "attack", kind, "--protocol", name,
                            "--n", str(n), "--ts", "2", "--ta", str(t_a))
    # universal has no certificate (aba attack builds one for universal:<validity>),
    # and ba-star takes fixed-point inputs in [0, 1), not the default input 1
    assert code == (2 if name in ("universal", "ba-star") else 0), err
    if code == 0:
        assert json.loads(out)["scenario"] == kind
    else:
        assert out == "" and err.startswith("configuration error:")


def test_attack_unknown_protocol_exit_two(capsys):
    code, out, err = invoke(capsys, "attack", "split-brain", "--protocol", "nope")
    assert code == 2 and out == ""
    assert "unknown protocol 'nope'" in err


def test_run_unknown_protocol_exit_two(capsys, tmp_path):
    code, out, err = invoke(capsys, "run", scenario_file(tmp_path, protocol="nope"))
    assert code == 2 and out == ""
    assert "unknown protocol 'nope'" in err


def test_run_bin_ba_on_three_values_exit_two(capsys, tmp_path):
    code, _, err = invoke(capsys, "run", scenario_file(tmp_path, values=3))
    assert code == 2
    assert "bin-ba needs a binary domain" in err


def test_run_universal_without_certificate_exit_two(capsys, tmp_path):
    code, _, err = invoke(capsys, "run", scenario_file(tmp_path, protocol="universal"))
    assert code == 2
    assert "needs a certificate" in err


def test_run_universal_certificate_params_mismatch_exit_two(capsys, tmp_path):
    path = scenario_file(tmp_path, protocol="universal",
                         params={"n": 5, "t_s": 1, "t_a": 1, "setup": "PKI"},
                         inputs={str(p): "1" for p in range(5)},
                         certificate=str(SCENARIOS / "strong-4-1-1.cert.json"))
    code, _, err = invoke(capsys, "run", path)
    assert code == 2
    assert "certificate parameters do not match" in err


@pytest.mark.parametrize("name", ATTACK_NAMES[:-1])
def test_run_every_registry_name_without_traceback(capsys, tmp_path, name):
    code, out, err = invoke(capsys, "run", scenario_file(tmp_path, protocol=name))
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "" and err.startswith("configuration error:")
    else:
        assert "trace_hash" in json.loads(out)


@pytest.mark.parametrize("behavior", [
    {"behavior": "CRASH_AT", "time": 15},
    {"behavior": "SILENT_TO", "parties": [0, 1]},
])
def test_run_corrupted_party_without_input_exit_two(capsys, tmp_path, behavior):
    path = scenario_file(tmp_path, protocol="acs",
                         adversary={"corrupted": {"3": behavior}},
                         inputs={"0": "0", "1": "1", "2": "0"})
    code, out, err = invoke(capsys, "run", path)
    assert code == 2 and out == ""
    assert "corrupted party 3" in err and "no input" in err


def test_readme_protocol_list_is_the_registry():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r'"protocol": +"([^"]+)"', readme).group(1)
    assert listed.split(" | ") == list(PROTOCOLS)
