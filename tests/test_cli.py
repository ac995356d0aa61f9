"""CLI exit-code contract and end-to-end command flows."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from aba import catalog
from aba.cli import PROTOCOLS, Scenario, build_parser, main
from aba.core import (
    InputConfiguration,
    SimilarityCertificate,
    read_integer,
    read_labels,
    read_object,
    read_string,
)
from aba.errors import ConfigError
from aba.protocols import ConstantProtocol

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


@pytest.mark.parametrize("validity", ["clique:0_3", "clique: 3", "clique:03", "interval:0:+3"])
def test_check_non_canonical_integer_exit_two(capsys, validity):
    # int() would read each as 3
    code, out, err = invoke(capsys, "check", "--validity", validity,
                            "--n", "4", "--ts", "1", "--ta", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and "must be an integer" in err


POINT = ("--n", "4", "--ts", "1", "--ta", "1")


@pytest.mark.parametrize("argv", [
    ("check", "--n", "0_4", "--ts", "1", "--ta", "1"),
    ("check", "--n", "4", "--ts", "1", "--ta", " 1"),
    ("check", "--n", "4", "--ts", "+1", "--ta", "1"),
    ("check", *POINT, "--values", "02"),
    ("check", *POINT, "--budget", "1e6"),
    ("certificate", "--n", "4.0", "--ts", "1", "--ta", "1", "--out", "unused.json"),
    ("fuzz", "unused.json", "--seeds", "1_0"),
    ("attack", "split-brain", "--n", "٤"),
    ("attack", "split-brain", "--ts", "2 "),
    ("attack", "split-brain", "--ta", "-0"),
    ("attack", "ring", "--r", "0x2"),
    ("attack", "split-brain", "--seed", "1_1"),
    ("attack", "split-brain", "--delta", "10.0"),
], ids=lambda argv: " ".join(argv))
def test_integer_flags_read_canonical_decimal(capsys, argv):
    # int() would read each but "0x2" and "10.0"
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "invalid integer value" in err


@pytest.mark.parametrize("env", ["1_000_000", " 5", "+5", "05"])
def test_budget_environment_reads_canonical_decimal(capsys, monkeypatch, env):
    monkeypatch.setenv("ABA_BUDGET", env)
    code, out, err = invoke(capsys, "check", "--validity", "strong", *POINT)
    assert code == 2 and out == ""
    assert err == f"configuration error: ABA_BUDGET must be a positive integer, got {env!r}\n"


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
    # a label holding the separator would make encoded configurations ambiguous
    ("domain", {"input_values": ["0", "1;p2=1"], "output_values": ["0", "1"]},
     "may not contain ';'"),
    ("domain", {"input_values": ["0", "1"], "output_values": "01"},
     "custom validity domain output_values must be a list of strings"),
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


# ---------------------------------------------------------------- run checks read the honest inputs


@pytest.mark.parametrize("listed", ["0", "1"])
def test_run_validity_ignores_a_listed_corrupted_input(capsys, tmp_path, listed):
    # the honest inputs are all "0", so strong validity allows only "0";
    # the value listed for party 3 is only its own starting input
    path = scenario_file(tmp_path, protocol="constant:1",
                         inputs={"0": "0", "1": "0", "2": "0", "3": listed},
                         adversary={"corrupted": {"3": {"behavior": "CRASH_AT", "time": 5}},
                                    "delivery": {"kind": "exact"}})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 1
    assert json.loads(out)["violations"] == ["validity"]


def test_run_coherence_ignores_a_listed_corrupted_input(capsys, tmp_path):
    # party 3 follows the protocol with "1", so the agreed core holds p3=1;
    # the "0" listed for it is not an honest input and must not clash
    adversary = {"corrupted": {"3": {"behavior": "FOLLOW_WITH_INPUT", "value": "1"}},
                 "delivery": {"kind": "exact"}}
    reports = []
    for inputs in ({"0": "0", "1": "0", "2": "0", "3": "0"}, {"0": "0", "1": "0", "2": "0"}):
        path = scenario_file(tmp_path, protocol="universal", adversary=adversary,
                             certificate=str(SCENARIOS / "strong-4-1-1.cert.json"),
                             inputs=inputs)
        code, out, _ = invoke(capsys, "run", path)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["violations"] == []
    assert set(reports[0]["decisions"].values()) == {"0"}


def test_run_interval_validity_skips_an_unreadable_corrupted_input(capsys, tmp_path):
    # party 0 never starts, so its "a" is in no configuration a check reads;
    # ba-star then breaks interval validity, which is what exit 1 reports
    path = scenario_file(tmp_path, protocol="ba-star", validity="interval:0:3",
                         params={"n": 3, "t_s": 1, "t_a": 0, "setup": "PKI"},
                         adversary={"corrupted": {"0": {"behavior": "CRASH_AT", "time": 0}},
                                    "delivery": {"kind": "exact"}},
                         inputs={"0": "a", "1": "0", "2": "0"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 1
    assert json.loads(out)["violations"] == ["validity"]


@pytest.mark.parametrize("mode, core, violation", [
    ("SYNCHRONOUS", "p0=1;p1=1;p2=0;p3=1", "acs-integrity"),  # p0 holds "0"
    ("SYNCHRONOUS", "p0=0;p1=1;p2=0", "acs-honest-core"),  # honest p3 left out
    ("ASYNCHRONOUS", "p0=0;p1=1", "acs-core-size"),  # below n - t_s = 3
])
def test_run_reports_each_acs_check_once(capsys, tmp_path, monkeypatch, mode, core,
                                          violation):
    decided = InputConfiguration.decode(core)
    monkeypatch.setitem(PROTOCOLS, "acs", lambda **_: lambda p: ConstantProtocol(decided))
    path = scenario_file(tmp_path, protocol="acs", validity=None,
                         network={"mode": mode, "delta": 10, "horizon": 600},
                         adversary={"delivery": {"kind": "exact" if mode == "SYNCHRONOUS"
                                                 else "uniform"}},
                         inputs={"0": "0", "1": "1", "2": "0", "3": "1"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 1
    payload = json.loads(out)
    assert set(payload["decisions"].values()) == {core}
    assert payload["violations"] == [violation]


def test_run_reports_partition_disagreement(capsys, tmp_path):
    # local-min below the bound n > 2*t_s + t_a: each side of the partition
    # decides the minimum of its own inputs
    path = scenario_file(tmp_path, protocol="local-min",
                         params={"n": 4, "t_s": 2, "t_a": 0, "setup": "PKI"},
                         network={"mode": "ASYNCHRONOUS", "delta": 10, "horizon": 6000},
                         adversary={"delivery": {"kind": "partition",
                                                 "groups": [[0, 1], [2, 3]]}},
                         inputs={"0": "0", "1": "0", "2": "1", "3": "1"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["decisions"] == {"0/0": "0", "1/0": "0", "2/0": "1", "3/0": "1"}
    assert payload["violations"] == ["agreement"]


@pytest.mark.parametrize("core, violations", [
    ("p0=1;p1=1;p2=1", []),
    ("p0=0;p1=1;p2=1", ["core-coherence"]),  # p0 holds "1"
])
def test_run_checks_core_coherence(capsys, tmp_path, monkeypatch, core, violations):
    def machine(party):
        decider = ConstantProtocol("1")
        decider.core = InputConfiguration.decode(core)
        return decider

    monkeypatch.setitem(PROTOCOLS, "bin-ba", lambda **_: machine)
    code, out, _ = invoke(capsys, "run", scenario_file(tmp_path))
    assert code == (1 if violations else 0)
    payload = json.loads(out)
    assert set(payload["decisions"].values()) == {"1"}
    assert payload["violations"] == violations


def test_fuzz_reads_the_certificate_once(capsys, monkeypatch):
    reads = []
    from_json = SimilarityCertificate.from_json

    def counted(text):
        reads.append(len(text))
        return from_json(text)

    monkeypatch.setattr(SimilarityCertificate, "from_json", counted)
    code, out, _ = invoke(capsys, "fuzz", str(SCENARIOS / "universal-strong-canonical.json"),
                          "--seeds", "5")
    assert code == 0
    assert json.loads(out)["runs"] == 5
    assert len(reads) == 1


def test_run_missing_file_exit_two(capsys):
    code, _, err = invoke(capsys, "run", "/nonexistent/scenario.json")
    assert code == 2


@pytest.mark.parametrize("overrides, message", [
    ({"inputs": ["1", "1", "1", "1"]}, "inputs must be a JSON object"),
    ({"network": {"delta": "x"}}, "network delta must be an integer"),
    ({"adversary": {"corrupted": {"3": {"behavior": "SILENT_TO", "parties": "12"}}},
      "inputs": {"0": "1", "1": "1", "2": "1"}},
     "SILENT_TO parties must be a list of party ids"),
    ({"params": {"n": "four", "t_s": 1, "t_a": 1}}, "params field n must be an integer, got 'four'"),
    ({"validity": "clique:x"}, "clique size in 'clique:x' must be an integer, got 'x'"),
    ({"network": {"delta": 10.9}}, "network delta must be an integer, got 10.9"),
    ({"network": {"delta": float("inf")}}, "network delta must be an integer, got inf"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"adversary": {"corrupted": {"3": {"behavior": "CRASH_AT", "time": 2.5}}}},
     "CRASH_AT time must be an integer, got 2.5"),
    # a behavior or delivery spec without the field it needs
    ({"adversary": {"corrupted": {"3": {"behavior": "EQUIVOCATE"}}}},
     "EQUIVOCATE missing 'values'"),
    ({"adversary": {"corrupted": {"3": {"behavior": "FOLLOW_WITH_INPUT"}}}},
     "FOLLOW_WITH_INPUT missing 'value'"),
    ({"adversary": {"corrupted": {"3": {"behavior": "SILENT_TO", "value": "1"}}}},
     "SILENT_TO missing 'parties'"),
    ({"adversary": {"delivery": {"kind": "partition"}}}, "partition delivery missing 'groups'"),
    # an honest party with no input: acs would take it into the core as None
    ({"protocol": "acs", "validity": None, "inputs": {"0": "0", "1": "1", "2": "0"}},
     "honest party 3 missing from inputs"),
    # an honest input outside the protocol's own domain, with no validity to
    # catch it at load
    ({"validity": None, "inputs": {"0": "0", "1": "2", "2": "0", "3": "1"}},
     "input '2' not in binary domain"),
    ({"protocol": "universal", "validity": None,
      "certificate": str(SCENARIOS / "strong-4-1-1.cert.json"),
      "inputs": {"0": "0", "1": "7", "2": "0", "3": "1"}},
     "input '7' outside the declared domain"),
    # input values are labels: strings, never null, numbers or lists
    ({"inputs": {"0": None, "1": "1", "2": "1", "3": "1"}},
     "input of party 0 must be a string, got None"),
    ({"inputs": {"0": "1", "1": 0, "2": "1", "3": "1"}},
     "input of party 1 must be a string, got 0"),
    ({"inputs": {"0": "1", "1": "1", "2": ["1"], "3": "1"}},
     "input of party 2 must be a string, got ['1']"),
    ({"adversary": {"corrupted": {"9": {"behavior": "CRASH_AT"}}}}, "corrupted party 9 out of range"),
])
def test_run_malformed_scenario_exit_two(capsys, tmp_path, overrides, message):
    code, out, err = invoke(capsys, "run", scenario_file(tmp_path, **overrides))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and message in err


def test_key_error_in_a_command_propagates(monkeypatch):
    # exit 2 is for bad input; a KeyError inside `cmd_check` (here from the
    # checker it calls) is a bug and must not read as one
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setattr("aba.cli.is_solvable", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["check", "--n", "4", "--ts", "1", "--ta", "1"])


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
@example([(("adversary", "corrupted", "3"), {"behavior": "EQUIVOCATE"})])
@example([(("adversary", "corrupted", "3"), {"behavior": "FOLLOW_WITH_INPUT"})])
@example([(("adversary", "corrupted", "3"), {"behavior": "SILENT_TO"})])
@example([(("adversary", "delivery"), {"kind": "partition"})])
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
    except ConfigError:  # what `main` reports with exit code 2
        pass


_any_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
              st.sampled_from(["7", "-3", " 12 ", "1.5", "1e3", "inf", "0x1"])),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=2), kids, max_size=3)),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@example(None)
@example(float("inf"))
@example(float("nan"))
@example(2.0)
@given(_any_json)
def test_readers_return_or_raise_configuration_errors(value):
    # each reader is total: a value it cannot read raises a ConfigError that
    # names the field, never int()'s TypeError, ValueError or OverflowError
    for reader in (read_integer, read_string, read_labels, read_object):
        try:
            result = reader(value, "field")
        except ConfigError as exc:
            assert str(exc).startswith("field ")
            continue
        if reader is read_integer:
            assert type(result) is int
        else:
            assert result is value


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


@pytest.mark.parametrize("argv, message", [
    # the right group and the middle copies would start from None
    (["triple-partition", "--protocol", "local-min", "--n", "5", "--ts", "2", "--ta", "1",
      "--i1", "p0=0;p1=0", "--i2", "p0=1"], "honest party 3 missing from inputs"),
    (["split-brain", "--protocol", "local-min", "--n", "4", "--ts", "2", "--ta", "0",
      "--i1", "p0=0;p1=0;p2=0;p3=0;p9=1", "--i2", "p0=1;p1=1;p2=1;p3=1"],
     "inputs reference a party outside 0..n-1"),
    (["split-brain", "--protocol", "bin-ba", "--i1", "garbage"],
     "input 'garbage' not in binary domain"),
    # the triple partition reads its inputs through its groups, which would
    # never reach p9
    (["triple-partition", "--protocol", "local-min", "--n", "5", "--ts", "2", "--ta", "1",
      "--i1", "p0=0;p1=0;p2=0;p3=0;p4=0;p9=1", "--i2", "p0=1;p1=1;p2=1;p3=1;p4=1"],
     "inputs reference a party outside 0..n-1"),
    (["split-brain", "--ta", "1"], "split_brain runs the warm-up case t_a = 0"),
    (["ring", "--r", "-1"], "round bound r must be non-negative"),
    # both flags are values or both are encoded configurations
    (["split-brain", "--protocol", "local-min", "--n", "4", "--ts", "2", "--ta", "0",
      "--i1", "0", "--i2", "p0=1;p1=1;p2=1;p3=1"], "must both be values"),
    (["split-brain", "--protocol", "local-min", "--n", "4", "--ts", "2", "--ta", "0",
      "--i1", "p0=0;p1=0;p2=0;p3=0", "--i2", "1"], "must both be values"),
    (["split-brain", "--protocol", "local-min", "--i1", "0;1", "--i2", "1"],
     "input value '0;1' holds ';'"),
])
def test_attack_bad_inputs_exit_two(capsys, argv, message):
    code, out, err = invoke(capsys, "attack", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and message in err


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


GOLDEN_CERT = json.loads((SCENARIOS / "strong-4-1-1.cert.json").read_text())


def _with(path, value):
    """The golden certificate with the field at `path` replaced by `value`."""
    data = json.loads(json.dumps(GOLDEN_CERT))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("certificate,message", [
    ([GOLDEN_CERT], "certificate must be a JSON object, got list"),
    ("sigma", "certificate must be a JSON object, got str"),
    (_with(("sigma",), [1, 2]), "certificate sigma must be a JSON object, got list"),
    (_with(("sigma",), [["a", "b"]]), "certificate sigma must be a JSON object, got list"),
    (_with(("sigma", "p0=0;p1=0;p2=0"), 0), "certificate sigma values must be output labels"),
    (_with(("domain", "input_values"), 5), "domain input_values must be a list of strings"),
    (_with(("domain", "output_values"), [0, 1]),
     "domain output_values must be a list of strings"),
    (_with(("domain",), ["0", "1"]), "certificate domain must be a JSON object, got list"),
    (_with(("params",), 4), "certificate params must be a JSON object, got int"),
    ({"params": GOLDEN_CERT["params"], "domain": GOLDEN_CERT["domain"]},
     "certificate missing 'sigma'"),
    (_with(("domain", "input_values"), ["0", 1]),
     "certificate domain input_values must be a list of strings"),
])
def test_run_universal_malformed_certificate_exit_two(capsys, tmp_path, certificate, message):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(certificate))
    path = scenario_file(tmp_path, protocol="universal", certificate=str(cert_path),
                         inputs={"0": "0", "1": "0", "2": "0", "3": "0"})
    code, out, err = invoke(capsys, "run", path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("configuration error:") and message in err


@pytest.mark.parametrize("field,value", [
    ("n", 4.9), ("n", True), ("t_s", True), ("t_a", False), ("t_s", 1.5),
    ("n", float("inf")), ("t_a", float("nan")),
])
@pytest.mark.parametrize("where", ["scenario", "certificate"])
def test_run_non_integral_params_exit_two(capsys, tmp_path, where, field, value):
    params = dict(GOLDEN_CERT["params"], **{field: value})
    if where == "scenario":
        path = scenario_file(tmp_path, params=params)
    else:
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(_with(("params",), params)))
        path = scenario_file(tmp_path, protocol="universal", certificate=str(cert_path),
                             inputs={"0": "0", "1": "0", "2": "0", "3": "0"})
    code, out, err = invoke(capsys, "run", path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("configuration error:")
    assert f"params field {field} must be an integer" in err


def test_run_integral_params_load_as_before(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(_with(("params",), dict(GOLDEN_CERT["params"], n=4.0))))
    path = scenario_file(tmp_path, protocol="universal", certificate=str(cert_path),
                         params={"n": "4", "t_s": 1.0, "t_a": 1, "setup": "PKI"},
                         inputs={"0": "0", "1": "0", "2": "0", "3": "0"})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    assert set(json.loads(out)["decisions"].values()) == {"0"}


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "aba", "check", "--validity", "strong",
         "--n", "4", "--ts", "1", "--ta", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"]["reason"] == "SIMILARITY_AND_N_OK"


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
    {"behavior": "EQUIVOCATE", "values": ["0", None]},
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


def _python_m_aba(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "aba", *argv], env=env, timeout=120,
                          **kwargs)


def test_closed_stdout_exits_141_without_a_message():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        out = _python_m_aba(["check", "--validity", "strong", "--n", "4", "--ts", "1",
                             "--ta", "1"], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert out.stderr == b""
    assert out.returncode == 141


def test_missing_scenario_file_still_exits_two():
    out = _python_m_aba(["run", str(SCENARIOS / "no-such-scenario.json")],
                        capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("configuration error:")


@pytest.mark.parametrize("overrides, message", [
    ({"adversary": {"delivery": {"kind": "random", "max_delay": 0}}},
     "delivery delay must be at least 1, got 0"),
    ({"adversary": {"delivery": {"kind": "random", "max_delay": -1}}},
     "delivery delay must be at least 1, got -1"),
    ({"protocol": "ba-star", "inputs": {"0": "abc", "1": "0.5", "2": "0.25", "3": "0"}},
     "fixed-point input is not a number: 'abc'"),
    ({"protocol": "ba-star", "inputs": {"0": "1/0", "1": "0.5", "2": "0.25", "3": "0"}},
     "fixed-point input is not a number: '1/0'"),
    ({"protocol": "acs", "validity": None, "inputs": {"0": "x;y", "1": "1", "2": "0", "3": "1"}},
     "input labels may not contain ';'"),
    # an honest ba-star input that interval validity cannot read
    ({"protocol": "ba-star", "validity": "interval:0:3",
      "inputs": {"0": "0.5", "1": "0", "2": "0.25", "3": "0"}},
     "interval validity cannot read an input of p0=0.5;p1=0;p2=0.25;p3=0 as an integer"),
    # the domain check names honest inputs only, not party 3's
    ({"adversary": {"corrupted": {"3": {"behavior": "CRASH_AT", "time": 5}}},
      "inputs": {"0": "1", "1": "7", "2": "1", "3": "7"}},
     "configuration error: inputs outside the domain: ['7']\n"),
    # a SYNCHRONOUS scenario whose delivery can take longer than delta
    ({"adversary": {"delivery": {"kind": "random", "max_delay": 30}}},
     "random max_delay 30 exceeds delta 10, which SYNCHRONOUS delivery may not"),
    ({"adversary": {"delivery": {"kind": "random"}}},
     "random max_delay 30 exceeds delta 10, which SYNCHRONOUS delivery may not"),
    ({"adversary": {"delivery": {"kind": "partition", "groups": [[0, 1], [2, 3]]}}},
     "partition delivery holds messages past delta, so it needs ASYNCHRONOUS mode"),
    # "" is a validity name like any other, not a way to turn the checks off
    ({"protocol": "constant:7", "validity": "", "inputs": {"0": "0", "1": "1", "2": "1", "3": "1"}},
     "configuration error: unknown validity name ''\n"),
])
def test_run_bad_delay_fixed_point_or_label_exit_two(capsys, tmp_path, overrides, message):
    code, out, err = invoke(capsys, "run", scenario_file(tmp_path, **overrides))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and message in err


def test_validity_help_prints_the_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("check", "certificate"):
        option = next(a for a in sub.choices[command]._actions if "--validity" in a.option_strings)
        assert option.help == " | ".join(catalog.VALIDITIES)
        assert option.help == "strong | weak | it-strong | interval:<lo>:<hi> | clique:<omega>"


@pytest.mark.parametrize("protocol, validity, corrupted, inputs", [
    # a listed input of a corrupted party is only its starting input, as a
    # value given through its behavior is: the load checks read neither
    ("bin-ba", "strong", {"behavior": "CRASH_AT", "time": 5},
     {"0": "1", "1": "1", "2": "1", "3": "7"}),
    ("bin-ba", "strong", {"behavior": "FOLLOW_WITH_INPUT", "value": "7"},
     {"0": "1", "1": "1", "2": "1"}),
    ("local-min", None, {"behavior": "CRASH_AT", "time": 5},
     {"0": "1", "1": "1", "2": "1", "3": "x;y"}),
    ("local-min", None, {"behavior": "FOLLOW_WITH_INPUT", "value": "x;y"},
     {"0": "1", "1": "1", "2": "1"}),
])
def test_run_load_checks_skip_a_corrupted_input(capsys, tmp_path, protocol, validity, corrupted,
                                                inputs):
    path = scenario_file(tmp_path, protocol=protocol, validity=validity, inputs=inputs,
                         adversary={"corrupted": {"3": corrupted}, "delivery": {"kind": "exact"}})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_run_synchronous_random_delivery_within_delta_runs(capsys, tmp_path):
    path = scenario_file(tmp_path, adversary={"delivery": {"kind": "random", "max_delay": 10}})
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("value", ["1e-999999999", "0e999999999", "1E+999999999"])
def test_run_ba_star_huge_exponent_exit_two_fast(capsys, tmp_path, value):
    # the exponent is rejected before Fraction would expand 10**exponent
    path = scenario_file(tmp_path, protocol="ba-star", validity=None,
                         params={"n": 3, "t_s": 1, "t_a": 1, "setup": "PKI"},
                         inputs={"0": value, "1": "0.25", "2": "0.625"})
    started = time.perf_counter()
    code, out, err = invoke(capsys, "run", path)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err == f"configuration error: fixed-point input exponent is out of range: {value!r}\n"


@pytest.mark.parametrize("command", [["run"], ["fuzz", "--seeds", "2"]])
def test_resilience_bound_breach_exit_two(capsys, tmp_path, command):
    # bin-ba at PKI (4,2,1) breaks n > 2*t_s + t_a: a configuration error,
    # not the property violation that exit 1 reports
    path = scenario_file(tmp_path, params={"n": 4, "t_s": 2, "t_a": 1, "setup": "PKI"})
    code, out, err = invoke(capsys, *command, path)
    assert code == 2 and out == ""
    assert err == ("configuration error: parameters violate the resilience bound: "
                   "n=4 t_s=2 t_a=1 setup=PKI\n")


# ---------------------------------------------------------------- scenario fuzz through the run


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
                  st.lists(st.integers(-1, 4), max_size=3))
# labels with ';' (the party separator of encoded configurations), '=' and
# fixed-point text that ba-star cannot parse, beside labels that work
_LABELS = st.sampled_from(["0", "1", "2", "x;y", "a;p1=z", "a=b", "0.5", "0.125", "0x10",
                           "abc", "", "nan", "0xzz", "1/0"])
_BEHAVIORS_DRAWN = st.one_of(
    st.fixed_dictionaries({"behavior": st.just("CRASH_AT"), "time": st.integers(-2, 40)}),
    st.fixed_dictionaries({"behavior": st.just("FOLLOW_WITH_INPUT"), "value": _LABELS}),
    st.fixed_dictionaries({"behavior": st.just("EQUIVOCATE"),
                           "values": st.lists(_LABELS, min_size=2, max_size=2)}),
    st.fixed_dictionaries({"behavior": st.just("SILENT_TO"),
                           "parties": st.lists(st.integers(0, 4), max_size=3)}),
)


def _mostly(vocabulary):
    """A value drawn from `vocabulary` four times in five, junk otherwise."""
    return st.integers(0, 4).flatmap(lambda i: _JUNK if i == 0 else vocabulary)


_RUN_EDITS = [
    (("protocol",), st.sampled_from(ATTACK_NAMES)),
    (("validity",), st.sampled_from([None, "strong", "weak", "clique:3", "interval:0:3"])),
    (("certificate",), st.sampled_from([str(SCENARIOS / "strong-4-1-1.cert.json"),
                                        "missing.cert.json"])),
    (("params", "n"), st.integers(1, 5)),
    (("params", "t_s"), st.integers(0, 2)),
    (("params", "t_a"), st.integers(0, 2)),
    (("params", "setup"), st.sampled_from(["PKI", "NONE"])),
    (("network", "mode"), st.sampled_from(["SYNCHRONOUS", "ASYNCHRONOUS"])),
    (("network", "delta"), st.integers(-1, 20)),
    (("network", "horizon"), st.integers(0, 3000)),
    (("adversary", "delivery", "kind"),
     st.sampled_from(["exact", "sync-random", "uniform", "random", "partition"])),
    (("adversary", "delivery", "max_delay"), st.integers(-2, 40)),
    (("adversary", "delivery", "groups"), st.sampled_from([[[0, 1], [2, 3]], [[0], [1, 2, 3]]])),
    (("adversary", "delivery", "release_time"), st.integers(-2, 200)),
    (("adversary", "corrupted", "0"), _BEHAVIORS_DRAWN),
    (("inputs", "0"), _LABELS),
    (("inputs", "1"), _LABELS),
    (("seed",), st.integers(0, 5)),
]
_RUN_EDIT = st.one_of([st.tuples(st.just(path), _mostly(values)) for path, values in _RUN_EDITS])


@settings(max_examples=300, deadline=None)
@example([(("adversary", "delivery"), {"kind": "random", "max_delay": 0})])
@example([(("protocol",), "ba-star"), (("inputs", "0"), "1/0")])
@example([(("protocol",), "acs"),
          (("adversary", "corrupted", "0"), {"behavior": "FOLLOW_WITH_INPUT", "value": "a;p1=z"})])
@example([(("adversary", "corrupted", "0"), {"behavior": "EQUIVOCATE"})])
@example([(("adversary", "corrupted", "0"), {"behavior": "FOLLOW_WITH_INPUT"})])
@example([(("adversary", "corrupted", "0"), {"behavior": "SILENT_TO"})])
@example([(("adversary", "delivery"), {"kind": "partition"})])
@example([(("protocol",), "acs"), (("validity",), None), (("params", "n"), 5)])
@given(st.lists(_RUN_EDIT, min_size=1, max_size=4))
def test_drawn_scenarios_run_or_exit_two(edits):
    data = {
        "params": {"n": 4, "t_s": 1, "t_a": 1, "setup": "PKI"},
        "protocol": "bin-ba",
        "validity": "strong",
        "network": {"mode": "SYNCHRONOUS", "delta": 10, "horizon": 3000},
        "adversary": {"delivery": {"kind": "exact"}, "corrupted": {}},
        "inputs": {"0": "1", "1": "0", "2": "1", "3": "1"},
        "seed": 1,
    }
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    try:
        Scenario(data)
        event("loads")
    except ConfigError:
        event("stops at load")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", str(path)])
    event(f"exit {code}")
    assert code in (0, 1, 2), err.getvalue()
    if out.getvalue():  # a run report: exit 1 is a property violation
        assert code != 2 and "trace_hash" in json.loads(out.getvalue())
    else:  # one line: a configuration error, or a protocol error (exit 1)
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("configuration error:" if code == 2 else "protocol error:")
