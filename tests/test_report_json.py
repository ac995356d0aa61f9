"""Reports are plain JSON values, and `core._indented` writes every indented
document as `json.dumps(value, indent=2, sort_keys=True)` would.

An attack report is what the standard encoder writes with no `default`
hook, and reads back equal, for every protocol that runs in that attack;
`--pretty` stdout is the compact stdout indented, for every command.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aba import attacks, catalog
from aba.cli import PROTOCOLS, main, protocol_factory
from aba.core import InputConfiguration, SystemParams, _indented

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# ---------------------------------------------------------------- the writer

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(st.characters(), max_size=8))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
@example({})
@example([[], {}, [{}], {"": []}])
@example({"b": 1, "a": {"z": [1.5, -0.0, 1e300]}, "é": "é\U0001f600"})
@example([1, [2, [3, []]], {"k": None}])
def test_indented_equals_indented_dumps(value):
    assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)


# ---------------------------------------------------------------- attack reports


# The two input values of each protocol; ba-star reads fixed-point text in [0, 1).
VALUES = {"ba-star": ("0.25", "0.75")}


def attack_report(kind: str, name: str) -> dict:
    """`aba attack <kind>` in process, at the CLI's defaults (a 5-party
    layout with one middle party for triple-partition), with protocol `name`
    built as `PROTOCOLS` builds it."""
    if kind == "ring":
        params = attacks.RING_PARAMS
    elif kind == "triple-partition":
        params = SystemParams(5, 2, 1, "PKI")
    else:
        params = SystemParams(4, 2, 0, "PKI")
    certificate = None
    if name == "universal":
        prop, domain = catalog.resolve("strong", 2)
        certificate = attacks.best_effort_certificate(prop, params, domain)
    factory = protocol_factory(name.replace("<v>", "0"), params, 10, certificate=certificate,
                               enforce_bounds=False)
    zeros, ones = (InputConfiguration.of((p, v) for p in range(params.n))
                   for v in VALUES.get(name, "01"))
    if kind == "ring":
        return attacks.ring_attack(factory, zeros, ones, r=1, seed=1)
    if kind == "triple-partition":
        return attacks.triple_partition(factory, params, zeros, ones, seed=1)
    return attacks.split_brain(factory, params, zeros, ones, seed=1)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("kind", ["split-brain", "triple-partition", "ring"])
def test_attack_reports_are_plain_json(kind, name):
    report = attack_report(kind, name)
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_acs_reports_write_a_decided_core_as_its_encoding():
    report = attack_report("split-brain", "acs")
    decided = report["executions"]["d_full_canonical"]["decisions"]
    assert all(InputConfiguration.decode(value).encode() == value
               for value in decided.values() if value is not None)
    assert any(value is not None for value in decided.values())


# ---------------------------------------------------------------- --pretty


def cli_out(capsys, argv) -> tuple:
    code = main(argv)
    return code, capsys.readouterr().out


ATTACK_ARGS = {
    "split-brain": [],
    "triple-partition": ["--n", "5", "--ts", "2", "--ta", "1"],
    "ring": [],
}
COMMANDS = {
    "check-solvable": ["check", "--n", "4", "--ts", "1", "--ta", "1"],
    "check-witness": ["check", "--validity", "clique:3", "--n", "6", "--ts", "2", "--ta", "0"],
    "certificate": ["certificate", "--n", "4", "--ts", "1", "--ta", "1"],
    **{f"run-{path.stem}": ["run", str(path)] for path in sorted(SCENARIOS.glob("*.json"))
       if not path.name.endswith(".cert.json")},
    "fuzz": ["fuzz", str(SCENARIOS / "universal-strong-canonical.json"), "--seeds", "2"],
    **{f"attack-{kind}-{protocol}": ["attack", kind, "--protocol", protocol, *extra]
       for kind, extra in ATTACK_ARGS.items()
       for protocol in ("local-min", "acs", "universal:strong")},
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_pretty_output_is_the_compact_output_indented(name, capsys, tmp_path):
    argv = COMMANDS[name]
    if argv[0] == "certificate":
        argv = argv + ["--out", str(tmp_path / "cert.json")]
    code, compact = cli_out(capsys, argv)
    assert code in (0, 1, 3)
    assert cli_out(capsys, argv + ["--pretty"]) == (
        code, json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n")
