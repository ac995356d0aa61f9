"""Report pins for the attack library calls at layouts the CLI pins in
`test_trace_golden.py` do not reach, and checks that only `simnet.run`
builds a `Simulation` and only `Simulation.add_node` tells behaviors apart.

Each pin is the sha256 of `json.dumps(report, sort_keys=True)` for one
attack called directly (not through `aba attack`), at seed 1, with inputs
all "0" then all "1". The pins were recorded from the code before every
attack execution went through `simnet.run`, so they hold that change to
byte-identical reports: decisions, checks and trace hashes. The ring-r2
universal:strong pin was moved since, when ring fidelity became a comparison
per time step: its fidelity flags went from false to true, and its trace
hashes stayed.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from aba import attacks, catalog
from aba.cli import protocol_factory
from aba.core import InputConfiguration, SystemParams

SRC = Path(__file__).resolve().parent.parent / "src" / "aba"

RING_PARAMS = SystemParams(3, 1, 0, "NONE")

# layout -> (attack kind, parameters, ring round bound)
LAYOUTS = {
    "ring-r0": ("ring", RING_PARAMS, 0),
    "ring-r2": ("ring", RING_PARAMS, 2),
    "triple-partition-7-3-1": ("triple-partition", SystemParams(7, 3, 1, "PKI"), None),
    "split-brain-6-3-0": ("split-brain", SystemParams(6, 3, 0, "PKI"), None),
}

REPORT_SHA256 = {
    ("ring-r0", "local-min"):
        "f710d16bc139ebba62717c048c0cba5dcf7da9a82c498efad49e9b97ec215f84",
    ("ring-r0", "universal:strong"):
        "88d25cc0095cb30d7ab90ec75da59b4875aa2f513e2893661d0d78b6c54c18a4",
    ("ring-r2", "local-min"):
        "75bad033313c4cd80d3de2ec14d5140fb0a09118a821ac8980c428d5459b9666",
    ("ring-r2", "universal:strong"):
        "965c5fddf6d775f38b7247edd636cdffca90808c0a255ee2c9c1593629cbb127",
    ("triple-partition-7-3-1", "local-min"):
        "385c1225e02974e871c59888404047502d156d2b1081d48e6b7a78039d51093e",
    ("triple-partition-7-3-1", "universal:strong"):
        "4fb034dac58b73f255217869dd967a1e005c91a110444354a62ad5326a942c6e",
    ("split-brain-6-3-0", "local-min"):
        "5c82ace46fb4bab91283018f94e50d9af42c3da0417bdd9d182a26edfb079e13",
    ("split-brain-6-3-0", "universal:strong"):
        "8029e1a76642bad1170aac96707c871be4da846831164104e32b5d781a624a3b",
}


def attack_report(layout: str, protocol: str) -> dict:
    kind, params, r = LAYOUTS[layout]
    certificate = None
    if protocol.startswith("universal:"):
        prop, domain = catalog.resolve(protocol.split(":", 1)[1], values=2)
        protocol, certificate = "universal", attacks.best_effort_certificate(prop, params, domain)
    factory = protocol_factory(protocol, params, 10, certificate=certificate,
                               enforce_bounds=False)
    zeros = InputConfiguration.of((p, "0") for p in range(params.n))
    ones = InputConfiguration.of((p, "1") for p in range(params.n))
    if kind == "ring":
        return attacks.ring_attack(factory, zeros, ones, r=r, seed=1)
    if kind == "triple-partition":
        return attacks.triple_partition(factory, params, zeros, ones, seed=1)
    return attacks.split_brain(factory, params, zeros, ones, seed=1)


@pytest.mark.parametrize("layout, protocol", sorted(REPORT_SHA256))
def test_attack_library_reports_are_pinned(layout, protocol):
    text = json.dumps(attack_report(layout, protocol), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[(layout, protocol)]


BEHAVIORS = {"CrashAt", "FollowWithInput", "Equivocate", "SilentTo"}


def _name(node) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def calling_scopes(matches) -> set:
    """(module, enclosing function or class) of every call in src/aba that
    `matches`."""
    found = set()

    def visit(node, module: str, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child):
                found.add((module, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}".lstrip("."))
            else:
                visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, "")
    return found


def test_only_simnet_run_builds_a_simulation():
    # every execution, attacks included, goes through the one path
    assert calling_scopes(lambda call: _name(call.func) == "Simulation") == {("simnet", "run")}


def test_only_add_node_tells_behaviors_apart():
    # add_node alone turns a behavior into protocol copies and their inputs;
    # run's input rule reads those copies rather than the behavior types
    def tests_a_behavior_type(call) -> bool:
        if _name(call.func) != "isinstance" or len(call.args) != 2:
            return False
        types = call.args[1]
        return any(_name(t) in BEHAVIORS
                   for t in (types.elts if isinstance(types, ast.Tuple) else [types]))

    assert calling_scopes(tests_a_behavior_type) == {("simnet", "Simulation.add_node")}
