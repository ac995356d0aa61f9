"""Golden trace hashes: the simulator's traces must stay byte-identical.

The values were recorded with the eager trace, which serialized every payload
at SEND and DELIVER time; any change to how the trace is stored or written must
reproduce them exactly, in any process and under any PYTHONHASHSEED.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aba.cli import Scenario
from aba.simnet import run

from test_acceptance import _random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SCENARIO_TRACE_SHA256 = {
    "acs-sync-crash.json":
        "c39ac39758062946540cd42964ef96323703b2cd1f2dde09310c22cb3cebdb88",
    "ba-star.json":
        "5127f3af5869328cf0962102965939a7f138c41d2995cc793ace98cce7da61bf",
    "binba-async-byzantine.json":
        "bf773d7d7838e3ac9e483a7868d33b1a98aeab6c73e59e3d1239437c743aa8e1",
    "universal-strong-canonical.json":
        "5b6d5cd59db4ec182b7806943816c1d54dbe4f7460d4c22a1faf0b829044ab4e",
}

ACCEPT8_COMBINED_SHA256 = "53d49b943183e2e86eafc3fcfb5abd9a551dfaf3d585e46ebc19599b5360d28b"


def scenario_trace_hash(name: str) -> str:
    scenario = Scenario.load(str(SCENARIOS / name))
    result = run(scenario.machine_factory(), scenario.params, scenario.net,
                 scenario.script, scenario.inputs, scenario.seed)
    return result.trace.sha256()


def accept8_digest() -> str:
    """SHA-256 over the trace hashes of the 50 ACCEPT-8 replay scenarios, in
    the order and with the seeds that criterion 8 draws them."""
    master = random.Random(2024)
    combined = hashlib.sha256()
    for _ in range(50):
        seed = master.randint(0, 10**9)
        factory, params, net, script, inputs = _random_scenario(
            random.Random(master.randint(0, 10**9)))
        combined.update(run(factory, params, net, script, inputs, seed).trace.sha256().encode())
    return combined.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_SHA256))
def test_scenario_trace_hash_is_golden(name):
    assert scenario_trace_hash(name) == SCENARIO_TRACE_SHA256[name]


def test_accept8_combined_digest_is_golden():
    assert accept8_digest() == ACCEPT8_COMBINED_SHA256


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_accept8_digest_independent_of_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "from test_trace_golden import accept8_digest; print(accept8_digest())"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    assert out.stdout.strip() == ACCEPT8_COMBINED_SHA256
