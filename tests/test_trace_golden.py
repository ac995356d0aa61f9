"""Golden trace hashes: the simulator's traces must stay byte-identical.

The run and ACCEPT-8 values were recorded with the eager trace, which
serialized every payload at SEND and DELIVER time; the attack values were
recorded while `aba attack` still had its own protocol registry and the triple
partition its own delivery policy. Any change to how protocols are built,
messages scheduled, or the trace stored or written must reproduce them
exactly, in any process and under any PYTHONHASHSEED.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aba.cli import Scenario, main
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

ATTACK_KINDS = {
    "split-brain": ["--n", "4", "--ts", "2", "--ta", "0"],
    "triple-partition": ["--n", "5", "--ts", "2", "--ta", "1"],
    "ring": ["--r", "1"],
}

# sha256 over the report's trace hashes, one per line: split brain runs a-d,
# triple partition control then attack, the ring's single run
ATTACK_TRACE_SHA256 = {
    ("split-brain", "local-min", 1):
        "7758851648702171f923fd2375b14bd345e8ea2c49a0cc50cb51e5c3cfed57df",
    ("split-brain", "local-min", 2):
        "7758851648702171f923fd2375b14bd345e8ea2c49a0cc50cb51e5c3cfed57df",
    ("split-brain", "majority", 1):
        "3782bf60eee443fba445590d8183c15866c38361c6f046bfa0160c8286bef8b4",
    ("split-brain", "majority", 2):
        "3782bf60eee443fba445590d8183c15866c38361c6f046bfa0160c8286bef8b4",
    ("split-brain", "bin-ba", 1):
        "83ebcf1a028af8a91987fd8fc8ebf2cbcef2b8aac1686cdd7c14715df024e7da",
    ("split-brain", "bin-ba", 2):
        "53a24e8d56f38d977d301f73c7141612ddd1fa03b45b0369f48153fe5ab5761f",
    ("split-brain", "universal:strong", 1):
        "684f44c50985d7efacfa55d9177e31ecf8fbd3a891946b09685a0b8c6be4559b",
    ("split-brain", "universal:strong", 2):
        "8b780c9c979b94ee266ec020c7f5bec20df4a713953673bbe4fa7a902183bcfb",
    ("triple-partition", "local-min", 1):
        "cf00e8f99320c7e9a854a3eeb1dbed900f68b547ab9f995227aa2ce21b5af7c2",
    ("triple-partition", "local-min", 2):
        "cf00e8f99320c7e9a854a3eeb1dbed900f68b547ab9f995227aa2ce21b5af7c2",
    ("triple-partition", "majority", 1):
        "5fe65d11925dd5dbbe337bb37ce1be3ad12f353709e9c6f5230bc920f02a4a54",
    ("triple-partition", "majority", 2):
        "5fe65d11925dd5dbbe337bb37ce1be3ad12f353709e9c6f5230bc920f02a4a54",
    ("triple-partition", "bin-ba", 1):
        "d43b25ea88e7f7cbb1830a3b4ef179b19bf92b48f86bf2f4a02344388e742836",
    ("triple-partition", "bin-ba", 2):
        "1d9b1fd9eff753f053d29f31973140a6c76ee7df6b0a1c0efd0ed0406ac3e670",
    ("triple-partition", "universal:strong", 1):
        "9101b2bb410556e1d8f3a5b6d912101f3dc9530cb213f5c6401b0fd4f6783d52",
    ("triple-partition", "universal:strong", 2):
        "cab8448973caf02c9e3da2f9cb77d00eacfce1fa645c7f83003422883e31b63d",
    ("ring", "local-min", 1):
        "f1dbc59f7134d8f6b8b0cb030c1662b5f9d6ec1488ee885a7110a43f70593ed1",
    ("ring", "local-min", 2):
        "f1dbc59f7134d8f6b8b0cb030c1662b5f9d6ec1488ee885a7110a43f70593ed1",
    ("ring", "majority", 1):
        "b74e9a78b701daae3c58673a5e36adc100c26bb1cb5d3a934f9c0c3cca837845",
    ("ring", "majority", 2):
        "b74e9a78b701daae3c58673a5e36adc100c26bb1cb5d3a934f9c0c3cca837845",
    ("ring", "bin-ba", 1):
        "0c05597c8a371282e050782fd1e1720e1ebd224e87d15ee0b9f0f141833fbf85",
    ("ring", "bin-ba", 2):
        "8db87a72eb4b84b1ac0625a805beef27b355984a4ad0231efeec1b6b2e2d6248",
    ("ring", "universal:strong", 1):
        "69463469e6106ca56f5627377e909bd6c6a424ed01b65b4e7cebd48f91eec089",
    ("ring", "universal:strong", 2):
        "7993811eb8afe167b7f12dabf02912c6f4f08e68fedaed6d4bdeddfa7245e326",
}


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


def attack_trace_digest(kind: str, protocol: str, seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["attack", kind, "--protocol", protocol, "--seed", str(seed)]
                    + ATTACK_KINDS[kind])
    assert code == 0
    report = json.loads(out.getvalue())
    if kind == "split-brain":
        hashes = [report["executions"][execution]["trace_hash"]
                  for execution in ("a_right_crashed", "b_left_crashed",
                              "c_partitioned", "d_full_canonical")]
    elif kind == "triple-partition":
        hashes = [report["control"]["trace_hash"], report["attack"]["trace_hash"]]
    else:
        hashes = [report["checks"]["trace_hash"]]
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_SHA256))
def test_scenario_trace_hash_is_golden(name):
    assert scenario_trace_hash(name) == SCENARIO_TRACE_SHA256[name]


def test_accept8_combined_digest_is_golden():
    assert accept8_digest() == ACCEPT8_COMBINED_SHA256


@pytest.mark.parametrize("kind, protocol, seed", sorted(ATTACK_TRACE_SHA256))
def test_attack_trace_hashes_are_golden(kind, protocol, seed):
    assert attack_trace_digest(kind, protocol, seed) == \
        ATTACK_TRACE_SHA256[(kind, protocol, seed)]


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
