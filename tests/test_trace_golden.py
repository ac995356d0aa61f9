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
from aba.core import InputConfiguration, SystemParams
from aba.protocols import AcsProtocol, core_wait_time
from aba.simnet import (ASYNCHRONOUS, DECIDE, DELIVER, SEND, AdversaryScript, DeliveryPolicy,
                        NetworkConfig, run)

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


# The layouts of the full-report pins: ATTACK_KINDS plus ring r=0 and r=2 and
# the triple partition at (8,3,2).
REPORT_LAYOUTS = {
    **{kind: [kind] + flags for kind, flags in ATTACK_KINDS.items()},
    "ring-r0": ["ring", "--r", "0"],
    "ring-r2": ["ring", "--r", "2"],
    "triple-partition-8-3-2": ["triple-partition", "--n", "8", "--ts", "3", "--ta", "2"],
}

# sha256 over the complete `aba attack` report as printed, so decision
# tables, checks, adjacent equality and undecided lists are pinned as well as
# the trace hashes. The ring-r2 bin-ba and universal:strong pins were moved
# when ring fidelity became a comparison per time step: copies that were
# reported unfaithful for a swap of same-time deliveries now read faithful,
# and every trace hash stayed.
ATTACK_REPORT_SHA256 = {
    ("split-brain", "local-min", 1):
        "b8616bf3496c73b2e5514b0d2dd0cfcb8e8c4f88a2b6b59900e5308784bbdc91",
    ("split-brain", "local-min", 2):
        "7d4597fcede6a916c41d0505d489fbbaa52029b148ec52e4020130efd2826481",
    ("split-brain", "majority", 1):
        "9d1e8ed27d24021f703c7c9f87ff75fb0bbe52e829bb48a728a5799f3e8d728e",
    ("split-brain", "majority", 2):
        "aa87e77013290c842fbe48b6f49f7328a46d640cfef2f59f0f4d1a34eb1a0b4a",
    ("split-brain", "bin-ba", 1):
        "ccb6e59a6ad7215456772378b6b976a8428c82a48eb044af5f7e1f93d75e36d9",
    ("split-brain", "bin-ba", 2):
        "ebf73b81215cbc762728432ba132e410c8dbe30c04bfb57f886810fd9724f753",
    ("split-brain", "universal:strong", 1):
        "67b1fee3c5fc06127a9c646ffbbd09ac107357f21409c26c8518353c101338fd",
    ("split-brain", "universal:strong", 2):
        "0f36dbc47101639a00870ab2e3f51eefafd9915af91180cebdf7983ac3fbc434",
    ("triple-partition", "local-min", 1):
        "3fa5b8d1ed04ec0441d173bee040593b6dfaf7f57ee03309f5c894fb64889e2f",
    ("triple-partition", "local-min", 2):
        "624c9c80a5e55742d34c9c8e66869b8e61d36e79afd3ca9becd4bc01abd2a37e",
    ("triple-partition", "majority", 1):
        "580e3b6e9fbc4d3553ccbca861f3f1afe84e0c95f131b3f53b11609694d0389f",
    ("triple-partition", "majority", 2):
        "59b9eafcdf9e0f94fd649834000b91f402044994e248e67db64cbf62567d514b",
    ("triple-partition", "bin-ba", 1):
        "b2fd0502295dfdf20e37c8f0f9a96d491d4ae98ef607f8d6f690f9c7521b84cc",
    ("triple-partition", "bin-ba", 2):
        "4d2c52a73a55162722863cff32f83e8731fb0b80c3fa4d469e053bd448248c4b",
    ("triple-partition", "universal:strong", 1):
        "f41290eaff7da11ae1e0c747f11184d1469dcc7e8f8a0131149c41efae5735b1",
    ("triple-partition", "universal:strong", 2):
        "1de72e7ceb9340762e924e1cfa3d1a56367dc915104b5c4362ede9d2312a9fac",
    ("ring", "local-min", 1):
        "642908dec0d56ce892dd10a1648a6fefd82cb3d712f2c8d5fcb66f06e391569d",
    ("ring", "local-min", 2):
        "e87bf65e8709944d19ac2a981b8879b7e4d241ef4fdea6c44a2dc863b4441a8b",
    ("ring", "majority", 1):
        "0370b822bff060191ae73339e994ecc7cbd256c80072d84481048a64003469e5",
    ("ring", "majority", 2):
        "bc4bd4b7ff401156a6008b9faa34b9f95aa27925f4c9cbd76915bd0f0456d5b1",
    ("ring", "bin-ba", 1):
        "72f665c7a23f56955a713ca7cc49d360160199ffb553604f376af112acaf5d2c",
    ("ring", "bin-ba", 2):
        "f0fb4e6744d56a878b8859aa1bef0f928c3e80a5122e660ad98625f96a75fb80",
    ("ring", "universal:strong", 1):
        "45a36c36886920fba2ff29c72133774253e6bb552854cc6fc9ad8eb23607ae94",
    ("ring", "universal:strong", 2):
        "6641ae4e31af03df26b9e833720c18f4a7762ec07ef18c81ed2b58e5e6d9bdb7",
    ("ring-r0", "local-min", 1):
        "b6d8b67f990a522c35894bf4214a1cda528a9387f88cdf8e5ecf2e2917743bc0",
    ("ring-r0", "majority", 1):
        "2676d5836f3bc151dc1b35cdba2781f133f48283eb77426381649564120edd99",
    ("ring-r0", "bin-ba", 1):
        "f3c223b3c2d632cb368a08d9ec1af3a489ff110ec6ec6ae4da228031dfc3a513",
    ("ring-r0", "universal:strong", 1):
        "e3cb64abcec52f37cc18e385afc436b53e09c608e1c62dd5f94cf28e2c4c1fae",
    ("ring-r2", "local-min", 1):
        "75f7b40870da6db2e47cd47646ab63f0d989bd508f5bb826f6fb4dcd9e72f44a",
    ("ring-r2", "majority", 1):
        "42badb172f3348ceab3d99c86d91e867c9b6a53ee84b9e24cfa1475df556e4d6",
    ("ring-r2", "bin-ba", 1):
        "56be27d4690b2d3e6991701cf59c1d720304f102ddc07de9913d72b1e406794e",
    ("ring-r2", "universal:strong", 1):
        "e93c2da6276b3fc940d7bb9e7801f617c218e22e27f7dab0624afe4bb69c8f1e",
    ("triple-partition-8-3-2", "local-min", 1):
        "350441b91a4bc43b0c83531d8d842e38eb8ec9c6ab20af155316609871922e3b",
    ("triple-partition-8-3-2", "majority", 1):
        "139cb855021b55731ac7cdd8fa624c6df9c07191e4d7a7dd0a5d9bf805e83dfa",
    ("triple-partition-8-3-2", "bin-ba", 1):
        "a5857b54506824958381f4edc012cd75a9425925b4539a98379324334909c76e",
    ("triple-partition-8-3-2", "universal:strong", 1):
        "681d4c1f737d85c17a12377fe49be7d60853f7f725afc48cabcbe0b9b8725917",
}

# sha256 over the complete `aba run` report of each committed scenario
RUN_REPORT_SHA256 = {
    "acs-sync-crash.json":
        "9bdea8cd734cd942e71340273f9d9f421409db80eca6f1e1654aa04427c17eb9",
    "ba-star.json":
        "d71c24e454f5cf531b3541fc655fe5d76d908a372ca1d9120f63a2cf4d289f31",
    "binba-async-byzantine.json":
        "a8141d66f6b7258cd7fd755346c8e941b49a0873da7471aecb2e876ef42148a9",
    "universal-strong-canonical.json":
        "ef76590341ce6d00eed73196fc9466713bfe37d980aac1c1be7da10f2d461a4b",
}

# ACS paths that no committed scenario or ACCEPT-8 run reaches, all at
# (4,1,1) in an asynchronous network. With party 3 crashed from the start:
# without setup and with one-unit delays, three instances decide 1 before
# T_core and the t-core timer itself sends the 0-votes; with PKI and random
# delays, no core is certified, main decides 0 and the voting fallback then
# sends the 0-votes. Under `SlowToPartyThree`, party 3 decides every instance
# 1 before main, and its fallback activation itself votes 0 on instance 0.
# Under `SlowCoresigToPartyThree`, party 3 adopts the certified core from
# another party's certificate share.
ACS_PATH_SCENARIOS = {
    "tcore-timer-zero-votes": ("NONE", {"kind": "uniform"}),
    "pki-fallback-zero-votes": ("PKI", {"kind": "random", "max_delay": 20}),
}

ACS_PATH_TRACE_SHA256 = {
    "tcore-timer-zero-votes":
        "7ee5f776ca1944ec9a3598dcf88215dc4d4f6097d5a10798eefc0fcb62922d8f",
    "pki-fallback-zero-votes":
        "ce0930b89b5d9953ddaf0466e66a242300781ac76ab202e6097940af44645119",
    "pki-activation-zero-votes":
        "bd83ae05ad64b4a47ec94db459df86ef9d1c323f4a63c62c0613ee09a6d7fcfc",
    "pki-certshare-adoption":
        "7ee6c2c428453a73344305d019f123fa4238e2daf001fd968c07227aa07020f3",
}


class SlowToPartyThree(DeliveryPolicy):
    """One unit per message, except: core signatures take 300, so no core is
    certified before main starts; main's messages to party 3 take 300, so
    parties 0-2 decide main 0 and then every instance 1 without it; and
    party 0's broadcast reaches party 3 only after 600."""

    def schedule(self, env, rng):
        tag = env.payload[0]
        if tag == ("rbc", 0) and env.dst[0] == 3:
            return env.sent_at + 600
        if tag == "coresig" or (tag == "main" and env.dst[0] == 3):
            return env.sent_at + 300
        return env.sent_at + 1


class SlowCoresigToPartyThree(DeliveryPolicy):
    """One unit per message, except that core signatures to party 3 take
    400: parties 0-2 certify the core and share the certificate, and party 3
    adopts it from a share before any signature reaches it."""

    def schedule(self, env, rng):
        if env.payload[0] == "coresig" and env.dst[0] == 3:
            return env.sent_at + 400
        return env.sent_at + 1


ACS_PATH_POLICIES = {
    "pki-activation-zero-votes": SlowToPartyThree,
    "pki-certshare-adoption": SlowCoresigToPartyThree,
}


def scenario_trace_hash(name: str) -> str:
    scenario = Scenario.load(str(SCENARIOS / name))
    result = run(scenario.machine_factory(), scenario.params, scenario.net,
                 scenario.script, scenario.inputs, scenario.seed)
    return result.trace.sha256()


def acs_path_run(name: str):
    if name in ACS_PATH_POLICIES:
        params = SystemParams(4, 1, 1, "PKI")
        inputs = InputConfiguration.of([(0, "0"), (1, "1"), (2, "0"), (3, "1")])
        return run(lambda p: AcsProtocol(params, 10), params,
                   NetworkConfig(ASYNCHRONOUS, 10, 30000),
                   AdversaryScript(delivery=ACS_PATH_POLICIES[name]()), inputs, 1)
    setup, delivery = ACS_PATH_SCENARIOS[name]
    scenario = Scenario({
        "params": {"n": 4, "t_s": 1, "t_a": 1, "setup": setup},
        "protocol": "acs",
        "validity": "strong",
        "network": {"mode": "ASYNCHRONOUS", "delta": 10, "horizon": 30000},
        "adversary": {"corrupted": {"3": {"behavior": "CRASH_AT", "time": 0}},
                      "delivery": delivery},
        "inputs": {"0": "0", "1": "1", "2": "0", "3": "1"},
        "seed": 1,
    })
    return run(scenario.machine_factory(), scenario.params, scenario.net,
               scenario.script, scenario.inputs, scenario.seed)


def zero_vote_sends(trace, instance: int) -> set:
    """(time, party) of each round-1 0-vote sent on an instance."""
    vote = f'v1:[["aba", {instance}], ["VOTE", 1, 0]]'
    return {(t, party) for t, _, party, _, detail in trace.of_kind(SEND)
            if detail["payload"] == vote}


def first_delivery(trace, party: int, tag: str) -> int:
    """Time of the first message tagged `tag` delivered to `party`."""
    prefix = f'v1:["{tag}"'
    return min(t for t, _, dst, _, detail in trace.of_kind(DELIVER)
               if dst == party and detail["payload"].startswith(prefix))


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
    return report_trace_digest(kind, json.loads(out.getvalue()))


def report_trace_digest(kind: str, report: dict) -> str:
    """sha256 over an attack report's trace hashes, one per line."""
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


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("layout, protocol, seed", sorted(ATTACK_REPORT_SHA256))
def test_attack_reports_are_golden(layout, protocol, seed):
    kind, *flags = REPORT_LAYOUTS[layout]
    text = cli_output(["attack", kind, "--protocol", protocol, "--seed", str(seed)] + flags)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        ATTACK_REPORT_SHA256[(layout, protocol, seed)]


REPLAY_PROTOCOLS = ("local-min", "majority", "bin-ba", "universal:strong")


def attack_digests(seed: int = 1) -> dict:
    """The full-report and trace digests of each attack kind against each of
    `REPLAY_PROTOCOLS`, keyed `"<kind> <protocol>"`."""
    digests = {}
    for kind, flags in ATTACK_KINDS.items():
        for protocol in REPLAY_PROTOCOLS:
            text = cli_output(["attack", kind, "--protocol", protocol, "--seed", str(seed)]
                              + flags)
            digests[f"{kind} {protocol}"] = [hashlib.sha256(text.encode()).hexdigest(),
                                             report_trace_digest(kind, json.loads(text))]
    return digests


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_attack_digests_independent_of_hash_seed(hash_seed):
    # trace readers memoize payload text by object id: a replay in a fresh
    # process under another string hash must print the same reports
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "import json; from test_trace_golden import attack_digests; "
         "print(json.dumps(attack_digests()))"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    digests = json.loads(out.stdout)
    assert sorted(digests) == sorted(f"{kind} {protocol}" for kind in ATTACK_KINDS
                                     for protocol in REPLAY_PROTOCOLS)
    for key, (report, traces) in digests.items():
        kind, protocol = key.split(" ")
        assert report == ATTACK_REPORT_SHA256[(kind, protocol, 1)], key
        assert traces == ATTACK_TRACE_SHA256[(kind, protocol, 1)], key


@pytest.mark.parametrize("name", sorted(RUN_REPORT_SHA256))
def test_run_reports_are_golden(name):
    text = cli_output(["run", str(SCENARIOS / name)])
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(ACS_PATH_TRACE_SHA256))
def test_acs_zero_vote_paths_are_golden(name):
    trace = acs_path_run(name).trace
    if name == "tcore-timer-zero-votes":
        assert min(zero_vote_sends(trace, 3))[0] == core_wait_time(10)
    elif name == "pki-fallback-zero-votes":
        assert zero_vote_sends(trace, 3)
    elif name == "pki-activation-zero-votes":
        assert {party for _, party in zero_vote_sends(trace, 0)} == {3}
    else:
        # party 3 decides holding no core signature: it adopted a shared certificate
        decided = next(t for t, _, party, _, _ in trace.of_kind(DECIDE) if party == 3)
        assert first_delivery(trace, 3, "certshare") <= decided
        assert decided < first_delivery(trace, 3, "coresig")
    assert trace.sha256() == ACS_PATH_TRACE_SHA256[name]
