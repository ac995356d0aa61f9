"""The three benchmark workloads.

Each workload generates its inputs from the workload seed, builds its state
in `setup`, runs some operations untimed in `warm_up`, and hands out one pass
of operations. An operation's `fn` is the timed call; `check` runs untimed
afterwards, decides whether the output is correct and returns the record
that goes into the workload's digest.

Every end-to-end metric exists on every workload. check-grid makes no
protocol runs, so one run of a committed scenario (`run_probe`) gives its run
counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

from aba import catalog, cli, core
from aba.core import (
    Budget,
    InputConfiguration as IC,
    SimilarityCertificate,
    SystemParams,
    is_similar_to,
    N_TOO_SMALL,
    SIMILARITY_AND_N_OK,
    SIMILARITY_FAILS,
)
from aba.protocols import UniversalBa
from aba.simnet import (
    ASYNCHRONOUS,
    AdversaryScript,
    AsyncRandomDelay,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    canonical_schedule,
    run,
)

DELTA = 10


@dataclass
class Op:
    key: str
    cls: str
    fn: Callable[[], Any]


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _cli(argv: list) -> tuple[int, str]:
    """Runs `aba <argv>` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def n_bound(n: int, t_s: int, t_a: int, setup: str) -> bool:
    """n > 2*t_s + t_a with PKI, n > 3*t_s without."""
    return n > 2 * t_s + t_a if setup == "PKI" else n > 3 * t_s


def expected_solvable(name: str, n: int, t_s: int, t_a: int, setup: str) -> bool:
    """The ACCEPT-1 closed form: the n-bound, or for clique:w with PKI
    n > max(w*t_s, w*t_a + t_s, 2*t_s + t_a)."""
    if name.startswith("clique:"):
        omega = int(name.split(":")[1])
        return n > max(omega * t_s, omega * t_a + t_s, 2 * t_s + t_a)
    return n_bound(n, t_s, t_a, setup)


def _point_key(point) -> str:
    name, values, n, t_s, t_a, setup = point
    return f"{name}/{values}({n},{t_s},{t_a},{setup})"


def _decide_delta(events, delta: int) -> float:
    """Simulated time of the last DECIDE (only honest nodes decide), in Δ."""
    times = [e[0] for e in events if e[1] == "DECIDE"]
    return max(times) / delta if times else 0.0


def run_probe(root: str) -> tuple[list, list, bool]:
    """One run of the committed universal scenario: ([SEND events], [last
    DECIDE in Δ], all honest decided)."""
    scenario = cli.Scenario.load(os.path.join(root, "scenarios",
                                              "universal-strong-canonical.json"))
    result = run(scenario.machine_factory(), scenario.params, scenario.net,
                 scenario.script, scenario.inputs, scenario.seed)
    events = result.trace.events
    sends = sum(1 for e in events if e[1] == "SEND")
    ok = not result.undecided_honest(scenario.script.corrupted)
    return [sends], [_decide_delta(events, scenario.net.delta)], ok


# ---------------------------------------------------------------- check-grid


CHECK_POINTS = [
    ("strong", 3, 7, 2, 1, "PKI"),
    ("clique:3", 0, 7, 1, 1, "PKI"),
    ("interval:0:3", 0, 6, 1, 1, "PKI"),
    ("strong", 2, 7, 2, 0, "PKI"),
    ("it-strong", 2, 6, 1, 1, "PKI"),
    ("strong", 2, 6, 2, 1, "NONE"),
]
WITNESS_POINTS = [
    ("clique:3", 0, 7, 2, 2, "PKI"),  # witness is configuration #14 of 12,393
    ("clique:3", 0, 6, 2, 0, "PKI"),  # witness is configuration #2,717 of 3,402
]
CERTIFICATE_POINTS = [
    ("clique:3", 0, 7, 1, 1, "PKI"),
    ("interval:0:3", 0, 6, 1, 1, "PKI"),
    ("strong", 2, 7, 2, 0, "PKI"),
    ("it-strong", 2, 6, 1, 1, "PKI"),
]


class CheckGrid:
    name = "check-grid"

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root
        self.certs: dict[str, str] = {}

    def setup(self) -> tuple[dict, list]:
        # inputs are the fixed grid points; the seed only orders each class
        order = {}
        for cls, points in (("check", CHECK_POINTS), ("witness", WITNESS_POINTS),
                            ("certificate", CERTIFICATE_POINTS),
                            ("validate", CERTIFICATE_POINTS)):
            order[cls] = self.rng.sample(points, len(points))
        self.order = order
        return []

    def warm_up(self) -> None:
        prop, domain = catalog.resolve("it-strong", 2)
        core.is_solvable(prop, SystemParams(6, 1, 1, "PKI"), domain, Budget())

    def ops(self) -> list[Op]:
        out = []
        for cls in ("check", "witness"):
            for point in self.order[cls]:
                out.append(Op(f"{cls}:{_point_key(point)}", cls, self._verdict_fn(point)))
        for point in self.order["certificate"]:
            out.append(Op(f"certificate:{_point_key(point)}", "certificate",
                          self._certificate_fn(point)))
        for point in self.order["validate"]:
            out.append(Op(f"validate:{_point_key(point)}", "validate",
                          self._validate_fn(point)))
        return out

    @staticmethod
    def _verdict_fn(point):
        name, values, n, t_s, t_a, setup = point

        def fn():
            prop, domain = catalog.resolve(name, values)
            params = SystemParams(n, t_s, t_a, setup)
            return core.is_solvable(prop, params, domain, Budget())

        return fn

    def _certificate_fn(self, point):
        name, values, n, t_s, t_a, setup = point

        def fn():
            prop, domain = catalog.resolve(name, values)
            params = SystemParams(n, t_s, t_a, setup)
            outcome = core.compute_similarity_certificate(prop, params, domain, Budget())
            text = outcome.certificate.to_json() if outcome.feasible else None
            return outcome, text

        return fn

    def _validate_fn(self, point):
        name, values = point[0], point[1]
        key = _point_key(point)

        def fn():
            prop, _domain = catalog.resolve(name, values)
            cert = SimilarityCertificate.from_json(self.certs[key])
            return cert.validate(prop, Budget())

        return fn

    def check(self, op: Op, result) -> tuple[bool, Any]:
        point_key = op.key.split(":", 1)[1]
        point = next(p for p in CHECK_POINTS + WITNESS_POINTS + CERTIFICATE_POINTS
                     if _point_key(p) == point_key)
        name, values, n, t_s, t_a, setup = point
        if op.cls in ("check", "witness"):
            verdict = result.to_dict()
            solvable = expected_solvable(name, n, t_s, t_a, setup)
            if solvable:
                reason = SIMILARITY_AND_N_OK
            else:
                reason = SIMILARITY_FAILS if n_bound(n, t_s, t_a, setup) else N_TOO_SMALL
            ok = (verdict["solvable"] == solvable and verdict["reason"] == reason
                  and ("witness" in verdict) == (reason == SIMILARITY_FAILS))
            return ok, verdict
        if op.cls == "certificate":
            outcome, text = result
            _prop, domain = catalog.resolve(name, values)
            configs = sum(math.comb(n, k) * len(domain.input_values) ** k
                          for k in range(n - t_s, n + 1))
            ok = text is not None and len(outcome.certificate.sigma) == configs
            if text is not None:
                self.certs[point_key] = text
            return ok, hashlib.sha256(text.encode()).hexdigest() if text else None
        valid, detail = result
        return bool(valid), [valid, detail]

    def runs(self, first_pass: list) -> tuple[list, list, bool]:
        return run_probe(self.root)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- fuzz-universal


FUZZ_POINTS = [
    ("PKI", 4, 1, 1, "strong", 2),
    ("PKI", 5, 1, 1, "strong", 2),
    ("PKI", 5, 2, 0, "strong", 2),
    ("PKI", 6, 2, 1, "strong", 2),
    ("NONE", 4, 1, 1, "strong", 2),
    ("NONE", 4, 1, 0, "interval:0:3", 0),
]
FAMILIES = ("canonical", "async-adversarial")
SEEDS_PER_FAMILY = 40  # one pass: 6 points x 2 families x 40 seeds = 480 runs
HASHED_SEEDS = 2  # trace hashes enter the digest for the first seeds of each point


def _fuzz_inputs(params, domain, seed, family):
    """The input generator of ACCEPT-3 (`_fuzz_one` in the acceptance
    tests), without the run and the checks."""
    rng = random.Random(
        f"{seed}|{family}|{params.n}|{params.t_s}|{params.t_a}|{params.setup}"
    )
    n = params.n
    if family == "canonical":
        crashed = set(rng.sample(range(n), rng.randint(0, params.t_s)))
        net, script = canonical_schedule(crashed, delta=DELTA, horizon=12000)
        corrupted = crashed
        sync_mode = True
    else:
        corrupted = set(rng.sample(range(n), params.t_a))
        behaviors = {}
        for c in corrupted:
            if rng.random() < 0.5:
                behaviors[c] = Equivocate(domain.input_values[0], domain.input_values[-1])
            else:
                behaviors[c] = FollowWithInput(rng.choice(domain.input_values))
        script = AdversaryScript(
            corrupted=behaviors,
            delivery=AsyncRandomDelay(rng.choice([DELTA, 2 * DELTA, 4 * DELTA])),
        )
        net = NetworkConfig(mode=ASYNCHRONOUS, delta=DELTA, horizon=30000)
        sync_mode = False
    honest = [p for p in range(n) if p not in corrupted]
    truth = IC.of((p, rng.choice(domain.input_values)) for p in honest)
    return net, script, corrupted, sync_mode, honest, truth


class FuzzUniversal:
    name = "fuzz-universal"

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def setup(self) -> list:
        checks = []
        self.points = []
        for setup, n, t_s, t_a, validity, values in FUZZ_POINTS:
            params = SystemParams(n, t_s, t_a, setup)
            prop, domain = catalog.resolve(validity, values)
            verdict = core.is_solvable(prop, params, domain)
            cert = core.compute_similarity_certificate(prop, params, domain).certificate
            valid, _detail = cert.validate(prop)
            label = f"{setup}/{n}/{t_s}/{t_a}/{validity}"
            checks.append((f"verdict:{label}",
                           verdict.solvable == expected_solvable(validity, n, t_s, t_a, setup),
                           verdict.to_dict()))
            checks.append((f"certificate:{label}", bool(valid),
                           lambda cert=cert: hashlib.sha256(cert.to_json().encode()).hexdigest()))
            self.points.append((label, params, prop, domain, cert))
        base = self.seed * 1000
        self.corpus = []
        for k in range(SEEDS_PER_FAMILY):
            for family in FAMILIES:
                for point in self.points:
                    label, params, _prop, domain, _cert = point
                    inputs = _fuzz_inputs(params, domain, base + k, family)
                    self.corpus.append((f"{label}/{family}/{base + k}", point, family,
                                        base + k, k < HASHED_SEEDS, inputs))
        self.by_key = {entry[0]: entry for entry in self.corpus}
        return checks

    def warm_up(self) -> None:
        # the first pass runs about 20% slower than later ones without this
        for op in self.ops()[: 2 * len(self.points)]:
            op.fn()

    def ops(self) -> list[Op]:
        return [Op(entry[0], entry[2], self._run_fn(entry)) for entry in self.corpus]

    @staticmethod
    def _run_fn(entry):
        _key, point, _family, seed, _hashed, inputs = entry
        _label, params, _prop, _domain, cert = point
        net, script, _corrupted, _sync, _honest, truth = inputs

        def fn():
            machines = {}

            def factory(p):
                machine = UniversalBa(params, DELTA, cert)
                machines[p] = machine
                return machine

            return run(factory, params, net, script, truth, seed), machines

        return fn

    def check(self, op: Op, result) -> tuple[bool, Any]:
        _key, point, _family, _seed, hashed, inputs = self.by_key[op.key]
        _label, params, prop, domain, _cert = point
        _net, _script, corrupted, sync_mode, honest, truth = inputs
        run_result, machines = result
        n = params.n
        failures = []
        decisions = run_result.honest_decisions(corrupted)
        if run_result.undecided_honest(corrupted):
            failures.append("undecided")
        values = set(decisions.values())
        if len(values) > 1:
            failures.append("agreement")
        allowed = prop.evaluate(params, domain, truth)
        if any(value not in allowed for value in values):
            failures.append("validity")
        truth_map = truth.as_dict()
        cores = []
        for p in honest:
            machine = machines.get(p)
            agreed = machine.core if machine else None
            if agreed is None:
                continue
            cores.append(agreed.encode())
            if any(v != truth_map[q] for q, v in agreed.assignments if q in honest):
                failures.append("integrity")
            if sync_mode and not set(honest) <= set(agreed.parties):
                failures.append("honest-core")
            if len(agreed) < n - params.t_s:
                failures.append("core-size")
            if not is_similar_to(agreed, truth, params):
                failures.append("coherence")
        events = run_result.trace.events
        record = {
            "decisions": sorted(f"{p}/{t}={v}" for (p, t), v in decisions.items()),
            "cores": cores,
            "sends": sum(1 for e in events if e[1] == "SEND"),
            "decide_delta": _decide_delta(events, DELTA),
            "failures": sorted(set(failures)),
        }
        if hashed:
            record["trace_hash"] = run_result.trace.sha256()
        return not failures, record

    def runs(self, first_pass: list) -> tuple[list, list, bool]:
        sends = [record["sends"] for _key, record in first_pass]
        deltas = [record["decide_delta"] for _key, record in first_pass]
        return sends, deltas, True

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- run-attack


ATTACK_PROTOCOLS = ("local-min", "majority", "bin-ba", "universal:strong")
ATTACK_KINDS = (
    ("split-brain", ["--n", "4", "--ts", "2", "--ta", "0"]),
    ("triple-partition", ["--n", "5", "--ts", "2", "--ta", "1"]),
    ("ring", ["--r", "1"]),
)
# attack seeds per kind and protocol: with 5, 17 of the 66 ops are universal,
# so op_tail_ms (10 ops beyond it) falls among them, not on the seed-dependent
# edge between them and the cheaper protocols as it did with 3
ATTACK_SEEDS = 5
GENERATED = SystemParams(6, 2, 1, "PKI")


class RunAttack:
    name = "run-attack"

    def __init__(self, seed: int, root: str, work: str):
        self.seed = seed
        self.root = root
        self.work = work

    def setup(self) -> list:
        rng = random.Random(self.seed)
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.work)
        p = GENERATED
        flags = ["--validity", "strong", "--n", str(p.n), "--ts", str(p.t_s),
                 "--ta", str(p.t_a), "--setup", p.setup]
        cert_name = f"strong-{p.n}-{p.t_s}-{p.t_a}.cert.json"
        cert_path = os.path.join(self.work, cert_name)
        check_code, check_out = _cli(["check"] + flags)
        cert_code, _ = _cli(["certificate"] + flags + ["--out", cert_path])
        with open(cert_path) as fh:
            cert_text = fh.read()
        prop, _domain = catalog.resolve("strong", 2)
        valid, _detail = SimilarityCertificate.from_json(cert_text).validate(prop)
        checks = [
            ("check", check_code == 0, json.loads(check_out) if check_out else None),
            ("certificate", cert_code == 0 and bool(valid),
             hashlib.sha256(cert_text.encode()).hexdigest()),
        ]

        self.scenarios = []
        for name in sorted(os.listdir(os.path.join(self.root, "scenarios"))):
            if name.endswith(".json") and not name.endswith(".cert.json"):
                self.scenarios.append(os.path.join(self.root, "scenarios", name))
        self.committed = {f"run:{os.path.basename(path)}" for path in self.scenarios}
        for mode in ("sync", "async"):
            path = os.path.join(self.work, f"universal-{mode}.json")
            with open(path, "w") as fh:
                json.dump(self._generated_scenario(rng, mode, cert_name), fh)
            self.scenarios.append(path)
        self.attacks = []
        for _ in range(ATTACK_SEEDS):
            for kind, extra in ATTACK_KINDS:
                for protocol in ATTACK_PROTOCOLS:
                    self.attacks.append((kind, protocol, extra, rng.randrange(1, 10**6)))
        return checks

    def warm_up(self) -> None:
        # every run, and every attack kind and protocol once
        for op in self.ops()[: len(self.scenarios) + len(ATTACK_KINDS) * len(ATTACK_PROTOCOLS)]:
            op.fn()

    @staticmethod
    def _generated_scenario(rng: random.Random, mode: str, cert_name: str) -> dict:
        p = GENERATED
        if mode == "sync":
            corrupted = {str(c): {"behavior": "CRASH_AT", "time": 0}
                         for c in sorted(rng.sample(range(p.n), rng.randint(0, p.t_s)))}
            network = {"mode": "SYNCHRONOUS", "delta": DELTA, "horizon": 12000}
            delivery = {"kind": "exact"}
        else:
            corrupted = {}
            for c in sorted(rng.sample(range(p.n), p.t_a)):
                if rng.random() < 0.5:
                    corrupted[str(c)] = {"behavior": "EQUIVOCATE", "values": ["0", "1"]}
                else:
                    corrupted[str(c)] = {"behavior": "FOLLOW_WITH_INPUT",
                                         "value": rng.choice("01")}
            network = {"mode": "ASYNCHRONOUS", "delta": DELTA, "horizon": 30000}
            delivery = {"kind": "random", "max_delay": rng.choice([1, 2, 4]) * DELTA}
        inputs = {str(q): rng.choice("01") for q in range(p.n) if str(q) not in corrupted}
        return {
            "params": p.to_dict(), "protocol": "universal", "validity": "strong",
            "values": 2, "certificate": cert_name, "network": network,
            "adversary": {"corrupted": corrupted, "delivery": delivery},
            "inputs": inputs, "seed": rng.randrange(1, 10**6),
        }

    def ops(self) -> list[Op]:
        out = []
        trace_path = os.path.join(self.work, "trace.jsonl")
        for path in self.scenarios:
            argv = ["run", path, "--trace", trace_path]
            out.append(Op(f"run:{os.path.basename(path)}", "run",
                          lambda argv=argv: _cli(argv)))
        for kind, protocol, extra, seed in self.attacks:
            argv = ["attack", kind, "--protocol", protocol, "--seed", str(seed)] + extra
            out.append(Op(f"attack:{kind}:{protocol}:{seed}", "attack",
                          lambda argv=argv: _cli(argv)))
        return out

    def check(self, op: Op, result) -> tuple[bool, Any]:
        code, stdout = result
        report = json.loads(stdout) if stdout.strip() else {}
        if op.cls == "run":
            trace_file = report.pop("trace_file", None)
            ok = (code == (1 if report.get("violations") else 0)
                  and report.get("violations") == [] and report.get("undecided") == []
                  and trace_file is not None)
            if trace_file:
                events = []
                with open(trace_file) as fh:
                    for line in fh:
                        event = json.loads(line)
                        events.append((event["t"], event["kind"]))
                scenario = cli.Scenario.load(
                    next(p for p in self.scenarios if os.path.basename(p) == op.key[4:]))
                report["sends"] = sum(1 for e in events if e[1] == "SEND")
                report["decide_delta"] = _decide_delta(events, scenario.net.delta)
            return ok, {"code": code, "report": report}
        _, kind, protocol, _seed = op.key.split(":", 3)
        checks = report.get("checks", {})
        ok = code == 0
        if kind == "split-brain":
            ok = ok and checks.get("within_left_agreement") is True \
                and checks.get("within_right_agreement") is True
            if protocol == "local-min":
                ok = ok and checks.get("cross_group_disagreement") is True
        elif kind == "triple-partition":
            ok = ok and checks.get("replicas_identical") is True \
                and checks.get("within_left_agreement") is True \
                and checks.get("within_right_agreement") is True
        else:
            ok = ok and checks.get("all_middle_fidelity") is True
        return ok, {"code": code, "report": report}

    def runs(self, first_pass: list) -> tuple[list, list, bool]:
        # the committed scenarios only: the two generated ones change with the
        # seed, and six runs are too few to average that out
        runs = [record["report"] for key, record in first_pass if key in self.committed]
        return [r["sends"] for r in runs], [r["decide_delta"] for r in runs], True

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
