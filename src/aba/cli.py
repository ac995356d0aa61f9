"""Command-line front end: solvability checks, certificate synthesis,
scenario execution, fuzzing, and attack demonstrations.

Exit codes are a contract: 0 clean/solvable, 1 property violation,
2 configuration error, 3 unsolvable verdict, 4 budget exceeded. All outputs
are pure functions of the provided files, flags, and seeds; the ABA_BUDGET
environment variable overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

from . import attacks, catalog
from .core import (
    Budget,
    InputConfiguration,
    SimilarityCertificate,
    SystemParams,
    compute_similarity_certificate,
    is_similar_to,
    is_solvable,
)
from .errors import BudgetExceededError, ConfigError, ProtocolError
from .protocols import (
    AcsProtocol,
    BinaryBa,
    ConstantProtocol,
    RbcProtocol,
    SharedRandomBaStar,
    UniversalBa,
)
from .simnet import (
    DECIDE,
    SYNCHRONOUS,
    AdversaryScript,
    AsyncRandomDelay,
    AsyncUniformDelay,
    CrashAt,
    Equivocate,
    ExecutionTrace,
    FollowWithInput,
    NetworkConfig,
    PartitionPolicy,
    SilentTo,
    SyncExactDelay,
    SyncRandomDelay,
    run,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_UNSOLVABLE = 3
EXIT_BUDGET = 4


def _positive(value, where: str) -> int:
    try:
        number = int(value)
        if number >= 1:
            return number
    except ValueError:
        pass
    raise ConfigError(f"{where} must be a positive integer, got {value!r}")


def _budget_for(args) -> Budget:
    """The enumeration cap: --budget, else ABA_BUDGET, else the default."""
    budget = Budget()
    override = os.environ.get("ABA_BUDGET")
    if override:
        budget.max_configs = _positive(override, "ABA_BUDGET")
    if args.budget is not None:
        budget.max_configs = _positive(args.budget, "--budget")
    return budget


def _encode(value):
    """JSON form of the non-JSON values a report holds: the InputConfiguration
    that acs decides is written in its `encode()` form."""
    if isinstance(value, InputConfiguration):
        return value.encode()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(data: dict, pretty: bool) -> None:
    print(json.dumps(data, indent=2 if pretty else None, sort_keys=True, default=_encode))


def _resolve_validity(args, params: SystemParams) -> tuple:
    if getattr(args, "validity_table", None):
        return catalog.load_table_property(args.validity_table, params)
    return catalog.resolve(args.validity, values=args.values)


# ---------------------------------------------------------------- check


def cmd_check(args) -> int:
    params = SystemParams(args.n, args.ts, args.ta, args.setup.upper())
    prop, domain = _resolve_validity(args, params)
    verdict = is_solvable(prop, params, domain, _budget_for(args))
    _emit(
        {"validity": prop.name, "params": params.to_dict(), "verdict": verdict.to_dict()},
        args.pretty,
    )
    return EXIT_OK if verdict.solvable else EXIT_UNSOLVABLE


# ---------------------------------------------------------------- certificate


def cmd_certificate(args) -> int:
    params = SystemParams(args.n, args.ts, args.ta, args.setup.upper())
    prop, domain = _resolve_validity(args, params)
    outcome = compute_similarity_certificate(prop, params, domain, _budget_for(args))
    if not outcome.feasible:
        print(
            f"similarity condition fails; witness configuration: {outcome.witness.encode()}",
            file=sys.stderr,
        )
        return EXIT_UNSOLVABLE
    with open(args.out, "w") as fh:
        fh.write(outcome.certificate.to_json())
    _emit(
        {"validity": prop.name, "entries": len(outcome.certificate.sigma), "out": args.out},
        args.pretty,
    )
    return EXIT_OK


# ---------------------------------------------------------------- scenarios


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _parties(value, where: str) -> frozenset:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of party ids, got {value!r}")
    return frozenset(_integer(p, where) for p in value)


def _equivocate(spec: dict) -> Equivocate:
    values = spec["values"]
    if not isinstance(values, list) or len(values) != 2:
        raise ConfigError(f"EQUIVOCATE values must be a list of two values, got {values!r}")
    split = _parties(spec["split"], "EQUIVOCATE split") if "split" in spec else None
    return Equivocate(values[0], values[1], split)


_BEHAVIORS = {
    "CRASH_AT": lambda spec: CrashAt(_integer(spec.get("time", 0), "CRASH_AT time")),
    "FOLLOW_WITH_INPUT": lambda spec: FollowWithInput(spec["value"]),
    "EQUIVOCATE": _equivocate,
    "SILENT_TO": lambda spec: SilentTo(
        _parties(spec["parties"], "SILENT_TO parties"), spec.get("value")
    ),
}


def _delivery_policy(spec, net: NetworkConfig):
    if spec is None:
        return None
    kind = _mapping(spec, "adversary delivery").get("kind")
    if kind == "exact":
        return SyncExactDelay(net.delta)
    if kind == "sync-random":
        return SyncRandomDelay(net.delta)
    if kind == "uniform":
        return AsyncUniformDelay()
    if kind == "random":
        return AsyncRandomDelay(_integer(spec.get("max_delay", 3 * net.delta), "max_delay"))
    if kind == "partition":
        groups = spec["groups"]
        if not isinstance(groups, list):
            raise ConfigError(f"partition groups must be a list, got {groups!r}")
        release = spec.get("release_time")
        return PartitionPolicy(
            [{(p, 0) for p in _parties(g, "partition group")} for g in groups],
            None if release is None else _integer(release, "release_time"),
        )
    raise ConfigError(f"unknown delivery policy {kind!r}")


def _bin_ba(params, delta, domain, enforce_bounds, **_):
    labels = tuple(domain.input_values) if domain else ("0", "1")
    if len(labels) != 2:
        raise ConfigError("bin-ba needs a binary domain")
    return lambda p: BinaryBa(params, delta, enforce_bounds, labels=labels)


def _acs(params, delta, domain, enforce_bounds, **_):
    values = domain.input_values if domain else None
    return lambda p: AcsProtocol(params, delta, enforce_bounds, valid_values=values)


def _universal(params, delta, certificate, enforce_bounds, **_):
    if certificate is None:
        raise ConfigError("universal protocol needs a certificate: a scenario "
                          "\"certificate\" file, or universal:<validity> in aba attack")
    return lambda p: UniversalBa(params, delta, certificate, enforce_bounds)


# The protocol names of `aba run` and `aba attack`. Each builder takes the
# keyword arguments of `protocol_factory` (plus `value`, the <v> of
# constant:<v>) and returns the machine factory the simulator calls per party.
PROTOCOLS: dict[str, Callable] = {
    "constant:<v>": lambda value, **_: lambda p: ConstantProtocol(value),
    "local-min": lambda **_: lambda p: attacks.LocalMinStrawman(),
    "majority": lambda **_: lambda p: attacks.MajoritySelfBiasStrawman(),
    "rbc": lambda params, enforce_bounds, **_: lambda p: RbcProtocol(params, 0, enforce_bounds),
    "bin-ba": _bin_ba,
    "acs": _acs,
    "universal": _universal,
    "ba-star": lambda **_: lambda p: SharedRandomBaStar(),
}


def protocol_factory(name: str, params: SystemParams, delta: int, domain=None,
                     certificate: Optional[SimilarityCertificate] = None,
                     enforce_bounds: bool = True):
    """The machine factory of protocol `name`: a `PROTOCOLS` key, or
    constant:<value>. Unknown names and unusable arguments raise ConfigError."""
    key, value = name, None
    if name.startswith("constant:"):
        key, value = "constant:<v>", name.split(":", 1)[1]
    if key not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {name!r}; known: {' | '.join(PROTOCOLS)}")
    return PROTOCOLS[key](value=value, params=params, delta=delta, domain=domain,
                          certificate=certificate, enforce_bounds=enforce_bounds)


class Scenario:
    """Validated scenario file: parameters, domain, protocol, adversary,
    inputs, and seed."""

    def __init__(self, data: dict, base_dir: str = "."):
        _mapping(data, "scenario")
        for key in ("params", "protocol", "network", "inputs", "seed"):
            if key not in data:
                raise ConfigError(f"scenario missing {key!r}")
        self.params = SystemParams.from_dict(_mapping(data["params"], "params"))
        net = _mapping(data["network"], "network")
        mode = _string(net.get("mode", "SYNCHRONOUS"), "network mode").upper()
        self.net = NetworkConfig(
            mode=mode,
            delta=_integer(net.get("delta", 10), "network delta"),
            horizon=_integer(net.get("horizon", 8000), "network horizon"),
        )
        self.protocol = _string(data["protocol"], "protocol")
        self.seed = _integer(data["seed"], "seed")
        self.validity_name = data.get("validity")
        if self.validity_name is not None:
            _string(self.validity_name, "validity")
        self.values = _integer(data.get("values", 2), "values")
        self.certificate_path = data.get("certificate")
        if self.certificate_path is not None:
            _string(self.certificate_path, "certificate")
        if self.certificate_path and not os.path.isabs(self.certificate_path):
            self.certificate_path = os.path.join(base_dir, self.certificate_path)
        adversary = _mapping(data.get("adversary", {}), "adversary")
        corrupted = {}
        for party, spec in _mapping(adversary.get("corrupted", {}), "corrupted").items():
            kind = _mapping(spec, f"corrupted party {party}").get("behavior")
            if not isinstance(kind, str) or kind not in _BEHAVIORS:
                raise ConfigError(f"unknown behavior {kind!r}")
            corrupted[_integer(party, "corrupted party id")] = _BEHAVIORS[kind](spec)
        self.script = AdversaryScript(
            corrupted=corrupted,
            delivery=_delivery_policy(adversary.get("delivery"), self.net),
        )
        self.inputs = InputConfiguration.of(
            (_integer(p, "input party id"), str(v))
            for p, v in _mapping(data["inputs"], "inputs").items()
        )
        if any(p >= self.params.n for p in self.inputs.parties):
            raise ConfigError("inputs reference a party outside 0..n-1")
        self.validity = None
        self.domain = None
        if self.validity_name:
            self.validity, self.domain = catalog.resolve(self.validity_name, self.values)
            bad = [v for _, v in self.inputs.assignments
                   if v not in self.domain.input_values and self.protocol != "ba-star"]
            if bad:
                raise ConfigError(f"inputs outside the domain: {bad}")

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            data = json.load(fh)
        return cls(data, base_dir=os.path.dirname(os.path.abspath(path)))

    def machine_factory(self, store: Optional[dict] = None):
        certificate = None
        if self.protocol == "universal" and self.certificate_path:
            with open(self.certificate_path) as fh:
                certificate = SimilarityCertificate.from_json(fh.read())
            if certificate.params != self.params:
                raise ConfigError("certificate parameters do not match the scenario")
        build = protocol_factory(self.protocol, self.params, self.net.delta, self.domain,
                                 certificate)
        if store is None:
            return build

        def factory(p):
            machine = build(p)
            store.setdefault(p, []).append(machine)
            return machine

        return factory


def _check_run_properties(scenario: Scenario, result, machines: dict) -> dict:
    """Agreement; for acs the core-set contract, otherwise validity of every
    decided value against the ground-truth honest configuration whenever the
    scenario declares a validity property, and core coherence for universal."""
    corrupted = set(scenario.script.corrupted)
    decisions = result.honest_decisions(corrupted)
    violations = []
    values = set(decisions.values())
    if len(values) > 1:
        violations.append("agreement")
    truth = scenario.inputs
    if scenario.protocol == "acs" and decisions:
        core = next(iter(values))
        honest = [p for p in range(scenario.params.n) if p not in corrupted]
        truth_map = truth.as_dict()
        if any(
            value != truth_map[party]
            for party, value in core.assignments
            if party in honest
        ):
            violations.append("acs-integrity")
        if scenario.net.mode == SYNCHRONOUS and not set(honest) <= set(core.parties):
            violations.append("acs-honest-core")
        if len(core) < scenario.params.n - scenario.params.t_s:
            violations.append("acs-core-size")
    elif scenario.protocol != "acs" and scenario.validity and decisions:
        allowed = scenario.validity.evaluate(scenario.params, scenario.domain, truth)
        if any(value not in allowed for value in values):
            violations.append("validity")
        if scenario.protocol == "universal":
            # coherence: the true honest configuration is similar to every
            # core an honest party agreed on
            for party, machine_list in machines.items():
                if party in corrupted:
                    continue
                for machine in machine_list:
                    core = getattr(machine, "core", None)
                    if core is not None and not is_similar_to(core, truth, scenario.params):
                        violations.append("core-coherence")
    return {
        "decisions": {f"{p}/{t}": v for (p, t), v in sorted(decisions.items())},
        "undecided": [f"{p}/{t}" for p, t in result.undecided_honest(corrupted)],
        "violations": violations,
    }


def _run_checked(scenario: Scenario, seed: int) -> tuple:
    """Runs the scenario with `seed`; returns the run and its property summary."""
    machines: dict = {}
    result = run(scenario.machine_factory(machines), scenario.params, scenario.net,
                 scenario.script, scenario.inputs, seed)
    return result, _check_run_properties(scenario, result, machines)


def cmd_run(args) -> int:
    scenario = Scenario.load(args.scenario)
    result, summary = _run_checked(scenario, scenario.seed)
    text = result.trace.jsonl()
    summary["trace_hash"] = ExecutionTrace.text_sha256(text)
    summary["horizon_exceeded"] = bool(summary["undecided"])
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(text)
        summary["trace_file"] = args.trace
    _emit(summary, args.pretty)
    return EXIT_VIOLATION if summary["violations"] else EXIT_OK


# ---------------------------------------------------------------- fuzz


def cmd_fuzz(args) -> int:
    seeds = _positive(args.seeds, "--seeds")
    scenario = Scenario.load(args.scenario)
    total_violations = 0
    decided_runs = 0
    max_decision_time = 0
    for offset in range(seeds):
        result, summary = _run_checked(scenario, scenario.seed + offset)
        total_violations += len(summary["violations"])
        if not summary["undecided"]:
            decided_runs += 1
            decide_times = [t for t, *_ in result.trace.of_kind(DECIDE)]
            if decide_times:
                max_decision_time = max(max_decision_time, max(decide_times))
    report = {
        "runs": seeds,
        "decided_fraction": decided_runs / seeds,
        "violations": total_violations,
        "max_decision_time": max_decision_time,
    }
    _emit(report, args.pretty)
    return EXIT_VIOLATION if total_violations else EXIT_OK


# ---------------------------------------------------------------- attack


def cmd_attack(args) -> int:
    if args.scenario_kind == "ring":
        params = SystemParams(3, 1, 0, "NONE")
    else:
        params = SystemParams(args.n, args.ts, args.ta, args.setup.upper())
    if "=" in args.i1:
        inputs_one = InputConfiguration.decode(args.i1)
        inputs_two = InputConfiguration.decode(args.i2)
    else:
        inputs_one = InputConfiguration.of((p, args.i1) for p in range(params.n))
        inputs_two = InputConfiguration.of((p, args.i2) for p in range(params.n))
    name, certificate = args.protocol, None
    if name.startswith("universal:"):
        # the real stack at possibly-illegal parameters, with a best-effort
        # sigma where the similarity condition fails
        prop, domain = catalog.resolve(name.split(":", 1)[1], values=2)
        name, certificate = "universal", attacks.best_effort_certificate(prop, params, domain)
    factory = protocol_factory(name, params, args.delta, certificate=certificate,
                               enforce_bounds=False)
    if args.scenario_kind == "split-brain":
        report = attacks.split_brain(
            factory, params, inputs_one, inputs_two, args.seed, delta=args.delta
        )
    elif args.scenario_kind == "triple-partition":
        report = attacks.triple_partition(
            factory, params, inputs_one, inputs_two, args.seed, delta=args.delta
        )
    else:
        report = attacks.ring_attack(
            factory, inputs_one, inputs_two, r=args.r, seed=args.seed, delta=args.delta
        )
    _emit(report, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aba",
        description="Network-agnostic byzantine agreement: validity solvability "
        "checker, protocol simulator, and attack demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--ts", type=int, required=True)
        p.add_argument("--ta", type=int, required=True)
        p.add_argument("--setup", default="pki", choices=["pki", "none", "PKI", "NONE"])

    def add_validity(p):
        p.add_argument("--validity", default="strong",
                       help="strong | weak | it-strong | interval:<lo>:<hi> | clique:<omega>")
        p.add_argument("--values", type=int, default=2,
                       help="domain size for strong/weak/it-strong")
        p.add_argument("--validity-table", help="JSON file with a custom validity table")
        p.add_argument("--budget", type=int,
                       help="enumeration cap override (also: ABA_BUDGET env var)")

    check = sub.add_parser("check", help="decide solvability of a validity property")
    add_params(check)
    add_validity(check)
    check.add_argument("--pretty", action="store_true")
    check.set_defaults(func=cmd_check)

    cert = sub.add_parser("certificate", help="synthesize a similarity certificate")
    add_params(cert)
    add_validity(cert)
    cert.add_argument("--out", required=True)
    cert.add_argument("--pretty", action="store_true")
    cert.set_defaults(func=cmd_certificate)

    runp = sub.add_parser("run", help="execute one scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--trace", help="write the JSONL trace to this path")
    runp.add_argument("--pretty", action="store_true")
    runp.set_defaults(func=cmd_run)

    fuzz = sub.add_parser("fuzz", help="run a scenario across many seeds")
    fuzz.add_argument("scenario")
    fuzz.add_argument("--seeds", type=int, default=100)
    fuzz.add_argument("--pretty", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    attack = sub.add_parser("attack", help="run a lower-bound construction")
    attack.add_argument("scenario_kind", choices=["split-brain", "triple-partition", "ring"])
    attack.add_argument("--protocol", default="local-min",
                        help=" | ".join(PROTOCOLS) + " | universal:<validity> "
                        "(universal with a best-effort certificate for that validity)")
    attack.add_argument("--n", type=int, default=4)
    attack.add_argument("--ts", type=int, default=2)
    attack.add_argument("--ta", type=int, default=0)
    attack.add_argument("--setup", default="pki")
    attack.add_argument("--i1", default="0", help="first input value or encoded configuration")
    attack.add_argument("--i2", default="1", help="second input value or encoded configuration")
    attack.add_argument("--r", type=int, default=1, help="ring round bound")
    attack.add_argument("--seed", type=int, default=1)
    attack.add_argument("--delta", type=int, default=10)
    attack.add_argument("--pretty", action="store_true")
    attack.set_defaults(func=cmd_attack)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
