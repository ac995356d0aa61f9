"""Command-line front end: solvability checks, certificate synthesis,
scenario execution, fuzzing, and attack demonstrations.

Exit codes are a contract: 0 clean/solvable, 1 property violation,
2 configuration error (a protocol built below its resilience bound
included), 3 unsolvable verdict, 4 budget exceeded. Scenario, certificate
and validity-table files are read field by field through `core`'s readers
(`read_object`, `read_string`, `read_integer`, `read_labels`), each of which
raises its own ConfigError naming the field, so a missing or mistyped field
needs no wrapper here; scenario input values are read as strings. `main`
maps no KeyError to exit 2: one that reaches it is a bug and propagates.
A scenario's load checks, and the checks of each `aba run` and `aba fuzz`
run, read the honest configuration (`Scenario.honest`), the listed inputs
of the parties the adversary does not corrupt; runs read the agreed cores
from their own machines. `aba attack` takes two bare input values or two
encoded configurations, which name parties 0..n-1 only.
All outputs are pure functions of the provided files, flags, and seeds; the
ABA_BUDGET environment variable overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
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
    _indented,
    _integer_text,
    compute_similarity_certificate,
    is_similar_to,
    is_solvable,
    read_integer,
    read_object,
    read_string,
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
    check_input_parties,
    run,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_UNSOLVABLE = 3
EXIT_BUDGET = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that went away


def _integer(text: str) -> int:
    """An integer flag in canonical decimal (`core._integer_text`), else exit 2."""
    number = _integer_text(text)
    if number is None:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return number


def _positive(value, where: str) -> int:
    number = _integer_text(str(value))
    if number is None or number < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return number


def _budget_for(args) -> Budget:
    """The enumeration cap: --budget, else ABA_BUDGET, else the default."""
    budget = Budget()
    override = os.environ.get("ABA_BUDGET")
    if override:
        budget.max_configs = _positive(override, "ABA_BUDGET")
    if args.budget is not None:
        budget.max_configs = _positive(args.budget, "--budget")
    return budget


def _emit(data: dict, pretty: bool) -> None:
    """Prints a report, a plain JSON value: compact, or indented (`_indented`)."""
    print(_indented(data) if pretty else json.dumps(data, sort_keys=True))


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


def _parties(value, where: str) -> frozenset:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of party ids, got {value!r}")
    return frozenset(read_integer(p, where) for p in value)


def _equivocate(spec: dict) -> Equivocate:
    values = read_object(spec, "EQUIVOCATE", "values")["values"]
    if not isinstance(values, list) or len(values) != 2:
        raise ConfigError(f"EQUIVOCATE values must be a list of two values, got {values!r}")
    split = _parties(spec["split"], "EQUIVOCATE split") if "split" in spec else None
    return Equivocate(values[0], values[1], split)


_BEHAVIORS = {
    "CRASH_AT": lambda spec: CrashAt(read_integer(spec.get("time", 0), "CRASH_AT time")),
    "FOLLOW_WITH_INPUT": lambda spec: FollowWithInput(
        read_object(spec, "FOLLOW_WITH_INPUT", "value")["value"]
    ),
    "EQUIVOCATE": _equivocate,
    "SILENT_TO": lambda spec: SilentTo(
        _parties(read_object(spec, "SILENT_TO", "parties")["parties"], "SILENT_TO parties"),
        spec.get("value"),
    ),
}


def _delivery_policy(spec, net: NetworkConfig):
    if spec is None:
        return None
    kind = read_object(spec, "adversary delivery").get("kind")
    if kind == "exact":
        return SyncExactDelay(net.delta)
    if kind == "sync-random":
        return SyncRandomDelay(net.delta)
    if kind == "uniform":
        return AsyncUniformDelay()
    if kind == "random":
        policy = AsyncRandomDelay(read_integer(spec.get("max_delay", 3 * net.delta), "max_delay"))
        if net.mode == SYNCHRONOUS and policy.max_delay > net.delta:
            raise ConfigError(f"random max_delay {policy.max_delay} exceeds delta "
                              f"{net.delta}, which SYNCHRONOUS delivery may not")
        return policy
    if kind == "partition":
        groups = read_object(spec, "partition delivery", "groups")["groups"]
        if not isinstance(groups, list):
            raise ConfigError(f"partition groups must be a list, got {groups!r}")
        release = spec.get("release_time")
        policy = PartitionPolicy(
            [{(p, 0) for p in _parties(g, "partition group")} for g in groups],
            None if release is None else read_integer(release, "release_time"),
        )
        if net.mode == SYNCHRONOUS:
            raise ConfigError("partition delivery holds messages past delta, "
                              "so it needs ASYNCHRONOUS mode")
        return policy
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
        read_object(data, "scenario", "params", "protocol", "network", "inputs", "seed")
        self.params = SystemParams.from_dict(data["params"])
        net = read_object(data["network"], "network")
        mode = read_string(net.get("mode", "SYNCHRONOUS"), "network mode").upper()
        self.net = NetworkConfig(
            mode=mode,
            delta=read_integer(net.get("delta", 10), "network delta"),
            horizon=read_integer(net.get("horizon", 8000), "network horizon"),
        )
        self.protocol = read_string(data["protocol"], "protocol")
        self.seed = read_integer(data["seed"], "seed")
        self.validity_name = data.get("validity")
        if self.validity_name is not None:
            read_string(self.validity_name, "validity")
        self.values = read_integer(data.get("values", 2), "values")
        self.certificate_path = data.get("certificate")
        if self.certificate_path is not None:
            read_string(self.certificate_path, "certificate")
        if self.certificate_path and not os.path.isabs(self.certificate_path):
            self.certificate_path = os.path.join(base_dir, self.certificate_path)
        adversary = read_object(data.get("adversary", {}), "adversary")
        corrupted = {}
        for party, spec in read_object(adversary.get("corrupted", {}), "corrupted").items():
            kind = read_object(spec, f"corrupted party {party}").get("behavior")
            if not isinstance(kind, str) or kind not in _BEHAVIORS:
                raise ConfigError(f"unknown behavior {kind!r}")
            corrupted[read_integer(party, "corrupted party id")] = _BEHAVIORS[kind](spec)
        self.script = AdversaryScript(
            corrupted=corrupted,
            delivery=_delivery_policy(adversary.get("delivery"), self.net),
        )
        self.inputs = InputConfiguration.of(
            (read_integer(p, "input party id"), read_string(v, f"input of party {p}"))
            for p, v in read_object(data["inputs"], "inputs").items()
        )
        # the honest configuration: what the load checks and every run check read
        self.honest = InputConfiguration.of((p, v) for p, v in self.inputs.assignments
                                            if p not in corrupted)
        split = [v for _, v in self.honest.assignments if ";" in v]
        if split:
            raise ConfigError(f"input labels may not contain ';': {split}")
        self.validity = None
        self.domain = None
        if self.validity_name is not None:
            self.validity, self.domain = catalog.resolve(self.validity_name, self.values)
            bad = [v for _, v in self.honest.assignments
                   if v not in self.domain.input_values and self.protocol != "ba-star"]
            if bad:
                raise ConfigError(f"inputs outside the domain: {bad}")

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            data = json.load(fh)
        return cls(data, base_dir=os.path.dirname(os.path.abspath(path)))

    @functools.cached_property
    def certificate(self) -> Optional[SimilarityCertificate]:
        """The universal protocol's certificate file, read at the first run and
        kept for every later one; None for other protocols."""
        if self.protocol != "universal" or not self.certificate_path:
            return None
        with open(self.certificate_path) as fh:
            certificate = SimilarityCertificate.from_json(fh.read())
        if certificate.params != self.params:
            raise ConfigError("certificate parameters do not match the scenario")
        return certificate

    def machine_factory(self):
        return protocol_factory(self.protocol, self.params, self.net.delta, self.domain,
                                self.certificate)


def _check_run_properties(scenario: Scenario, result) -> dict:
    """Agreement; for acs the core-set contract, otherwise validity of every
    decided value whenever the scenario declares a validity property, and
    core coherence for universal. Every check reads `scenario.honest`, the
    listed inputs of the parties the adversary does not corrupt (`run` has
    checked that every honest party is listed)."""
    params, corrupted, honest = scenario.params, scenario.script.corrupted, scenario.honest
    decisions = result.honest_decisions(corrupted)
    violations = []
    values = set(decisions.values())
    if len(values) > 1:
        violations.append("agreement")
    if scenario.protocol == "acs" and decisions:
        core = next(iter(values))
        if not core.agrees_with(honest):
            violations.append("acs-integrity")
        if scenario.net.mode == SYNCHRONOUS and not set(honest.parties) <= set(core.parties):
            violations.append("acs-honest-core")
        if len(core) < params.n - params.t_s:
            violations.append("acs-core-size")
    elif scenario.validity and decisions:
        allowed = scenario.validity.evaluate(params, scenario.domain, honest)
        if any(value not in allowed for value in values):
            violations.append("validity")
        # coherence: the honest configuration is similar to every core an
        # honest party agreed on
        cores = {machine.core for (party, _), machines in result.machines.items()
                 if party not in corrupted for machine in machines
                 if getattr(machine, "core", None) is not None}
        if any(not is_similar_to(core, honest, params) for core in cores):
            violations.append("core-coherence")
    return {
        "decisions": attacks.decision_table(decisions),
        "undecided": list(map(attacks.node_label, result.undecided_honest(corrupted))),
        "violations": violations,
    }


def _run_checked(scenario: Scenario, seed: int) -> tuple:
    """Runs the scenario with `seed`; returns the run and its property summary."""
    result = run(scenario.machine_factory(), scenario.params, scenario.net,
                 scenario.script, scenario.inputs, seed)
    return result, _check_run_properties(scenario, result)


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


def _attack_inputs(i1: str, i2: str, params: SystemParams) -> tuple:
    """`--i1` and `--i2` as two input configurations. Both are encoded
    configurations, which may name parties 0..n-1 only, or both are bare
    values that every party holds; a mixed pair, or a bare value holding the
    encoding's ";", raises ConfigError."""
    if ("=" in i1) != ("=" in i2):
        raise ConfigError(f"--i1 {i1!r} and --i2 {i2!r} must both be values "
                          "or both be encoded configurations")
    if "=" in i1:
        return tuple(check_input_parties(InputConfiguration.decode(text), params)
                     for text in (i1, i2))
    for text in (i1, i2):
        if ";" in text:
            raise ConfigError(f"input value {text!r} holds ';', which only an "
                              "encoded configuration may")
    return tuple(InputConfiguration.of((p, text) for p in range(params.n)) for text in (i1, i2))


def cmd_attack(args) -> int:
    if args.scenario_kind == "ring":
        params = attacks.RING_PARAMS
    else:
        params = SystemParams(args.n, args.ts, args.ta, args.setup.upper())
    inputs_one, inputs_two = _attack_inputs(args.i1, args.i2, params)
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


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aba",
        description="Network-agnostic byzantine agreement: validity solvability "
        "checker, protocol simulator, and attack demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=_integer, required=True)
        p.add_argument("--ts", type=_integer, required=True)
        p.add_argument("--ta", type=_integer, required=True)
        p.add_argument("--setup", default="pki", choices=["pki", "none", "PKI", "NONE"])

    def add_validity(p):
        p.add_argument("--validity", default="strong",
                       help=" | ".join(catalog.VALIDITIES))
        p.add_argument("--values", type=_integer, default=2,
                       help="domain size for strong/weak/it-strong")
        p.add_argument("--validity-table", help="JSON file with a custom validity table")
        p.add_argument("--budget", type=_integer,
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
    fuzz.add_argument("--seeds", type=_integer, default=100)
    fuzz.add_argument("--pretty", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    attack = sub.add_parser("attack", help="run a lower-bound construction")
    attack.add_argument("scenario_kind", choices=["split-brain", "triple-partition", "ring"])
    attack.add_argument("--protocol", default="local-min",
                        help=" | ".join(PROTOCOLS) + " | universal:<validity> "
                        "(universal with a best-effort certificate for that validity)")
    attack.add_argument("--n", type=_integer, default=4)
    attack.add_argument("--ts", type=_integer, default=2)
    attack.add_argument("--ta", type=_integer, default=0)
    attack.add_argument("--setup", default="pki")
    attack.add_argument("--i1", default="0", help="first input value or encoded configuration")
    attack.add_argument("--i2", default="1", help="second input value or encoded configuration")
    attack.add_argument("--r", type=_integer, default=1, help="ring round bound")
    attack.add_argument("--seed", type=_integer, default=1)
    attack.add_argument("--delta", type=_integer, default=10)
    attack.add_argument("--pretty", action="store_true")
    attack.set_defaults(func=cmd_attack)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # meet a closed stdout here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; the flush at exit now writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
