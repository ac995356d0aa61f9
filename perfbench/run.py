"""Benchmark of the aba checker, simulator, protocols, attacks and CLI.

    python3 perfbench/run.py --workload check-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It imports the package from `src/`, so there
is nothing to build. The workloads are in `workloads.py`; why each was chosen
and which layer metric should move which end-to-end metric is recorded in
`layers.json`.

With `--trace 0` it sets up several times (setup_s is the median), then runs
passes of the workload's operations for `--seconds`, one at a time in a
closed loop, and checks every output untimed. Each operation's time is the
median of its samples, and each sample is scaled by the host's speed around
it, as measured by the units of `reference.py` that run between operations;
the report line also gives the unscaled figures. With `--trace 1` it sets up
once with tracing on, runs one pass untraced, then whole passes traced until
the time is up, and reports per-layer numbers for one set-up plus one pass,
and the tracing overhead. Spans are written to
`.bench_out/spans-<workload>-seed<seed>.jsonl`.

At the seed recorded in `golden.json` the digest of the first pass's outputs
must equal the stored one; `digests.py` checks and refreshes those digests.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is a report with the
full detail (stamps, sample counts, tail percentile, digests, self times).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check-grid", "fuzz-universal", "run-attack")
SETUP_REPEATS = 5
REFERENCE_INTERVAL = 0.25  # seconds between reference units; about 6% of the window
SCALE_REACH = 2.0  # seconds around a sample whose reference units scale it
SCALE_UNITS = 5  # fewest reference units that scale a sample
TAIL_BEYOND = 10


def _stamp(seed: int) -> dict:
    git_sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        git_sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    git_sha = fh.read().strip()
    source = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src", "aba")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                source.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    source.update(fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def _tail(durations: list) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond). With too few samples for that
    percentile to lie above the median, the maximum (percentile 100)."""
    ordered = sorted(durations)
    count = len(ordered)
    index = count - TAIL_BEYOND - 1
    if index < count // 2:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * (index + 1) / count, count - index - 1


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def verify(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def run_op(self, op):
        """Times one operation; returns (seconds, ok, record)."""
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.active = True
                result = self.tracer.span(f"op.{op.cls}", op.fn)
            else:
                result = op.fn()
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, exc
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        elapsed = time.perf_counter() - start
        if error is not None:
            ok, record = False, {"error": repr(error)}
        else:
            try:
                ok, record = self.workload.check(op, result)
            except Exception as exc:
                ok, record = False, {"check_error": repr(exc)}
        self.verify(op.key, ok)
        return elapsed, ok, record

    def one_pass(self, ops) -> tuple[float, list, list]:
        durations, records = [], []
        start = time.perf_counter()
        for op in ops:
            elapsed, _ok, record = self.run_op(op)
            durations.append(elapsed)
            records.append((op.key, record))
        return time.perf_counter() - start, durations, records

    def window(self, ops, seconds: float, side_tasks: list, reference) -> dict:
        """Passes over `ops` until the time is up; returns each operation's
        samples as (start, seconds). The first pass always completes, later
        ones skip an operation whose last time no longer fits. `side_tasks` run untimed between operations, spread evenly
        over the window, so that they meet the same mix of fast and slow
        moments of the host as the operations. `reference` runs between two
        operations at most once, and only when REFERENCE_INTERVAL seconds
        have passed since it last ran: units run back to back would time
        each other's warm caches, not the host."""
        samples = {op.key: [] for op in ops}
        first_records = None
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + seconds * (i + 0.5) / len(side_tasks) for i in range(len(side_tasks))]
        pending = list(side_tasks)
        last_reference = start - REFERENCE_INTERVAL
        passes = 0
        while True:
            records, ran = [], 0
            for op in ops:
                while pending and time.perf_counter() >= due[len(side_tasks) - len(pending)]:
                    pending.pop(0)()
                if time.perf_counter() - last_reference >= REFERENCE_INTERVAL:
                    reference()
                    last_reference = time.perf_counter()
                if passes:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    if samples[op.key][-1][1] > remaining:
                        continue
                began = time.perf_counter()
                elapsed, _ok, record = self.run_op(op)
                samples[op.key].append((began, elapsed))
                records.append((op.key, record))
                ran += 1
            if passes == 0:
                first_records = records
            passes += 1
            if not ran or time.perf_counter() >= deadline:
                break
        for task in pending:
            task()
        return {"samples": samples, "passes": passes, "first_records": first_records}


def _digest(setup_checks: list, records: list) -> str:
    from workloads import sha256_json

    setup = [[label, value() if callable(value) else value]
             for label, _ok, value in setup_checks]
    return sha256_json({"setup": setup,
                        "ops": sorted(records, key=lambda kv: kv[0])})


def _golden(workload: str, seed: int):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    entry = golden.get(workload)
    if entry and entry["seed"] == seed:
        return entry["digest"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "aba")) or \
            not os.path.isdir(os.path.join(ROOT, "scenarios")):
        print(f"perfbench: no aba sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads  # imports the package

    import_s = time.perf_counter() - started
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")

    def make(index: int = 0):
        if args.workload == "check-grid":
            return workloads.CheckGrid(args.seed, ROOT)
        if args.workload == "fuzz-universal":
            return workloads.FuzzUniversal(args.seed, ROOT)
        return workloads.RunAttack(args.seed, ROOT, f"{work}-{index}")

    try:
        if args.trace:
            return _traced(args, make)
        return _untraced(args, make, import_s)
    finally:
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def _untraced(args, make, import_s: float) -> int:
    """Set-up 0 builds the state the window uses; set-ups 1.. and the
    reference units run spread over the window."""
    import reference

    setup_times = []

    def timed_setup(workload):
        start = time.perf_counter()
        checks = workload.setup()
        workload.warm_up()
        setup_times.append(time.perf_counter() - start)
        return checks

    def extra_setup(index):
        workload = make(index)
        try:
            timed_setup(workload)
        finally:
            workload.close()

    reference_units = []  # (start, seconds)

    def reference_unit():
        reference_units.append((time.perf_counter(), reference.unit()))

    workload = make()
    try:
        setup_checks = timed_setup(workload)
        runner = Runner(workload)
        for label, ok, _value in setup_checks:
            runner.verify(f"setup:{label}", ok)
        side_tasks = [lambda i=i: extra_setup(i) for i in range(1, SETUP_REPEATS)]
        ops = workload.ops()
        window = runner.window(ops, args.seconds, side_tasks, reference_unit)
        sends, deltas, runs_ok = workload.runs(window["first_records"])
        runner.verify("runs", runs_ok)
    finally:
        workload.close()

    def scaled(start: float, seconds: float) -> float:
        """`seconds` as on a host where the reference unit takes REF_S: by the
        units within SCALE_REACH of the sample, or the nearest few."""
        near = [unit for at, unit in reference_units
                if start - SCALE_REACH <= at <= start + seconds + SCALE_REACH]
        if len(near) < SCALE_UNITS:
            middle = start + seconds / 2
            near = [unit for _gap, unit in sorted(
                (abs(at - middle), unit) for at, unit in reference_units)[:SCALE_UNITS]]
        return seconds * reference.REF_S / statistics.median(near)

    def op_metrics(op_times: dict) -> dict:
        times = list(op_times.values())
        tail, tail_pct, beyond = _tail(times)
        by_kind: dict = {}
        for op in ops:
            by_kind[f"{op.cls}_s"] = by_kind.get(f"{op.cls}_s", 0.0) + op_times[op.key]
        return {"ops_per_s": len(times) / sum(times),
                "op_p50_ms": statistics.median(times) * 1000,
                "op_tail_ms": tail * 1000,
                "op_tail_percentile": tail_pct,
                "op_tail_ops_beyond": beyond,
                "kind_s": by_kind}

    samples = window["samples"]
    timed = op_metrics({key: statistics.median(scaled(*sample) for sample in op_samples)
                        for key, op_samples in samples.items()})
    unscaled = op_metrics({key: statistics.median(seconds for _start, seconds in op_samples)
                           for key, op_samples in samples.items()})
    delta_tail, delta_tail_pct, delta_beyond = _tail(deltas)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": timed["ops_per_s"],
        "op_p50_ms": timed["op_p50_ms"],
        "op_tail_ms": timed["op_tail_ms"],
        "msgs_per_run": statistics.mean(sends),
        "decide_delta_p50": statistics.median(deltas),
        "decide_delta_tail": delta_tail,
    }

    digest = _digest(setup_checks, window["first_records"])
    golden = _golden(workload.name, args.seed)
    if golden is not None:
        runner.verify("golden-digest", digest == golden)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    result_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    report = {
        "workload": workload.name,
        "mode": "untraced",
        "stamp": _stamp(args.seed),
        "passes": window["passes"],
        "ops": len(samples),
        "samples_per_op": [min(map(len, samples.values())), max(map(len, samples.values()))],
        "op_tail_percentile": timed["op_tail_percentile"],
        "op_tail_ops_beyond": timed["op_tail_ops_beyond"],
        "kind_s": {kind: {"value": seconds, "unscaled": unscaled["kind_s"][kind], "unit": "s"}
                   for kind, seconds in sorted(timed["kind_s"].items())},
        "unscaled": {name: unscaled[name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "reference_units": len(reference_units),
        "reference_median_s": statistics.median(unit for _at, unit in reference_units),
        "setup_repeats": SETUP_REPEATS,
        "setup_s_samples": setup_times,
        "import_s": import_s,
        "runs_counted": len(deltas),
        "decide_delta_max": max(deltas),
        "decide_delta_tail_percentile": delta_tail_pct,
        "decide_delta_tail_samples_beyond": delta_beyond,
        "failed_frac": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "failures": runner.failures,
        "digest": digest,
        "golden_digest": golden,
        "metrics": result_metrics,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result_metrics}))
    return 0


def _traced(args, make) -> int:
    workload = make()
    try:
        return _traced_run(args, workload)
    finally:
        workload.close()


def _traced_run(args, workload) -> int:
    """Set-up traced, one pass untraced for reference, then whole traced
    passes until the time is up."""
    import tracer as tracing

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    tracer.active = True
    try:
        setup_checks = workload.setup()
    finally:
        tracer.active = False
    setup_snapshot = tracer.snapshot()
    tracing.uninstall(saved)
    workload.warm_up()

    plain = Runner(workload)
    for label, ok, _value in setup_checks:
        plain.verify(f"setup:{label}", ok)
    ops = workload.ops()
    deadline = time.perf_counter() + args.seconds
    untraced_s, _durations, untraced_records = plain.one_pass(ops)

    saved = tracing.install(tracer)
    tracer.reset()
    traced = Runner(workload, tracer)
    traced_passes: list = []
    traced_records = None
    try:
        while True:
            seconds, _durations, records = traced.one_pass(ops)
            traced_passes.append(seconds)
            if traced_records is None:
                traced_records = records
            if time.perf_counter() + seconds > deadline:
                break
    finally:
        tracing.uninstall(saved)
    pass_snapshot = tracer.snapshot()

    untraced_digest = _digest(setup_checks, untraced_records)
    traced_digest = _digest(setup_checks, traced_records)
    plain.verify("traced-digest", traced_digest == untraced_digest)
    golden = _golden(workload.name, args.seed)
    if golden is not None:
        plain.verify("golden-digest", untraced_digest == golden)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed

    combined = tracing.combine(setup_snapshot, pass_snapshot, len(traced_passes))
    layer = tracing.per_layer_metrics(combined)
    overhead = traced_passes[0] / untraced_s - 1
    layer["trace.overhead_frac"] = overhead

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.dump_spans(spans_path)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    result_metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                      for m in declared["per_layer"]}
    report = {
        "workload": workload.name,
        "mode": "traced",
        "stamp": _stamp(args.seed),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_passes,
        "trace_overhead_s": traced_passes[0] - untraced_s,
        "trace_overhead_frac": overhead,
        "digest": untraced_digest,
        "traced_digest": traced_digest,
        "golden_digest": golden,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": plain.failures + traced.failures,
        "self_times": {name: {"calls": calls, "total_s": total, "self_s": own}
                       for name, (calls, total, own) in sorted(combined["agg"].items())},
        "spans": {"file": os.path.relpath(spans_path, ROOT), "count": len(tracer.spans)},
        "metrics": result_metrics,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
