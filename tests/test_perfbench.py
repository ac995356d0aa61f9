"""The benchmark harness runs on the current package.

`perfbench/tracer.py` wraps functions of `aba` by name, so renaming one of
them breaks traced runs. A short check-grid run in each mode catches that
before a full benchmark run does. Short untraced runs of the two simulator
workloads pin the trace hashes of the engine's per-message path: fuzz-universal
digests the traces of the first seeds at each grid point, and run-attack every
report and trace hash it checks. Traced runs of both pin the same digests when
`events` is read before `jsonl()`. At seed 1 the digest of the first pass must
equal the one in `perfbench/golden.json`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload, trace):
    """A half-second benchmark run at seed 1, checked against the golden digest."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[0])["report"]
    assert report["golden_digest"] is not None
    assert report["digest"] == report["golden_digest"]
    assert json.loads(lines[-1])["correct"] is True, lines[-1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_check_grid_benchmark_is_correct(trace):
    run_benchmark("check-grid", trace)


@pytest.mark.parametrize("workload", ["fuzz-universal", "run-attack"])
def test_simulator_benchmark_is_correct(workload):
    run_benchmark(workload, "0")


@pytest.mark.parametrize("workload", ["fuzz-universal", "run-attack"])
def test_traced_simulator_benchmark_is_correct(workload):
    # a traced run reads `events` before `jsonl()`, so its digests are
    # written from payload texts that `events` put in the memo
    run_benchmark(workload, "1")
