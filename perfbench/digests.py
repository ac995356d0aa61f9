"""Checks the golden digests of every workload at the default seed.

    python3 perfbench/digests.py            # compare with golden.json
    python3 perfbench/digests.py --write    # store the agreed digests in golden.json

For each workload it runs the benchmark untraced under two PYTHONHASHSEED
values and traced under a third, one run at a time, and requires every
digest to agree; the traced run also checks in-process that its traced pass
gives the same digest as its untraced pass. Without --write it exits 1 unless
the digests equal golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check-grid", "fuzz-universal", "run-attack")
SEED = 1
RUNS = (("0", "0"), ("1", "0"), ("2", "1"))  # (PYTHONHASHSEED, --trace)


def report_of(workload: str, hash_seed: str, trace: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", trace],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    path = os.path.join(HERE, "golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        digests = set()
        for hash_seed, trace in RUNS:
            report = report_of(workload, hash_seed, trace)
            digests.add(report["digest"])
            if trace == "1":
                digests.add(report["traced_digest"])
            print(f"{workload} PYTHONHASHSEED={hash_seed} trace={trace}: {report['digest']}"
                  + (f" traced {report['traced_digest']}" if trace == "1" else ""))
        if len(digests) != 1:
            print(f"{workload}: digests disagree", file=sys.stderr)
            ok = False
            continue
        digest = digests.pop()
        if args.write:
            golden[workload] = {"seed": SEED, "digest": digest}
        elif golden.get(workload, {}).get("digest") != digest:
            print(f"{workload}: digest differs from golden.json", file=sys.stderr)
            ok = False
    if args.write and ok:
        with open(path, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
