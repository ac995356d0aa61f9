"""A fixed unit of pure-Python work that measures how fast the host runs now.

The host shares its cores with other machines, and its speed for this kind of
code swings by half over seconds to minutes. `run.py` times `unit()` between
the workload's operations, all through the window, and scales each timed
sample by `REF_S / median(time of the units run around it)`: a timing reads
as it would on a host where one unit takes `REF_S` seconds. A change to the
aba package does not change this unit, so the scaled timings still move with
the program.

The unit mixes many kinds of pure-Python work (objects in a priority queue,
dicts keyed by tuples, JSON and SHA-256 of a trace, compiling and calling
many small functions, rational arithmetic, sequence matching), as the
workloads do, because loops with a small code footprint do not see the slow
phases.
"""

from __future__ import annotations

import dataclasses
import difflib
import fractions
import gc
import hashlib
import heapq
import json
import random
import re
import textwrap
import time

REF_S = 0.015  # about the median unit on a 2-vCPU Intel Xeon host, Python 3.11

_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, '{i}')):\n"
    f"    for k in range(x):\n"
    f"        if k % {i + 2} == 0:\n"
    f"            y = (y, k)\n"
    f"    return [y, {{'a': x, 'b': [x] * 3}}]\n"
    for i in range(40)
)
_WORDS = ["".join(random.Random(i).choice("abcdefgh") for _ in range(6)) for i in range(300)]
_PATTERN = re.compile(r"(a+)(b|c)d?")


@dataclasses.dataclass(order=True)
class _Event:
    t: float
    seq: int
    kind: str = dataclasses.field(compare=False)
    body: dict = dataclasses.field(compare=False)


def _work() -> tuple:
    rng = random.Random(7)
    namespace: dict = {}
    exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    calls = [namespace[f"f{i}"](30) for i in range(40)]
    queue: list = []
    for i in range(1500):
        heapq.heappush(queue, _Event(rng.random(), i, rng.choice(("SEND", "DELIVER", "TIMER")),
                                     {"p": i % 7, "v": (i, str(i))}))
    seen: dict = {}
    log = []
    while queue:
        event = heapq.heappop(queue)
        key = (event.kind, event.body["p"])
        seen[key] = seen.get(key, 0) + 1
        if event.kind == "SEND" and event.seq % 3 == 0:
            log.append({"t": round(event.t, 6), "k": event.kind,
                        "b": {"p": event.body["p"], "v": list(event.body["v"])}})
    digest = hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()
    total = fractions.Fraction(0)
    for i in range(1, 120):
        total += fractions.Fraction(i % 7 + 1, i)
    left, right = " ".join(_WORDS[:150]), " ".join(_WORDS[50:200])
    ratio = difflib.SequenceMatcher(None, left.split(), right.split()).ratio()
    matches = sum(1 for word in _WORDS if _PATTERN.search(word))
    wrapped = textwrap.fill(left, 40)
    return len(calls), len(seen), digest, total, ratio, matches, len(wrapped)


_EXPECTED = _work()


def unit() -> float:
    """Runs one unit with the collector off, so that the program's heap does
    not change its cost; returns its seconds. Raises if the unit's result
    changed, which would make it a different unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = _work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("reference unit changed its result")
    return elapsed
