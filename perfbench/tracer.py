"""Per-layer tracing for the benchmark, installed from outside the package.

`install(tracer)` replaces the public entry points of aba.core, aba.catalog,
aba.simnet, aba.protocols (through a delegating proxy around every machine
the simulator builds), aba.attacks and aba.cli with wrappers at the places
callers look them up; `uninstall` puts the originals back. No file of the
package changes.

Every wrapped call is a frame on one stack, so a layer's self time is its
duration minus the time of the wrapped calls inside it. Coarse boundaries
also keep a span (id, parent, name, start, end) in memory; the fine-grained
ones (similar, evaluate, handler calls) are only aggregated, which keeps a
pass of millions of calls from holding millions of spans.
"""

from __future__ import annotations

import functools
import json
import re
import time

from aba import attacks, catalog, cli, core
from aba.core import Budget, SimilarityCertificate, ValidityProperty
from aba.protocols import UniversalBa
from aba.simnet import ExecutionTrace, Simulation

UNIVERSAL_LAYERS = ("rbc", "claims", "main", "aba", "coresig", "certshare")

# A UniversalBa payload serializes as ["acs", [<tag>, ...]] where the tag is
# either a name or a [name, index] pair.
_LAYER_RE = re.compile(r'v\d+:\["acs", \[\[?"([a-z]+)"')


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list = []  # [name, start, child_time, span_id]
        self._next_id = 0
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._universal: dict[int, list] = {}  # id(sim) -> honest UniversalBa machines

    # -- frames

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self, keep_span: bool) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if keep_span:
            self.spans.append((span_id, parent[3] if parent else None, name, start, end))

    def span(self, name: str, fn, *args, keep_span: bool = True, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(keep_span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- results

    def snapshot(self) -> dict:
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counts": dict(self.counts),
        }

    def reset(self) -> None:
        self.agg.clear()
        self.counts.clear()

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, keep_span: bool = True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, *args, keep_span=keep_span, **kwargs)

    return wrapper


class _MachineProxy:
    """Delegates to a protocol machine and times each handler call."""

    def __init__(self, machine, tracer: Tracer):
        self._machine = machine
        self._tracer = tracer

    def on_start(self, ctx, value):
        return self._tracer.span("protocols.handler", self._machine.on_start, ctx, value,
                                 keep_span=False)

    def on_message(self, ctx, src, payload):
        return self._tracer.span("protocols.handler", self._machine.on_message, ctx, src,
                                 payload, keep_span=False)

    def on_timer(self, ctx, tag):
        return self._tracer.span("protocols.handler", self._machine.on_timer, ctx, tag,
                                 keep_span=False)

    def __getattr__(self, name):
        return getattr(self._machine, name)


def _tally_run(tracer: Tracer, sim: Simulation) -> None:
    """Counts one finished simulation's trace events and ACS paths."""
    tracer.count("simnet.runs")
    events = sim.trace.events
    tracer.count("simnet.events", len(events))
    sends = delivers = sigs = coins = 0
    layers = dict.fromkeys(UNIVERSAL_LAYERS, 0)
    for _t, kind, _party, _replica, detail in events:
        if kind == "SEND":
            sends += 1
            match = _LAYER_RE.match(detail["payload"])
            if match and match.group(1) in layers:
                layers[match.group(1)] += 1
        elif kind == "DELIVER":
            delivers += 1
        elif kind == "SIGN":
            sigs += 1
        elif kind == "COIN":
            coins += 1
    tracer.count("simnet.sends", sends)
    tracer.count("simnet.delivers", delivers)
    tracer.count("protocols.sigs", sigs)
    tracer.count("protocols.coins", coins)
    for layer, amount in layers.items():
        tracer.count(f"protocols.msgs.{layer}", amount)
    machines = tracer._universal.pop(id(sim), [])
    tracer.count("protocols.universal_machines", len(machines))
    tracer.count("protocols.certified_machines",
                 sum(1 for m in machines if m.acs.main_bit == 1))


def install(tracer: Tracer) -> list:
    """Installs the wrappers; returns the (owner, attribute, original) list
    that `uninstall` restores."""
    saved: list = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # core: verdicts, synthesis, the similarity scan, validation, JSON
    patch(core, "is_trivial", _wrap(tracer, "core.is_trivial", core.is_trivial))
    synthesis = _wrap(tracer, "core.synthesis", core.compute_similarity_certificate)
    patch(core, "compute_similarity_certificate", synthesis)
    patch(cli, "compute_similarity_certificate", synthesis)

    enumerate_configs = core.enumerate_input_configs

    @functools.wraps(enumerate_configs)
    def counted_configs(params, domain, budget=None):
        for config in enumerate_configs(params, domain, budget):
            if tracer.active:
                tracer.count("core.configs")
            yield config

    patch(core, "enumerate_input_configs", counted_configs)

    similar = core.similar

    @functools.wraps(similar)
    def traced_similar(config, params, domain, budget=None):
        if not tracer.active:
            return similar(config, params, domain, budget)
        budget = budget if budget is not None else Budget()
        before = budget.pair_checks_used
        result = tracer.span("core.similar", similar, config, params, domain, budget,
                             keep_span=False)
        tracer.count("core.pairs_scanned", budget.pair_checks_used - before)
        return result

    patch(core, "similar", traced_similar)
    patch(SimilarityCertificate, "validate",
          _wrap(tracer, "core.validate", SimilarityCertificate.validate))
    patch(SimilarityCertificate, "to_json",
          _wrap(tracer, "core.cert_json", SimilarityCertificate.to_json))

    # catalog: every property resolved by name evaluates through a wrapper
    resolve = catalog.resolve

    @functools.wraps(resolve)
    def traced_resolve(name, values=2):
        prop, domain = resolve(name, values)
        evaluate = _wrap(tracer, "catalog.evaluate", prop.evaluate, keep_span=False)
        return ValidityProperty(name=prop.name, evaluate=evaluate), domain

    patch(catalog, "resolve", traced_resolve)

    # simnet: runs, machine construction, trace reads
    sim_run = Simulation.run

    @functools.wraps(sim_run)
    def traced_sim_run(self):
        result = tracer.span("simnet.run", sim_run, self)
        if tracer.active:
            _tally_run(tracer, self)
        return result

    add_node = Simulation.add_node

    @functools.wraps(add_node)
    def traced_add_node(self, node, machine_factory, behavior=None):
        if not tracer.active:
            return add_node(self, node, machine_factory, behavior)

        def factory(party):
            machine = machine_factory(party)
            if isinstance(machine, UniversalBa) and not node.corrupted:
                tracer._universal.setdefault(id(self), []).append(machine)
            return _MachineProxy(machine, tracer)

        return add_node(self, node, factory, behavior)

    patch(Simulation, "run", traced_sim_run)
    patch(Simulation, "add_node", traced_add_node)

    jsonl = ExecutionTrace.jsonl

    @functools.wraps(jsonl)
    def traced_jsonl(self):
        text = tracer.span("simnet.jsonl", jsonl, self)
        if tracer.active:
            tracer.count("simnet.jsonl_bytes", len(text))  # json.dumps escapes to ASCII
        return text

    patch(ExecutionTrace, "jsonl", traced_jsonl)
    patch(ExecutionTrace, "sha256", _wrap(tracer, "simnet.sha256", ExecutionTrace.sha256))
    patch(ExecutionTrace, "node_transcript",
          _wrap(tracer, "simnet.transcript", ExecutionTrace.node_transcript))

    # attacks and cli entry points
    for name in ("split_brain", "triple_partition", "ring_attack", "best_effort_certificate"):
        patch(attacks, name, _wrap(tracer, f"attacks.{name}", getattr(attacks, name)))
    load = cli.Scenario.__dict__["load"].__func__
    patch(cli.Scenario, "load", classmethod(_wrap(tracer, "cli.scenario_load", load)))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def combine(setup: dict, passes: dict, pass_count: int) -> dict:
    """One set-up plus one pass: set-up totals as they are, pass totals
    divided by the number of passes."""
    zero = [0, 0.0, 0.0]
    agg = {
        name: [s + p / pass_count
               for s, p in zip(setup["agg"].get(name, zero), passes["agg"].get(name, zero))]
        for name in set(setup["agg"]) | set(passes["agg"])
    }
    counts = {
        name: setup["counts"].get(name, 0) + passes["counts"].get(name, 0) / pass_count
        for name in set(setup["counts"]) | set(passes["counts"])
    }
    return {"agg": agg, "counts": counts}


def per_layer_metrics(snapshot: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a combined snapshot."""
    zero = [0, 0.0, 0.0]

    def calls(name: str) -> float:
        return snapshot["agg"].get(name, zero)[0]

    def total(name: str) -> float:
        return snapshot["agg"].get(name, zero)[1]

    def count(name: str) -> float:
        return snapshot["counts"].get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    runs = count("simnet.runs")
    configs = count("core.configs")
    out = {
        "core.configs": configs,
        "core.is_trivial_s": total("core.is_trivial"),
        "core.synthesis_s": total("core.synthesis"),
        "core.similar_calls": calls("core.similar"),
        "core.similar_s": total("core.similar"),
        "core.pairs_scanned": count("core.pairs_scanned"),
        "core.pairs_per_config": ratio(count("core.pairs_scanned"), calls("core.similar")),
        "core.validate_s": total("core.validate"),
        "core.cert_json_s": total("core.cert_json"),
        "catalog.evaluate_calls": calls("catalog.evaluate"),
        "catalog.evaluate_s": total("catalog.evaluate"),
        "catalog.evals_per_config": ratio(calls("catalog.evaluate"), configs),
        "simnet.run_s": total("simnet.run"),
        "simnet.engine_self_s": snapshot["agg"].get("simnet.run", zero)[2],
        "simnet.events_per_s": ratio(count("simnet.events"), total("simnet.run")),
        "simnet.sends_per_run": ratio(count("simnet.sends"), runs),
        "simnet.delivers_per_run": ratio(count("simnet.delivers"), runs),
        "simnet.sha256_s": total("simnet.sha256"),
        "simnet.jsonl_s": total("simnet.jsonl"),
        "simnet.trace_bytes_per_run": ratio(count("simnet.jsonl_bytes"), calls("simnet.jsonl")),
        "simnet.transcript_s": total("simnet.transcript"),
        "protocols.handler_s": total("protocols.handler"),
        "protocols.handler_calls": calls("protocols.handler"),
    }
    for layer in UNIVERSAL_LAYERS:
        out[f"protocols.msgs_per_run.{layer}"] = ratio(count(f"protocols.msgs.{layer}"), runs)
    out.update({
        "protocols.sigs_per_run": ratio(count("protocols.sigs"), runs),
        "protocols.coins_per_run": ratio(count("protocols.coins"), runs),
        "protocols.certified_frac": ratio(count("protocols.certified_machines"),
                                          count("protocols.universal_machines")),
        "attacks.best_effort_certificate_s": total("attacks.best_effort_certificate"),
        "attacks.split_brain_s": total("attacks.split_brain"),
        "attacks.triple_partition_s": total("attacks.triple_partition"),
        "attacks.ring_s": total("attacks.ring_attack"),
        "cli.scenario_load_s": total("cli.scenario_load"),
    })
    return out
