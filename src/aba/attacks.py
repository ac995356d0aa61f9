"""Executable lower-bound constructions: run a protocol inside the partition
and ring wirings that make agreement or validity break below the resilience
thresholds. Every execution is a `simnet.run` on a schedule from
`canonical_schedule` or `partition_schedule`; the wirings pass their node
instances, with replica tags and routes, as its node list.

The strawman fixtures are intentionally NOT secure protocols; they decide
from local views so the constructions have something to break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .core import InputConfiguration, SimilarityCertificate, SystemParams, similarity_pass
from .errors import ConfigError
from .simnet import (
    Broadcast,
    Decide,
    NodeInstance,
    RunResult,
    SetTimer,
    canonical_schedule,
    partition_schedule,
    run,
)
from .protocols.base import Machine

MachineFactory = Callable[[int], Machine]

PARTITION_HORIZON = 4000  # the triple-partition runs' time bound; split_brain's default
RING_HORIZON_ROUNDS = 40  # the ring runs' time bound, in rounds of delta


# ---------------------------------------------------------------- strawmen


class LocalMinStrawman(Machine):
    """NOT SECURE: broadcasts its input and, after tolerating 2 deltas of
    silence, decides the minimum value it has seen. Decides locally, so any
    partition that isolates a group splits the decision."""

    def __init__(self):
        self.seen: list = []

    def on_start(self, ctx, value):
        self.seen.append(str(value))
        return [Broadcast(("IN", str(value))), SetTimer("cut", 2 * ctx.delta)]

    def on_message(self, ctx, src, payload):
        if payload[0] == "IN":
            self.seen.append(payload[1])
        return []

    def on_timer(self, ctx, tag):
        return [Decide(min(self.seen))]


class MajoritySelfBiasStrawman(Machine):
    """NOT SECURE: one exchange round, then decides the majority of received
    inputs, breaking ties toward its own."""

    def __init__(self):
        self.own = None
        self.seen: list = []

    def on_start(self, ctx, value):
        self.own = str(value)
        self.seen.append(self.own)
        return [Broadcast(("IN", self.own)), SetTimer("cut", ctx.delta + 1)]

    def on_message(self, ctx, src, payload):
        if payload[0] == "IN":
            self.seen.append(payload[1])
        return []

    def on_timer(self, ctx, tag):
        counts: dict = {}
        for v in self.seen:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        winners = sorted(v for v, c in counts.items() if c == best)
        value = self.own if self.own in winners else winners[0]
        return [Decide(value)]


def best_effort_certificate(prop, params: SystemParams, domain):
    """A deliberately UNSOUND sigma table for experiments at parameters where
    the similarity condition fails: configurations whose similar-intersection
    is empty fall back to the smallest directly-valid value. Never use this
    outside attack demonstrations."""
    sigma: dict = {}
    for encodings, choices, owns in similarity_pass(prop, params, domain):
        if None in choices:
            choices = [own if choice is None else choice for choice, own in zip(choices, owns)]
        sigma.update(zip(encodings, choices))
    return SimilarityCertificate(params=params, domain=domain, sigma=sigma)


# ---------------------------------------------------------------- reports


def _decision_table(outcomes) -> dict:
    return {f"{party}/{tag}": value for (party, tag), value in sorted(outcomes.items())}


def _execution(result: RunResult) -> dict:
    return {"decisions": _decision_table(result.outcomes), "trace_hash": result.trace.sha256()}


def _all_equal_decided(values) -> bool:
    return all(v is not None for v in values) and len(set(values)) == 1


def _side_checks(left: list, right: list) -> dict:
    """Agreement within each side of a partition and disagreement across it,
    from the decisions (None: undecided) of the two sides' nodes."""
    return {
        "within_left_agreement": _all_equal_decided(left) or all(v is None for v in left),
        "within_right_agreement": _all_equal_decided(right) or all(v is None for v in right),
        "cross_group_disagreement": (
            _all_equal_decided(left) and _all_equal_decided(right) and left[0] != right[0]
        ),
    }


# ---------------------------------------------------------------- split brain


@dataclass(frozen=True)
class PartitionLayout:
    """Left / middle / right party groups with |L| = |R| = t_s, |M| = t_a."""

    params: SystemParams

    def __post_init__(self):
        if self.params.n != 2 * self.params.t_s + self.params.t_a:
            raise ConfigError("partition layouts need n = 2*t_s + t_a exactly")

    @property
    def left(self) -> tuple[int, ...]:
        return tuple(range(self.params.t_s))

    @property
    def middle(self) -> tuple[int, ...]:
        return tuple(range(self.params.t_s, self.params.t_s + self.params.t_a))

    @property
    def right(self) -> tuple[int, ...]:
        return tuple(range(self.params.t_s + self.params.t_a, self.params.n))


def split_brain(
    factory: MachineFactory,
    params: SystemParams,
    inputs_one: InputConfiguration,
    inputs_two: InputConfiguration,
    seed: int,
    delta: int = 10,
    horizon: int = PARTITION_HORIZON,
) -> dict:
    """Two-group indistinguishability demonstration at n = 2*t_s.

    Runs, with one seed: (a) canonical with the right group crashed on the
    first input set, (b) canonical with the left group crashed on the second,
    (c) asynchronous with cross-group messages delayed until their sender
    decides, mixed inputs, and (d) the full canonical run. Reports whether
    each group in (c) matches its isolated run, which is the
    indistinguishability the impossibility argument exploits.
    """
    if params.t_a != 0:
        raise ConfigError("split_brain runs the warm-up case t_a = 0")
    layout = PartitionLayout(params)
    left, right = layout.left, layout.right
    mixed = InputConfiguration.of(
        [(p, inputs_one.value_of(p)) for p in left]
        + [(p, inputs_two.value_of(p)) for p in right]
    )

    def canonical(crashed, inputs):
        net, script = canonical_schedule(crashed, delta=delta, horizon=horizon)
        return run(factory, params, net, script, inputs, seed)

    run_a = canonical(set(right), inputs_one)
    run_b = canonical(set(left), inputs_two)
    keys_l = [(p, 0) for p in left]
    keys_r = [(p, 0) for p in right]
    net_c, script_c = partition_schedule([keys_l, keys_r], delta=delta, horizon=horizon)
    run_c = run(factory, params, net_c, script_c, mixed, seed)
    run_d = canonical(set(), inputs_one)

    c_left = [run_c.outcomes[key] for key in keys_l]
    c_right = [run_c.outcomes[key] for key in keys_r]
    a_left = [run_a.outcomes[key] for key in keys_l]
    b_right = [run_b.outcomes[key] for key in keys_r]

    return {
        "scenario": "split-brain",
        "params": params.to_dict(),
        "seed": seed,
        "executions": {
            "a_right_crashed": _execution(run_a),
            "b_left_crashed": _execution(run_b),
            "c_partitioned": _execution(run_c),
            "d_full_canonical": _execution(run_d),
        },
        "checks": {
            "left_in_c_matches_a": c_left == a_left and _all_equal_decided(c_left),
            "right_in_c_matches_b": c_right == b_right and _all_equal_decided(c_right),
            **_side_checks(c_left, c_right),
            "any_undecided": bool(run_a.undecided_honest(right) or run_b.undecided_honest(left)
                                  or run_c.undecided_honest() or run_d.undecided_honest()),
        },
    }


# ---------------------------------------------------------------- triple partition


def _triple_nodes(layout: PartitionLayout, near: InputConfiguration,
                  far: InputConfiguration) -> list[NodeInstance]:
    """Node instances and routes for the duplicated-middle wiring: `near`
    feeds the left group and middle copy 0, `far` the right group and middle
    copy 1."""
    left, middle, right = layout.left, layout.middle, layout.right
    outer_route = {m: [(m, 0), (m, 1)] for m in middle}
    nodes = [NodeInstance(party_id=p, input=near.value_of(p), route=dict(outer_route))
             for p in left]
    nodes += [NodeInstance(party_id=p, input=far.value_of(p), route=dict(outer_route))
              for p in right]
    for m in middle:
        # same-copy middle traffic plus the copy's own side; the far side is
        # discarded in transit
        for tag, (inputs, far_side) in enumerate(((near, right), (far, left))):
            route = {**{q: (q, tag) for q in middle}, **dict.fromkeys(far_side)}
            nodes.append(NodeInstance(party_id=m, replica_tag=tag, input=inputs.value_of(m),
                                      route=route))
    return nodes


def triple_partition(
    factory: MachineFactory,
    params: SystemParams,
    inputs_one: InputConfiguration,
    inputs_two: InputConfiguration,
    seed: int,
    delta: int = 10,
) -> dict:
    """Duplicated-middle partition at n = 2*t_s + t_a.

    The middle group exists twice; left-to-middle traffic reaches both copies,
    each copy's messages toward the far side are discarded, and left-right
    traffic is delayed until the sender decides. A synchronous control run
    (all inputs from the first configuration, uniform delta) checks that both
    middle copies produce identical transcripts.
    """
    layout = PartitionLayout(params)
    left, middle, right = layout.left, layout.middle, layout.right
    if not middle:
        report = split_brain(factory, params, inputs_one, inputs_two, seed, delta)
        report["scenario"] = "triple-partition"
        report["degenerate_no_middle"] = True
        return report

    # middle copy 0 talks to the left group only, copy 1 to the right
    side_l = [(p, 0) for p in left] + [(m, 0) for m in middle]
    side_r = [(p, 0) for p in right] + [(m, 1) for m in middle]

    def execute(control: bool):
        net, script = (canonical_schedule((), delta, PARTITION_HORIZON) if control
                       else partition_schedule([side_l, side_r], delta, PARTITION_HORIZON))
        nodes = _triple_nodes(layout, inputs_one, inputs_one if control else inputs_two)
        return run(factory, params, net, script, None, seed, nodes=nodes)

    control = execute(control=True)
    replica_checks = {}
    for m in middle:
        t0 = control.trace.node_transcript((m, 0))
        t1 = control.trace.node_transcript((m, 1))
        replica_checks[str(m)] = (
            control.trace.transcript_hash(t0) == control.trace.transcript_hash(t1)
        )

    attack = execute(control=False)

    return {
        "scenario": "triple-partition",
        "params": params.to_dict(),
        "seed": seed,
        "groups": {"left": list(left), "middle": list(middle), "right": list(right)},
        "control": {**_execution(control), "middle_replicas_identical": replica_checks},
        "attack": _execution(attack),
        "checks": {
            "replicas_identical": all(replica_checks.values()),
            **_side_checks([attack.outcomes[key] for key in side_l],
                           [attack.outcomes[key] for key in side_r]),
        },
    }


# ---------------------------------------------------------------- ring

# The ring runs a three-party protocol tolerating one synchronous fault, with
# no asynchronous faults and no signatures: it copies parties, which PKI forbids
RING_PARAMS = SystemParams(n=3, t_s=1, t_a=0, setup="NONE")


@dataclass(frozen=True)
class RingLayout:
    """Two rows of 3-party copies joined into one cycle of 12*(r+1) nodes.

    Rows are indexed k in {1, 2}, columns j in [0, 2r+1], parties i in
    {0, 1, 2}; node (k, i, j) is the copy of party i at that position. Within
    a column parties 0-1 and 1-2 are joined; row 1 advances via (1,2,j) to
    (1,0,j+1), row 2 via (2,0,j) to (2,2,j+1); the rows close the cycle at
    (1,0,0)-(2,2,0) and (1,2,2r+1)-(2,0,2r+1).
    """

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ConfigError("round bound r must be non-negative")

    @property
    def columns(self) -> int:
        return 2 * self.r + 2

    def tag(self, k: int, j: int) -> int:
        return (k - 1) * self.columns + j

    def node_ids(self) -> list[tuple[int, int, int]]:
        return [
            (k, i, j)
            for k in (1, 2)
            for j in range(self.columns)
            for i in range(3)
        ]

    def key(self, k: int, i: int, j: int) -> tuple[int, int]:
        return (i, self.tag(k, j))

    def channels(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        last = self.columns - 1
        edges = []
        for k in (1, 2):
            for j in range(self.columns):
                edges.append((self.key(k, 0, j), self.key(k, 1, j)))
                edges.append((self.key(k, 1, j), self.key(k, 2, j)))
            for j in range(last):
                if k == 1:
                    edges.append((self.key(1, 2, j), self.key(1, 0, j + 1)))
                else:
                    edges.append((self.key(2, 0, j), self.key(2, 2, j + 1)))
        edges.append((self.key(1, 0, 0), self.key(2, 2, 0)))
        edges.append((self.key(1, 2, last), self.key(2, 0, last)))
        return edges

    def routes(self) -> dict[tuple[int, int], dict[int, tuple[int, int]]]:
        """Per-node map: logical party -> adjacent instance (self included).

        A node routes its own role to itself and, across each of its two
        channels, the other end's role to that end."""
        routes = {key: {key[0]: key} for key in (self.key(*node) for node in self.node_ids())}
        for a, b in self.channels():
            routes[a][b[0]] = b
            routes[b][a[0]] = a
        return routes

    def node_count(self) -> int:
        return 12 * (self.r + 1)


def _sorted_entries(transcript: list) -> list[str]:
    """A transcript's entries as canonical JSON, sorted: two transcripts give
    equal lists when they hold the same events at each time step."""
    return sorted(json.dumps(entry, sort_keys=True) for entry in transcript)


def ring_attack(
    factory: MachineFactory,
    inputs_one: InputConfiguration,
    inputs_two: InputConfiguration,
    r: int,
    seed: int,
    delta: int = 10,
) -> dict:
    """Runs a 3-party protocol around the ring of copies, synchronously with
    exact-delta delivery, and checks the copies at column r of each row
    against the two canonical 3-party executions.

    A copy has fidelity when its transcript through time r*delta holds the
    same events at each time step as the canonical party's: the engine
    orders same-time deliveries by global insertion, which differs between
    the ring and the three-party run.

    Requires a protocol that uses no signatures (the construction is invalid
    under PKI); both fixture strawmen and constant protocols qualify.
    """
    layout = RingLayout(r)
    routes = layout.routes()
    nodes = [
        NodeInstance(party_id=i, replica_tag=layout.tag(k, j), route=routes[layout.key(k, i, j)],
                     input=(inputs_one if k == 1 else inputs_two).value_of(i))
        for k, i, j in layout.node_ids()
    ]

    # the ring and the canonical three-party executions, with the same randomness
    def execute(inputs=None, nodes=None):
        net, script = canonical_schedule((), delta=delta, horizon=RING_HORIZON_ROUNDS * delta)
        return run(factory, RING_PARAMS, net, script, inputs, seed, nodes=nodes)

    ring = execute(nodes=nodes)
    outcomes = ring.outcomes
    canon = {1: execute(inputs_one), 2: execute(inputs_two)}

    through = r * delta
    fidelity = {}
    decisions_match = {}
    for k in (1, 2):
        for i in range(3):
            key = layout.key(k, i, r)
            ring_t = ring.trace.node_transcript(key, through=through)
            canon_t = canon[k].trace.node_transcript((i, 0), through=through)
            fidelity[f"k{k}/i{i}"] = _sorted_entries(ring_t) == _sorted_entries(canon_t)
            decisions_match[f"k{k}/i{i}"] = outcomes[key] == canon[k].outcomes[(i, 0)]

    adjacency = []
    for a, b in layout.channels():
        adjacency.append(
            {"a": f"{a[0]}/{a[1]}", "b": f"{b[0]}/{b[1]}",
             "equal": outcomes[a] is not None and outcomes[a] == outcomes[b]}
        )

    return {
        "scenario": "ring",
        "r": r,
        "node_count": layout.node_count(),
        "seed": seed,
        "decisions": _decision_table(outcomes),
        "adjacent_equality": adjacency,
        "middle_fidelity": fidelity,
        "middle_decisions_match_canonical": decisions_match,
        "undecided": [f"{p}/{t}" for (p, t), value in sorted(outcomes.items())
                      if value is None],
        "checks": {
            "all_middle_fidelity": all(fidelity.values()),
            "any_adjacent_disagreement": any(not e["equal"] for e in adjacency),
            "trace_hash": ring.trace.sha256(),
        },
    }
