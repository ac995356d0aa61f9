"""Lower-bound construction demonstrations."""

import pytest

from aba.attacks import (
    RING_PARAMS,
    LocalMinStrawman,
    MajoritySelfBiasStrawman,
    PartitionLayout,
    RingLayout,
    _sorted_entries,
    best_effort_certificate,
    ring_attack,
    split_brain,
    triple_partition,
)
from aba.catalog import resolve
from aba.cli import protocol_factory
from aba.core import InputConfiguration as IC, SystemParams
from aba.errors import ConfigError
from aba.protocols import ConstantProtocol
from aba.protocols.base import Machine


def cfg(*pairs):
    return IC.of(pairs)


def maximal(n, value):
    return IC.of((p, value) for p in range(n))


# ---------------------------------------------------------------- ring structure


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_ring_layout_structure(r):
    layout = RingLayout(r)
    assert layout.node_count() == 12 * (r + 1)
    keys = {layout.key(k, i, j) for (k, i, j) in layout.node_ids()}
    assert len(keys) == 12 * (r + 1)
    channels = layout.channels()
    assert len(channels) == 12 * (r + 1)  # a single cycle has |V| edges
    degree = {}
    for a, b in channels:
        assert a != b
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree) == keys
    assert all(d == 2 for d in degree.values())
    # connected 2-regular graph with |E| = |V| is one cycle; walk it
    adj = {}
    for a, b in channels:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = next(iter(keys))
    prev, node, steps = None, start, 0
    while True:
        nxt = [x for x in adj[node] if x != prev]
        prev, node = node, nxt[0]
        steps += 1
        if node == start:
            break
    assert steps == 12 * (r + 1)
    # neighbors always carry the two other party roles
    for a, b in channels:
        assert a[0] != b[0]


def test_ring_layout_r1_has_24_nodes():
    assert RingLayout(1).node_count() == 24


def test_ring_routes_are_symmetric():
    layout = RingLayout(2)
    routes = layout.routes()
    for key, route in routes.items():
        for party, target in route.items():
            if target == key:
                continue
            # the neighbor routes my party role back to me
            assert routes[target][key[0]] == key


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_ring_routes_follow_the_channels(r):
    layout = RingLayout(r)
    routes = layout.routes()
    neighbours = {key: set() for key in routes}
    for a, b in layout.channels():
        neighbours[a].add(b)
        neighbours[b].add(a)
    for key, route in routes.items():
        # every node reaches all three party roles: itself plus its two neighbours
        assert set(route) == {0, 1, 2}
        assert route[key[0]] == key
        for party, target in route.items():
            if target == key:
                continue
            assert target in neighbours[key] and target[0] == party
            assert routes[target][key[0]] == key


# ---------------------------------------------------------------- ring runs


@pytest.mark.parametrize("r", [1, 2])
def test_ring_constant_protocol_all_equal(r):
    report = ring_attack(lambda p: ConstantProtocol("c"), maximal(3, "0"),
                         maximal(3, "1"), r=r, seed=5)
    assert report["node_count"] == 12 * (r + 1)
    assert report["checks"]["all_middle_fidelity"]
    assert not report["checks"]["any_adjacent_disagreement"]
    assert all(v == "c" for v in report["decisions"].values())
    assert all(report["middle_decisions_match_canonical"].values())


@pytest.mark.parametrize("r", [1, 2])
def test_ring_majority_strawman_breaks_at_seam(r):
    report = ring_attack(lambda p: MajoritySelfBiasStrawman(), maximal(3, "0"),
                         maximal(3, "1"), r=r, seed=5)
    assert report["checks"]["all_middle_fidelity"]
    assert report["checks"]["any_adjacent_disagreement"]
    assert all(report["middle_decisions_match_canonical"].values())
    # middle copies reproduce the canonical unanimous decisions
    for i in range(3):
        assert report["decisions"][f"{i}/{RingLayout(r).tag(1, r)}"] == "0"
        assert report["decisions"][f"{i}/{RingLayout(r).tag(2, r)}"] == "1"


def test_ring_fidelity_holds_for_local_min_too():
    report = ring_attack(lambda p: LocalMinStrawman(), maximal(3, "0"),
                         maximal(3, "1"), r=1, seed=9)
    assert report["checks"]["all_middle_fidelity"]


def ring_factory(protocol):
    certificate = None
    if protocol.startswith("universal:"):
        prop, domain = resolve(protocol.split(":", 1)[1], values=2)
        protocol, certificate = "universal", best_effort_certificate(prop, RING_PARAMS, domain)
    return protocol_factory(protocol, RING_PARAMS, 10, certificate=certificate,
                            enforce_bounds=False)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("protocol", ["rbc", "bin-ba", "acs", "universal:strong",
                                      "local-min", "majority"])
def test_ring_copies_keep_fidelity_per_time_step(protocol, r):
    # the column-r copies see the canonical events at each time step, though
    # the ring and the canonical run order same-time deliveries differently
    report = ring_attack(ring_factory(protocol), maximal(3, "0"), maximal(3, "1"), r=r, seed=1)
    assert report["middle_fidelity"] == {f"k{k}/i{i}": True for k in (1, 2) for i in range(3)}


def test_fidelity_ignores_the_order_of_same_time_events_only():
    deliver = [(20, "DELIVER", 2, {"src": 1, "payload": "a"}),
               (20, "DELIVER", 2, {"src": 0, "payload": "b"})]
    assert _sorted_entries(deliver) == _sorted_entries(deliver[::-1])
    later = [deliver[0], (21, *deliver[1][1:])]
    assert _sorted_entries(later) != _sorted_entries(deliver)
    assert _sorted_entries(deliver[:1]) != _sorted_entries(deliver)


def test_ring_undecided_neighbours_are_not_equal():
    # a machine that never decides leaves every copy undecided
    report = ring_attack(lambda p: Machine(), maximal(3, "0"), maximal(3, "1"), r=0, seed=1)
    assert len(report["undecided"]) == 12
    assert set(report["decisions"].values()) == {None}
    assert not any(e["equal"] for e in report["adjacent_equality"])
    assert report["checks"]["any_adjacent_disagreement"]
    assert all(report["middle_decisions_match_canonical"].values())


# ---------------------------------------------------------------- split brain


def test_partition_layout_requires_exact_n():
    with pytest.raises(ConfigError):
        PartitionLayout(SystemParams(4, 1, 1, "PKI"))
    layout = PartitionLayout(SystemParams(5, 2, 1, "PKI"))
    assert layout.left == (0, 1)
    assert layout.middle == (2,)
    assert layout.right == (3, 4)


def test_split_brain_local_min_disagrees():
    params = SystemParams(4, 2, 0, "PKI")
    report = split_brain(lambda p: LocalMinStrawman(), params,
                         maximal(4, "0"), maximal(4, "1"), seed=3)
    checks = report["checks"]
    assert checks["cross_group_disagreement"]
    assert checks["left_in_c_matches_a"]
    assert checks["right_in_c_matches_b"]
    assert checks["within_left_agreement"] and checks["within_right_agreement"]


def test_split_brain_disagreement_all_seeds():
    params = SystemParams(4, 2, 0, "PKI")
    for seed in range(10):
        report = split_brain(lambda p: LocalMinStrawman(), params,
                             maximal(4, "0"), maximal(4, "1"), seed=seed)
        assert report["checks"]["cross_group_disagreement"]


def test_split_brain_constant_protocol_agrees_everywhere():
    params = SystemParams(4, 2, 0, "PKI")
    report = split_brain(lambda p: ConstantProtocol("x"), params,
                         maximal(4, "0"), maximal(4, "1"), seed=3)
    checks = report["checks"]
    assert not checks["cross_group_disagreement"]
    assert checks["left_in_c_matches_a"] and checks["right_in_c_matches_b"]
    for execution in report["executions"].values():
        decided = [v for v in execution["decisions"].values() if v is not None]
        assert set(decided) == {"x"}


# ---------------------------------------------------------------- triple partition


def test_triple_partition_control_replicas_identical():
    params = SystemParams(5, 2, 1, "PKI")
    report = triple_partition(lambda p: LocalMinStrawman(), params,
                              maximal(5, "0"), maximal(5, "1"), seed=4)
    assert report["checks"]["replicas_identical"]
    assert report["control"]["middle_replicas_identical"] == {"2": True}


def test_triple_partition_strawman_side_decisions():
    params = SystemParams(5, 2, 1, "PKI")
    report = triple_partition(lambda p: LocalMinStrawman(), params,
                              maximal(5, "0"), maximal(5, "1"), seed=4)
    checks = report["checks"]
    assert checks["within_left_agreement"] and checks["within_right_agreement"]
    assert checks["cross_group_disagreement"]
    attack = report["attack"]["decisions"]
    assert attack["0/0"] == attack["1/0"] == attack["2/0"] == "0"
    assert attack["3/0"] == attack["4/0"] == attack["2/1"] == "1"


def test_triple_partition_replicas_identical_many_seeds():
    params = SystemParams(5, 2, 1, "PKI")
    for seed in range(10):
        report = triple_partition(lambda p: MajoritySelfBiasStrawman(), params,
                                  maximal(5, "0"), maximal(5, "1"), seed=seed)
        assert report["checks"]["replicas_identical"]


def test_split_brain_universal_at_illegal_params_never_splits_within_group():
    # running the real stack below every resilience bound: executions may
    # stall or split across the partition, but never disagree inside a group
    from aba.attacks import best_effort_certificate
    from aba.catalog import resolve
    from aba.protocols import UniversalBa

    params = SystemParams(4, 2, 0, "PKI")
    prop, domain = resolve("strong", 2)
    cert = best_effort_certificate(prop, params, domain)
    outcomes = {"undecided": 0, "split": 0, "agreed": 0}
    for seed in range(6):
        factory = lambda p: UniversalBa(params, 10, cert, enforce_bounds=False)
        report = split_brain(factory, params, maximal(4, "0"), maximal(4, "1"), seed)
        checks = report["checks"]
        assert checks["within_left_agreement"]
        assert checks["within_right_agreement"]
        c = report["executions"]["c_partitioned"]["decisions"]
        if any(v is None for v in c.values()):
            outcomes["undecided"] += 1
        elif checks["cross_group_disagreement"]:
            outcomes["split"] += 1
        else:
            outcomes["agreed"] += 1
    assert sum(outcomes.values()) == 6


def test_triple_partition_degenerate_reduces_to_split_brain():
    params = SystemParams(4, 2, 0, "PKI")
    triple = triple_partition(lambda p: LocalMinStrawman(), params,
                              maximal(4, "0"), maximal(4, "1"), seed=6)
    brain = split_brain(lambda p: LocalMinStrawman(), params,
                        maximal(4, "0"), maximal(4, "1"), seed=6)
    assert triple["degenerate_no_middle"]
    assert triple["executions"] == brain["executions"]
