"""A finished run, and every check, is freed by reference counting.

The simulation holds every node's context, and a context holds only the
run's tape, trace and signature oracle, never the simulation. So a run holds
no reference cycle as long as its machines hold none: a machine never keeps a
reference to itself (no table of its own bound methods, no closure over
`self`). The checker's walk keeps its memos in plain dicts and recurses
through methods, so a check holds none either. Each case runs with the
cyclic collector off, drops the result, and requires that every trace the
run made is gone and that `gc.collect()` then finds nothing; the attack
cases build their certificate inside that window too, and the checker and
CLI cases make no run.
"""

import dataclasses
import gc
import itertools
import weakref

import pytest

from aba import attacks, catalog, simnet
from aba.cli import PROTOCOLS, main, protocol_factory
from aba.core import (
    InputConfiguration,
    SystemParams,
    compute_similarity_certificate,
    is_solvable,
)
from aba.protocols import Machine
from aba.simnet import (
    ASYNCHRONOUS,
    SYNCHRONOUS,
    AdversaryScript,
    AsyncRandomDelay,
    Decide,
    Equivocate,
    FollowWithInput,
    NetworkConfig,
    SilentTo,
    SyncRandomDelay,
    canonical_schedule,
    partition_schedule,
    run,
)

DELTA = 10
PARAMS = SystemParams(6, 2, 1, "PKI")
# The two input values of each protocol; ba-star reads fixed-point text in [0, 1).
VALUES = {"ba-star": ("0.25", "0.75")}

# Each builds a fresh (net, script) on values (a, b), since a partition
# policy keeps state.
SCHEDULES = {
    "canonical-crash": lambda a, b: canonical_schedule([5], delta=DELTA),
    "async-equivocate": lambda a, b: (
        NetworkConfig(mode=ASYNCHRONOUS, delta=DELTA),
        AdversaryScript(corrupted={5: Equivocate(a, b)}, delivery=AsyncRandomDelay(3 * DELTA)),
    ),
    "sync-silent-follow": lambda a, b: (
        NetworkConfig(mode=SYNCHRONOUS, delta=DELTA),
        AdversaryScript(corrupted={4: SilentTo(frozenset({0, 1})), 5: FollowWithInput(a)},
                        delivery=SyncRandomDelay(DELTA)),
    ),
    "partition": lambda a, b: partition_schedule(
        [[(p, 0) for p in range(3)], [(p, 0) for p in range(3, PARAMS.n)]], delta=DELTA),
}


def cyclic_garbage(execute) -> tuple[int, int]:
    """Calls `execute`, which returns weak references to the traces of the
    runs it made and drops everything else, with the cyclic collector off;
    returns how many of those traces are still alive and how many objects
    `gc.collect()` then finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        traces = execute()
        assert traces
        alive = sum(ref() is not None for ref in traces)
        return alive, gc.collect()
    finally:
        gc.enable()


def universal_certificate(params):
    prop, domain = catalog.resolve("strong", 2)
    return compute_similarity_certificate(prop, params, domain).certificate


def run_once(factory, schedule, values=("0", "1")):
    net, script = SCHEDULES[schedule](*values)
    inputs = InputConfiguration.of((p, values[p >= 3]) for p in range(PARAMS.n))

    def execute():
        result = run(factory, PARAMS, net, script, inputs, seed=1)
        assert result.trace.events
        return [weakref.ref(result.trace)]

    return execute


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_finished_run_is_freed_by_reference_counting(name, schedule):
    factory = protocol_factory(name.replace("<v>", "0"), PARAMS, DELTA,
                               certificate=universal_certificate(PARAMS))
    execute = run_once(factory, schedule, VALUES.get(name, ("0", "1")))
    assert cyclic_garbage(execute) == (0, 0)


ATTACKS = {
    "split-brain": lambda factory, params, one, two: attacks.split_brain(
        factory, params, one, two, seed=1),
    "triple-partition": lambda factory, params, one, two: attacks.triple_partition(
        factory, params, one, two, seed=1),
    "ring": lambda factory, params, one, two: attacks.ring_attack(factory, one, two, r=2, seed=1),
}
ATTACK_PARAMS = {
    "split-brain": SystemParams(6, 3, 0, "PKI"),
    "triple-partition": SystemParams(7, 3, 1, "PKI"),
    "ring": attacks.RING_PARAMS,
}


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_every_run_of_an_attack_is_freed(attack, monkeypatch):
    params = ATTACK_PARAMS[attack]
    prop, domain = catalog.resolve("strong", 2)
    zeros = InputConfiguration.of((p, "0") for p in range(params.n))
    ones = InputConfiguration.of((p, "1") for p in range(params.n))
    traces = []

    def traced_run(*args, **kwargs):
        result = simnet.run(*args, **kwargs)
        traces.append(weakref.ref(result.trace))
        return result

    monkeypatch.setattr(attacks, "run", traced_run)

    def execute():
        certificate = attacks.best_effort_certificate(prop, params, domain)
        factory = protocol_factory("universal", params, DELTA, enforce_bounds=False,
                                   certificate=certificate)
        assert ATTACKS[attack](factory, params, zeros, ones)
        return traces

    assert cyclic_garbage(execute) == (0, 0)


def checker_garbage(check) -> int:
    """Calls `check` with the cyclic collector off; returns how many objects
    `gc.collect()` then finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        check()
        return gc.collect()
    finally:
        gc.enable()


def checked_properties():
    """Every catalog name, and a table copy of clique:3 (solved on
    configurations, not orbits), each with its domain."""
    names = ["strong", "weak", "it-strong", "interval:0:3", "clique:3"]
    assert {name.split(":")[0] for name in names} == \
        {key.split(":")[0] for key in catalog.VALIDITIES}
    properties = [catalog.resolve(name, 2) for name in names]
    clique, domain = properties[-1]
    return properties + [(dataclasses.replace(clique, anonymous=False), domain)]


def test_every_check_is_freed_by_reference_counting():
    # (4,1,1): clique:3 fails similarity; (5,1,1): every property solves;
    # (4,2,1): below the resilience bound
    cases = list(itertools.product(
        checked_properties(), [SystemParams(4, 1, 1), SystemParams(5, 1, 1),
                               SystemParams(4, 2, 1, "NONE")]))

    def check():
        for (prop, domain), params in itertools.islice(itertools.cycle(cases), 100):
            assert is_solvable(prop, params, domain).reason
            compute_similarity_certificate(prop, params, domain)
            best = attacks.best_effort_certificate(prop, params, domain)
            best.validate(prop)

    assert checker_garbage(check) == 0


@pytest.mark.parametrize("argv", [
    ["check", "--validity", "clique:3", "--n", "6", "--ts", "2", "--ta", "0"],
    ["certificate", "--validity", "strong", "--n", "4", "--ts", "1", "--ta", "1"],
    ["attack", "split-brain", "--protocol", "universal:strong"],
], ids=lambda argv: argv[0])
def test_every_cli_check_is_freed_by_reference_counting(argv, tmp_path, capsys):
    if argv[0] == "certificate":
        argv = argv + ["--out", str(tmp_path / "cert.json")]
    main(argv)  # the first call builds the cached parser
    assert checker_garbage(lambda: main(argv)) == 0
    assert capsys.readouterr().out


class SelfTable(Machine):
    """Decides at once, through a table of its own bound methods: the
    reference to itself that the contract rules out."""

    def __init__(self):
        self.handlers = {"start": self._decide}

    def _decide(self, ctx, value):
        return [Decide(value)]

    def on_start(self, ctx, value):
        return self.handlers["start"](ctx, value)


def test_a_machine_that_refers_to_itself_is_caught():
    alive, garbage = cyclic_garbage(run_once(lambda p: SelfTable(), "canonical-crash"))
    assert alive == 0 and garbage > 0
