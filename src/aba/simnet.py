"""Deterministic seeded discrete-event simulator for message-passing protocols.

Time is abstract integer units. A single run is single-threaded and fully
determined by its arguments: the event queue breaks ties by (time, insertion
sequence), the scheduler's randomness, the common coin and shared values derive
from the seed via SHA-256, and signatures are an ideal registry-backed oracle.
Machines have no private randomness, so replicated node instances fed
identical message sequences evolve identically.

Payloads are passed by reference: every destination of a send receives the
sender's object, and the trace keeps that object until it is first read.
Machines therefore never mutate a payload after sending or receiving it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .core import InputConfiguration, SystemParams, SETUP_PKI
from .errors import ConfigError, CorruptionBudgetError, ProtocolError, SetupUnavailableError

SYNCHRONOUS = "SYNCHRONOUS"
ASYNCHRONOUS = "ASYNCHRONOUS"

DEFAULT_DELTA = 10

PAYLOAD_FORMAT = 1

# Trace event kinds
SEND, DELIVER, TIMER, COIN, SIGN, DECIDE, CRASH = (
    "SEND", "DELIVER", "TIMER", "COIN", "SIGN", "DECIDE", "CRASH",
)

NodeKey = tuple[int, int]  # (party_id, replica_tag)


@dataclass(frozen=True)
class NetworkConfig:
    mode: str
    delta: int = DEFAULT_DELTA
    horizon: int = 10_000

    def __post_init__(self):
        if self.mode not in (SYNCHRONOUS, ASYNCHRONOUS):
            raise ConfigError(f"unknown network mode {self.mode!r}")
        if self.delta <= 0 or self.horizon <= 0:
            raise ConfigError("delta and horizon must be positive")


@dataclass
class NodeInstance:
    party_id: int
    replica_tag: int = 0
    corrupted: bool = False
    input: Any = None
    # logical destination party -> concrete instance key, a list of keys
    # (multicast), or None (messages to that party are discarded in transit);
    # parties absent from the map route to their tag-0 instance
    route: Optional[dict[int, Any]] = None

    @property
    def key(self) -> NodeKey:
        return (self.party_id, self.replica_tag)


@dataclass
class Envelope:
    src: NodeKey
    dst: NodeKey
    payload: Any
    sent_at: int


# ---------------------------------------------------------------- randomness


class RandomTape:
    """Seed-derived randomness: per-party streams, the common coin, and
    shared public values. Derivations use SHA-256 so they are stable across
    platforms and runs."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _derive(self, *tags) -> int:
        text = f"{self.seed}|" + "|".join(repr(t) for t in tags)
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def party_stream(self, party_id: int) -> random.Random:
        return random.Random(self._derive("party", party_id))

    def scheduler_stream(self) -> random.Random:
        return random.Random(self._derive("scheduler"))

    def coin(self, key: Any) -> int:
        """Common-coin bit for a (protocol-instance, round) key."""
        return self._derive("coin", key) & 1

    def shared_uniform64(self, tag: str) -> int:
        """Public shared value, 64-bit fixed point numerator over 2**64."""
        return self._derive("shared", tag)


# ---------------------------------------------------------------- signatures


class SignatureOracle:
    """Idealized unforgeable signatures: verification consults a registry of
    (party, message) pairs actually signed; tokens are decorative."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._registry: set[tuple[int, str]] = set()

    def sign(self, party_id: int, payload: Any) -> tuple:
        if not self.enabled:
            raise SetupUnavailableError("signatures require PKI setup")
        self._registry.add((party_id, repr(payload)))
        return ("SIG", party_id)

    def verify(self, party_id: int, payload: Any, token: Any = None) -> bool:
        if not self.enabled:
            raise SetupUnavailableError("signatures require PKI setup")
        return (party_id, repr(payload)) in self._registry


# ---------------------------------------------------------------- trace


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(x, sort_keys=True) uses


def _payload_detail(payload) -> str:
    return f"v{PAYLOAD_FORMAT}:" + _ENCODER.encode(_jsonable(payload))


class ExecutionTrace:
    """Append-only event log; JSONL serialization and SHA-256 hashing.

    SEND and DELIVER events store the message payload object itself. The
    first read of `events` (and so of `jsonl()`, `sha256()` and
    `node_transcript()`) replaces each such payload by its `v1:` JSON string,
    serializing every distinct payload object once, however many SEND and
    DELIVER events share it. This relies on the simulator's contract that a
    payload is never mutated after it is sent (see `Machine`): the string is
    the one an eager serialization at send time would have produced.
    """

    def __init__(self):
        self._events: list[tuple] = []  # (t, kind, party, replica, detail)
        self._pending: list[dict] = []  # details whose "payload" is still an object

    def append(self, t: int, kind: str, node: NodeKey, detail: dict):
        self._events.append((t, kind, node[0], node[1], detail))

    def append_payload(self, t: int, kind: str, node: NodeKey, detail: dict):
        """Appends an event whose `detail["payload"]` is an unserialized
        payload object."""
        self.append(t, kind, node, detail)
        self._pending.append(detail)

    @property
    def events(self) -> list[tuple]:
        if self._pending:
            # keyed by id(): every pending payload was alive when this read began,
            # so no two of them share an id
            texts: dict[int, str] = {}
            for detail in self._pending:
                payload = detail["payload"]
                text = texts.get(id(payload))
                if text is None:
                    text = texts[id(payload)] = _payload_detail(payload)
                detail["payload"] = text
            self._pending = []
        return self._events

    def jsonl(self) -> str:
        lines = [
            _ENCODER.encode(
                {"t": t, "kind": kind, "party": party, "replica": replica,
                 "detail": _jsonable(detail)}
            )
            for t, kind, party, replica, detail in self.events
        ]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return self.text_sha256(self.jsonl())

    @staticmethod
    def text_sha256(text: str) -> str:
        """The trace hash of a `jsonl()` text."""
        return hashlib.sha256(text.encode()).hexdigest()

    def of_kind(self, kind: str) -> list[tuple]:
        # only SEND and DELIVER carry payloads; other kinds need no serialization
        events = self.events if kind in (SEND, DELIVER) else self._events
        return [e for e in events if e[1] == kind]

    def node_transcript(self, node: NodeKey, through: Optional[int] = None) -> list:
        """Events of one node with identities normalized to logical parties
        and scheduler metadata dropped, for comparing replicas against
        canonical runs."""
        out = []
        for t, kind, party, replica, detail in self.events:
            if (party, replica) != tuple(node):
                continue
            if through is not None and t > through:
                continue
            norm = dict(detail)
            norm.pop("dst_replica", None)
            norm.pop("src_replica", None)
            norm.pop("deliver_at", None)
            out.append((t, kind, party, _jsonable(norm)))
        return out

    @staticmethod
    def transcript_hash(transcript: list) -> str:
        return hashlib.sha256(json.dumps(transcript, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- adversary


@dataclass(frozen=True)
class CrashAt:
    time: int = 0


@dataclass(frozen=True)
class FollowWithInput:
    value: Any


@dataclass(frozen=True)
class Equivocate:
    """Run two protocol copies with different inputs; copy A's messages go to
    `split` (default: lower half of the parties), copy B's to the rest."""

    value_a: Any
    value_b: Any
    split: Optional[frozenset] = None


@dataclass(frozen=True)
class SilentTo:
    parties: frozenset
    value: Any = None


Behavior = Any  # CrashAt | FollowWithInput | Equivocate | SilentTo


@dataclass
class AdversaryScript:
    corrupted: dict[int, Behavior] = field(default_factory=dict)
    delivery: Optional["DeliveryPolicy"] = None

    def validate(self, params: SystemParams, mode: str) -> None:
        bound = params.t_s if mode == SYNCHRONOUS else params.t_a
        if len(self.corrupted) > bound:
            raise CorruptionBudgetError(
                f"{len(self.corrupted)} corrupted parties exceed the {mode} bound {bound}"
            )
        for party in self.corrupted:
            if not (0 <= party < params.n):
                raise ConfigError(f"corrupted party {party} out of range")


class DeliveryPolicy:
    """Assigns delivery times; may hold messages for later release but must
    guarantee delivery by the horizon (the engine flushes leftovers)."""

    def schedule(self, env: Envelope, rng: random.Random) -> Optional[int]:
        raise NotImplementedError

    def on_decide(self, party: int, now: int) -> list[tuple[Envelope, int]]:
        return []

    def flush(self) -> list[Envelope]:
        return []


class SyncExactDelay(DeliveryPolicy):
    """Canonical synchronous schedule: every message takes exactly delta."""

    def __init__(self, delta: int):
        self.delta = delta

    def schedule(self, env, rng):
        return env.sent_at + self.delta


class SyncRandomDelay(DeliveryPolicy):
    """Adversarial synchronous schedule: per-message delays in [1, delta]."""

    def __init__(self, delta: int):
        self.delta = delta

    def schedule(self, env, rng):
        return env.sent_at + rng.randint(1, self.delta)


class AsyncUniformDelay(DeliveryPolicy):
    """Asynchronous immediate delivery: one unit, keeping causality strict."""

    def schedule(self, env, rng):
        return env.sent_at + 1


class AsyncRandomDelay(DeliveryPolicy):
    """Adversarial asynchronous schedule: delays in [1, max_delay]."""

    def __init__(self, max_delay: int):
        self.max_delay = max_delay

    def schedule(self, env, rng):
        return env.sent_at + rng.randint(1, self.max_delay)


class PartitionPolicy(DeliveryPolicy):
    """Intra-group messages delivered in one unit; cross-group messages held
    until max(release_time, sender decision), flushed by the horizon.

    Groups hold node instances `(party, replica)`, so replicas of one party
    may sit in different groups; a node in no group is not partitioned."""

    def __init__(self, groups: Iterable[Iterable[NodeKey]], release_time: Optional[int] = None):
        self.side_of: dict[NodeKey, int] = {}
        for side, group in enumerate(groups):
            for node in group:
                if self.side_of.setdefault(node, side) != side:
                    raise ConfigError("partition groups must be disjoint")
        self.release_time = release_time
        self._held: list[Envelope] = []
        self._decided: set[int] = set()

    def schedule(self, env, rng):
        src_side = self.side_of.get(env.src)
        dst_side = self.side_of.get(env.dst)
        if src_side == dst_side or src_side is None or dst_side is None:
            return env.sent_at + 1
        if env.src[0] in self._decided:
            return env.sent_at + 1
        if self.release_time is not None and env.sent_at >= self.release_time:
            return env.sent_at + 1
        self._held.append(env)
        return None

    def on_decide(self, party, now):
        self._decided.add(party)
        released = []
        keep = []
        for env in self._held:
            if env.src[0] in self._decided:
                at = now + 1
                if self.release_time is not None:
                    at = max(at, self.release_time)
                released.append((env, at))
            else:
                keep.append(env)
        self._held = keep
        return released

    def flush(self):
        held, self._held = self._held, []
        return held


def canonical_schedule(
    crashed: Iterable[int],
    delta: int = DEFAULT_DELTA,
    horizon: int = 10_000,
) -> tuple[NetworkConfig, AdversaryScript]:
    """Canonical executions: synchronous, exact-delta delivery, the given
    parties crash at time zero."""
    net = NetworkConfig(mode=SYNCHRONOUS, delta=delta, horizon=horizon)
    script = AdversaryScript(
        corrupted={p: CrashAt(0) for p in crashed},
        delivery=SyncExactDelay(delta),
    )
    return net, script


def replicate(party_id: int, count: int) -> list[NodeInstance]:
    """Replica instances sharing the party's identity."""
    return [NodeInstance(party_id=party_id, replica_tag=tag) for tag in range(count)]


# ---------------------------------------------------------------- actions


@dataclass(frozen=True)
class Send:
    dst: int
    payload: Any


@dataclass(frozen=True)
class Broadcast:
    payload: Any


@dataclass(frozen=True)
class Decide:
    """A node's one decision. None is not a decision value: outcomes use it
    for undecided nodes, so an honest node deciding None is a protocol error."""

    value: Any


@dataclass(frozen=True)
class SetTimer:
    tag: Any
    delay: int


class NodeCtx:
    """Per-node view handed to protocol handlers: the party id, n, delta, the
    clock, the common coin, shared public values and the signature oracle.
    Handlers never see the network mode or their replica tag."""

    def __init__(self, sim: "Simulation", node: NodeInstance):
        self._sim = sim
        self._node = node
        self.party_id = node.party_id
        self.n = sim.params.n
        self.delta = sim.net.delta
        self.now = 0

    def coin(self, key: Any) -> int:
        value = self._sim.tape.coin(key)
        self._sim.trace.append(self.now, COIN, self._node.key, {"key": repr(key), "value": value})
        return value

    def sign(self, payload: Any) -> tuple:
        token = self._sim.signatures.sign(self.party_id, payload)
        self._sim.trace.append(self.now, SIGN, self._node.key, {"payload": repr(payload)})
        return token

    def verify(self, party_id: int, payload: Any, token: Any = None) -> bool:
        return self._sim.signatures.verify(party_id, payload, token)

    def shared_uniform64(self, tag: str) -> int:
        return self._sim.tape.shared_uniform64(tag)


# ---------------------------------------------------------------- engine


class _NodeState:
    __slots__ = ("node", "machines", "ctx", "behavior", "crashed_at", "decided")

    def __init__(self, node, machines, ctx, behavior):
        self.node = node
        self.machines = machines  # list of (sub_id, machine, input)
        self.ctx = ctx
        self.behavior = behavior
        self.crashed_at = behavior.time if isinstance(behavior, CrashAt) else None
        self.decided = None


class Simulation:
    """Event loop: pops the earliest event (ties by insertion order), feeds
    the node's state machine, enqueues resulting sends and timers."""

    def __init__(
        self,
        params: SystemParams,
        net: NetworkConfig,
        seed: int,
        policy: Optional[DeliveryPolicy] = None,
    ):
        self.params = params
        self.net = net
        self.tape = RandomTape(seed)
        self.trace = ExecutionTrace()
        self.signatures = SignatureOracle(enabled=params.setup == SETUP_PKI)
        self.policy = policy or (
            SyncExactDelay(net.delta) if net.mode == SYNCHRONOUS else AsyncUniformDelay()
        )
        self._sched_rng = self.tape.scheduler_stream()
        self._nodes: dict[NodeKey, _NodeState] = {}
        self._heap: list = []
        self._seq = 0

    # -- construction

    def add_node(
        self,
        node: NodeInstance,
        machine_factory: Callable[[int], Any],
        behavior: Behavior = None,
    ):
        if node.key in self._nodes:
            raise ConfigError(f"duplicate node instance {node.key}")
        ctx = NodeCtx(self, node)
        if isinstance(behavior, Equivocate):
            split = behavior.split
            if split is None:
                split = frozenset(range((self.params.n + 1) // 2))
            complement = frozenset(range(self.params.n)) - split
            machines = [
                ("a", machine_factory(node.party_id), behavior.value_a, split),
                ("b", machine_factory(node.party_id), behavior.value_b, complement),
            ]
        else:
            value = node.input
            if isinstance(behavior, (FollowWithInput, SilentTo)):
                value = behavior.value if behavior.value is not None else value
            machines = [(None, machine_factory(node.party_id), value, None)]
        self._nodes[node.key] = _NodeState(node, machines, ctx, behavior)

    def _push(self, time: int, kind: str, data):
        heapq.heappush(self._heap, (time, self._seq, kind, data))
        self._seq += 1

    # -- run loop

    def run(self) -> dict[NodeKey, Any]:
        for key in sorted(self._nodes):
            state = self._nodes[key]
            if state.crashed_at is not None:
                self.trace.append(state.crashed_at, CRASH, key, {"at": state.crashed_at})
            self._push(0, "START", key)
        horizon = self.net.horizon
        while True:
            if not self._heap:
                held = self.policy.flush()
                if not held:
                    break
                for env in held:
                    self._push(horizon, "DELIVER", env)
                continue
            time, _, kind, data = heapq.heappop(self._heap)
            if time > horizon:
                break
            if kind == "START":
                self._dispatch_start(time, data)
            elif kind == "DELIVER":
                self._dispatch_deliver(time, data)
            elif kind == "TIMER":
                self._dispatch_timer(time, data)
        return self.outcomes()

    def outcomes(self) -> dict[NodeKey, Any]:
        """Each node's decided value, or None while it is undecided."""
        return {key: state.decided for key, state in self._nodes.items()}

    # -- dispatch

    def _alive(self, state: _NodeState, now: int) -> bool:
        return state.crashed_at is None or now < state.crashed_at

    def _dispatch_start(self, now: int, key: NodeKey):
        state = self._nodes[key]
        if not self._alive(state, now):
            return
        state.ctx.now = now
        for sub_id, machine, value, split in state.machines:
            actions = machine.on_start(state.ctx, value)
            self._apply(state, now, sub_id, split, actions)

    def _dispatch_deliver(self, now: int, env: Envelope):
        self.trace.append_payload(
            now,
            DELIVER,
            env.dst,
            {"src": env.src[0], "src_replica": env.src[1], "payload": env.payload},
        )
        state = self._nodes.get(tuple(env.dst))
        if state is None or not self._alive(state, now):
            return
        state.ctx.now = now
        for sub_id, machine, _value, split in state.machines:
            actions = machine.on_message(state.ctx, env.src[0], env.payload)
            self._apply(state, now, sub_id, split, actions)

    def _dispatch_timer(self, now: int, data):
        key, sub_id, tag = data
        state = self._nodes[key]
        if not self._alive(state, now):
            return
        self.trace.append(now, TIMER, key, {"tag": repr(tag)})
        state.ctx.now = now
        for machine_sub, machine, _value, split in state.machines:
            if machine_sub == sub_id:
                actions = machine.on_timer(state.ctx, tag)
                self._apply(state, now, machine_sub, split, actions)

    # -- actions

    def _apply(self, state: _NodeState, now: int, sub_id, split, actions):
        node = state.node
        for action in actions:
            if isinstance(action, Broadcast):
                for party in range(self.params.n):
                    self._send(state, now, split, party, action.payload)
            elif isinstance(action, Send):
                self._send(state, now, split, action.dst, action.payload)
            elif isinstance(action, Decide):
                if node.corrupted:
                    continue
                if action.value is None:
                    raise ProtocolError(f"node {node.key} decided None")
                if state.decided is not None:
                    raise ProtocolError(f"node {node.key} decided twice")
                state.decided = action.value
                self.trace.append(now, DECIDE, node.key, {"value": action.value})
                for env, at in self.policy.on_decide(node.party_id, now):
                    self._push(at, "DELIVER", env)
            elif isinstance(action, SetTimer):
                if action.delay < 1:
                    raise ProtocolError("timer delay must be >= 1")
                self._push(now + action.delay, "TIMER", (node.key, sub_id, action.tag))
            else:
                raise ProtocolError(f"unknown action {action!r}")

    def _send(self, state: _NodeState, now: int, split, dst_party: int, payload):
        node = state.node
        behavior = state.behavior
        if isinstance(behavior, SilentTo) and dst_party in behavior.parties:
            return
        if split is not None and dst_party not in split:
            return
        route = node.route or {}
        target = route.get(dst_party, (dst_party, 0))
        if target is None:
            # discarded in transit: the sender still observes its own send
            self.trace.append_payload(
                now,
                SEND,
                node.key,
                {"dst": dst_party, "dst_replica": None,
                 "payload": payload, "deliver_at": "discarded"},
            )
            return
        targets = target if isinstance(target, list) else [target]
        for dst_key in targets:
            dst_key = tuple(dst_key)
            if dst_key not in self._nodes:
                continue
            env = Envelope(src=node.key, dst=dst_key, payload=payload, sent_at=now)
            deliver_at = self.policy.schedule(env, self._sched_rng)
            detail = {
                "dst": dst_key[0],
                "dst_replica": dst_key[1],
                "payload": payload,
            }
            if deliver_at is not None:
                if deliver_at <= now:
                    raise ProtocolError("delivery must be strictly after send")
                if self.net.mode == SYNCHRONOUS and deliver_at - now > self.net.delta:
                    raise ProtocolError("synchronous delivery exceeded delta")
                detail["deliver_at"] = deliver_at
                self._push(deliver_at, "DELIVER", env)
            else:
                detail["deliver_at"] = "held"
            self.trace.append_payload(now, SEND, node.key, detail)


# ---------------------------------------------------------------- run helper


@dataclass
class RunResult:
    """One execution's trace and outcomes.

    `outcomes` maps every node instance `(party, replica)` to the value it
    decided, or to None while it is undecided; a corrupted node never decides.
    """

    trace: ExecutionTrace
    outcomes: dict[NodeKey, Any]

    def honest_decisions(self, corrupted: Iterable[int] = ()) -> dict[NodeKey, Any]:
        bad = set(corrupted)
        return {
            key: value
            for key, value in self.outcomes.items()
            if value is not None and key[0] not in bad
        }

    def undecided_honest(self, corrupted: Iterable[int] = ()) -> list[NodeKey]:
        bad = set(corrupted)
        return [key for key, value in self.outcomes.items() if value is None and key[0] not in bad]


def run(
    machine_factory: Callable[[int], Any],
    params: SystemParams,
    net: NetworkConfig,
    adversary: AdversaryScript,
    inputs: InputConfiguration,
    seed: int,
) -> RunResult:
    """Runs one protocol execution and returns its trace and per-node outcome.

    Every honest party must appear in `inputs`. A corrupted party takes its
    input from its scripted behavior when that names one (`Equivocate`,
    `FollowWithInput`, `SilentTo` with a value) and from `inputs` otherwise;
    only a party that crashes at time 0, and so never starts, may have none.
    """
    adversary.validate(params, net.mode)
    given = inputs.as_dict()
    for party in range(params.n):
        behavior = adversary.corrupted.get(party)
        if party in given or behavior == CrashAt(0) or isinstance(behavior, Equivocate):
            continue
        if isinstance(behavior, (FollowWithInput, SilentTo)) and behavior.value is not None:
            continue
        if behavior is None:
            raise ConfigError(f"honest party {party} missing from inputs")
        raise ConfigError(
            f"corrupted party {party} ({type(behavior).__name__}) would start "
            "with no input; list it in inputs or give its behavior a value"
        )
    sim = Simulation(params, net, seed, policy=adversary.delivery)
    for party in range(params.n):
        behavior = adversary.corrupted.get(party)
        node = NodeInstance(
            party_id=party,
            corrupted=behavior is not None,
            input=given.get(party),
        )
        sim.add_node(node, machine_factory, behavior)
    return RunResult(trace=sim.trace, outcomes=sim.run())
