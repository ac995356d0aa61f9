"""Deterministic seeded discrete-event simulator for message-passing protocols.

Time is abstract integer units. A single run is single-threaded and fully
determined by its arguments: the event queue pops events by (time, insertion
order), the scheduler's randomness, the common coin and shared values derive
from the seed via SHA-256, and signatures are an ideal registry-backed oracle.
Machines have no private randomness, so replicated node instances fed
identical message sequences evolve identically.

Party ids, replica tags, times and delays are exact ints (not bools): where
each enters, `NetworkConfig`, the delay rules and `Simulation.add_node` raise
ConfigError, and at run time a `Send` destination, `SetTimer` delay or policy
time of another type is a ProtocolError.

Payloads are passed by reference: every destination of a send receives the
sender's object. The trace stores each SEND and DELIVER as one flat record
holding that object, and every reader works from those records; `events`
is a read-only view of them. The trace serializes a payload on the first
read that needs its text, once per object and, for plain values, about once
per value (see `ExecutionTrace`). Machines therefore never mutate a payload
after sending or receiving it.

An exception raised by a corrupted node's machine, or by the engine applying
that node's actions, crashes that node only: the trace gets one CRASH event
naming the exception type, and the node takes no further events. An honest
node's exception propagates out of the run.

A run holds no reference cycle: a node's `NodeCtx` keeps the run's tape,
trace and signature oracle but not the `Simulation`, and a machine never
keeps a reference to itself (see `Machine`). So dropping a `RunResult` frees
the run by reference counting; `tests/test_run_memory.py` checks it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import marshal
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
        if type(self.delta) is not int or type(self.horizon) is not int:
            raise ConfigError(f"delta and horizon must be ints: {self.delta!r}, {self.horizon!r}")
        if self.delta <= 0 or self.horizon <= 0:
            raise ConfigError("delta and horizon must be positive")


@dataclass
class NodeInstance:
    """Party `party_id`'s copy `replica_tag`: exact ints, else `add_node` raises ConfigError."""

    party_id: int
    replica_tag: int = 0
    corrupted: bool = False
    input: Any = None
    # logical destination party -> a node key (a tuple), a list of keys
    # (multicast) or None (discarded in transit), else `add_node` raises
    # ConfigError; parties absent from the map route to their tag-0 instance
    route: Optional[dict[int, Any]] = None

    @property
    def key(self) -> NodeKey:
        return (self.party_id, self.replica_tag)


@dataclass(slots=True)
class Envelope:
    src: NodeKey
    dst: NodeKey
    payload: Any
    sent_at: int


# ---------------------------------------------------------------- randomness


class RandomTape:
    """Seed-derived randomness: the scheduler's stream, the common coin, and
    shared public values. Derivations use SHA-256 so they are stable across
    platforms and runs."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _derive(self, *tags) -> int:
        text = f"{self.seed}|" + "|".join(repr(t) for t in tags)
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

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

    def verify_all(self, parties: Iterable[int], payload: Any) -> bool:
        """`all(verify(p, payload) for p in parties)`, with `payload`'s
        registry text computed once for the whole set."""
        if not self.enabled:
            raise SetupUnavailableError("signatures require PKI setup")
        text = repr(payload)
        registry = self._registry
        return all((party, text) in registry for party in parties)


# ---------------------------------------------------------------- trace


def _jsonable(value):
    kind = type(value)
    if kind is str or kind is int or value is None:  # the common leaves, before isinstance
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)):
        return value
    return repr(value)


_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(x, sort_keys=True) uses


def _payload_detail(payload) -> str:
    return f"v{PAYLOAD_FORMAT}:" + _ENCODER.encode(_jsonable(payload))


def _plain(value) -> bool:
    """Whether `value` is an exact str, int or bool or None, or an exact tuple
    or list of plain values: the payloads whose marshal bytes fix their text."""
    kind = type(value)
    if kind is tuple or kind is list:
        return all(map(_plain, value))
    return kind is str or kind is int or kind is bool or value is None


_encode_str = json.encoder.encode_basestring_ascii  # the escaping `_ENCODER` uses


def _event_template(kind: str, keys: tuple) -> str:
    """The JSONL line of a `kind` event whose detail has the exact-str `keys`
    as a `%` template: one `%s` per detail value, then party, replica and t.
    "" unless the keys are in sorted order, as every engine detail's are; such
    an event is left to the generic encoder."""
    if list(keys) != sorted(keys):
        return ""
    fields = ", ".join(_encode_str(key).replace("%", "%%") + ": %s" for key in keys)
    return ('{"detail": {' + fields + '}, "kind": ' + _encode_str(kind).replace("%", "%%")
            + ', "party": %d, "replica": %d, "t": %d}')


# The JSONL lines of an engine SEND and DELIVER, which `jsonl()` fills
_SEND_LINE = _event_template(SEND, ("deliver_at", "dst", "dst_replica", "payload"))
_DELIVER_LINE = _event_template(DELIVER, ("payload", "src", "src_replica"))


class ExecutionTrace:
    """Append-only event log; JSONL serialization and SHA-256 hashing.

    Events read as `(t, kind, party, replica, detail)` tuples. The engine
    stores each SEND and DELIVER as a flat record instead,
    `(t, kind, party, replica, peer, peer_replica, payload, deliver_at)`: the
    peer is a SEND's destination and a DELIVER's source. The other fields are
    exact ints, but a discarded SEND's peer_replica is None, a SEND's
    deliver_at may be "held" or "discarded", and a DELIVER's is None.
    Records keep that shape for the trace's whole life.
    `events` and `of_kind()` return a new list of five-field tuples, each
    with a new detail dict, and write nothing back; `jsonl()`, `sha256()` and
    `node_transcript()` read the flat records as they are.

    Every reader takes a payload's `v1:` JSON string from two memos per
    trace. The first is keyed by the payload object's id, so each payload
    object is looked up once however many records share it and in whatever
    order the readers run; the records hold every payload, so no id is
    reused while the trace lives. On a miss, the second is keyed by the
    payload's value, its `marshal.dumps` bytes, so the equal payloads that
    honest nodes build separately are serialized about once per trace.
    Marshal bytes tell 1, True, 1.0 and "1" apart, and tuples from lists;
    they may differ between equal values (by reference flags), which only
    costs a miss. Only a plain payload is entered there: exact str, int,
    bool or None inside exact tuples and lists (`_plain`). So a hit is
    always an identical plain value, and a subclass, a custom object (which
    marshal rejects), a float, dict, set or bytes-like object is serialized
    once per object. Both memos rely on the simulator's contract that a
    payload is never mutated after it is sent (see `Machine`): the string
    is the one an eager serialization at send time would have produced.
    """

    def __init__(self):
        self._events: list[tuple] = []
        self._texts: dict[int, str] = {}  # id(payload) -> its v1 string
        self._value_texts: dict[bytes, str] = {}  # marshal bytes of a plain payload -> v1

    def append(self, t: int, kind: str, node: NodeKey, detail: dict):
        self._events.append((t, kind, node[0], node[1], detail))

    def _text(self, payload) -> str:
        text = self._texts.get(id(payload))
        if text is None:
            text = self._texts[id(payload)] = self._value_text(payload)
        return text

    def _value_text(self, payload) -> str:
        """`payload`'s v1 string from the value memo, serialized on a miss."""
        try:
            key = marshal.dumps(payload)
        except ValueError:  # a subclass or a custom object: no value key
            return _payload_detail(payload)
        text = self._value_texts.get(key)
        if text is None:
            text = _payload_detail(payload)
            if _plain(payload):
                self._value_texts[key] = text
        return text

    def _view(self, records: Iterable[tuple]) -> list[tuple]:
        """`records` as five-field tuples, each with a new detail dict."""
        text_of = self._text
        out = []
        for event in records:
            if len(event) == 8:
                t, kind, party, replica, peer, peer_replica, payload, deliver_at = event
                text = text_of(payload)
                detail = ({"dst": peer, "dst_replica": peer_replica, "payload": text,
                           "deliver_at": deliver_at} if kind == SEND
                          else {"src": peer, "src_replica": peer_replica, "payload": text})
                event = (t, kind, party, replica, detail)
            else:
                event = (*event[:4], dict(event[4]))
            out.append(event)
        return out

    @property
    def events(self) -> list[tuple]:
        return self._view(self._events)

    def of_kind(self, kind: str) -> list[tuple]:
        return self._view(e for e in self._events if e[1] == kind)

    def jsonl(self) -> str:
        """One JSON object per event, in `json.dumps(..., sort_keys=True)`
        form: ASCII escapes, `", "` and `": "` separators. A flat record fills
        its kind's template. Any other event with exact-int t, party and
        replica whose detail is a dict of exact-str keys in sorted order and
        exact-str or exact-int values (TIMER, SIGN, COIN, CRASH, and a DECIDE
        on a str or int) fills a template built once per call for its kind and
        detail keys (`_event_template`). Anything else is written by the
        generic encoder. The bytes are the same on every path."""
        text_of = self._text
        quoted: dict[int, str] = {}  # id(payload) -> its escaped text, for this call
        templates: dict[tuple, str] = {}  # (kind, *detail keys) -> its template, for this call
        lines = []
        append = lines.append
        for event in self._events:
            if len(event) == 8:
                t, kind, party, replica, peer, peer_replica, payload, deliver_at = event
                text = quoted.get(id(payload))
                if text is None:
                    text = quoted[id(payload)] = _encode_str(text_of(payload))
                if kind == SEND:
                    # `%s` writes an int as `%d` does
                    at = deliver_at if type(deliver_at) is int else f'"{deliver_at}"'
                    dst_replica = "null" if peer_replica is None else peer_replica
                    append(_SEND_LINE % (at, peer, dst_replica, text, party, replica, t))
                else:
                    append(_DELIVER_LINE % (text, peer, peer_replica, party, replica, t))
                continue
            t, kind, party, replica, detail = event
            if (type(t) is type(party) is type(replica) is int and type(kind) is str
                    and type(detail) is dict):
                values = []
                for key, value in detail.items():
                    if type(key) is not str:
                        break
                    if type(value) is str:
                        value = _encode_str(value)
                    elif type(value) is not int:
                        break
                    values.append(value)
                else:
                    shape = (kind, *detail)
                    line = templates.get(shape)
                    if line is None:
                        line = templates[shape] = _event_template(kind, shape[1:])
                    if line:
                        append(line % (*values, party, replica, t))
                        continue
            append(_ENCODER.encode({"t": t, "kind": kind, "party": party, "replica": replica,
                                    "detail": _jsonable(detail)}))
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return self.text_sha256(self.jsonl())

    @staticmethod
    def text_sha256(text: str) -> str:
        """The trace hash of a `jsonl()` text."""
        return hashlib.sha256(text.encode()).hexdigest()

    def node_transcript(self, node: NodeKey, through: Optional[int] = None) -> list:
        """Events of one node with identities normalized to logical parties
        and scheduler metadata dropped, for comparing replicas against
        canonical runs: a SEND reads `{"dst": party, "payload": text}` and a
        DELIVER `{"src": party, "payload": text}`."""
        node_party, node_replica = node
        text_of = self._text
        out = []
        for event in self._events:
            if event[2] != node_party or event[3] != node_replica:
                continue
            t, kind, party = event[0], event[1], event[2]
            if through is not None and t > through:
                continue
            if len(event) == 8:
                text = text_of(event[6])
                norm = ({"dst": event[4], "payload": text} if kind == SEND
                        else {"src": event[4], "payload": text})
            else:
                norm = _jsonable(event[4])
            out.append((t, kind, party, norm))
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
    """Follow the protocol, optionally from input `value`, but send nothing
    to `parties`."""

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


def _delay(delay: int) -> int:
    if type(delay) is not int or delay < 1:
        raise ConfigError(f"a delivery delay must be at least 1, got {delay!r}")
    return delay


class ExactDelay(DeliveryPolicy):
    """Every message takes exactly `delay` units: delta for the canonical
    synchronous schedule, one unit for immediate asynchronous delivery."""

    def __init__(self, delay: int = 1):
        self.delay = _delay(delay)

    def schedule(self, env, rng):
        return env.sent_at + self.delay


class RandomDelay(DeliveryPolicy):
    """Adversarial schedule: per-message delays in [1, max_delay]."""

    def __init__(self, max_delay: int):
        self.max_delay = _delay(max_delay)

    def schedule(self, env, rng):
        return env.sent_at + rng.randrange(self.max_delay) + 1  # the draw of randint(1, max_delay)


SyncExactDelay = AsyncUniformDelay = ExactDelay
SyncRandomDelay = AsyncRandomDelay = RandomDelay


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


def partition_schedule(
    groups: Iterable[Iterable[NodeKey]],
    delta: int = DEFAULT_DELTA,
    horizon: int = 10_000,
) -> tuple[NetworkConfig, AdversaryScript]:
    """Partitioned executions: asynchronous, nothing corrupted, messages
    between node groups held until their sender decides (`PartitionPolicy`)."""
    net = NetworkConfig(mode=ASYNCHRONOUS, delta=delta, horizon=horizon)
    return net, AdversaryScript(delivery=PartitionPolicy(groups))


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
    Handlers never see the network mode or their replica tag.

    It keeps the simulation's tape, trace and signature oracle, not the
    simulation itself: the simulation holds every node's context, so a
    reference back would make each run a reference cycle."""

    def __init__(self, sim: "Simulation", node: NodeInstance):
        self._tape = sim.tape
        self._trace = sim.trace
        self._signatures = sim.signatures
        self._key = node.key
        self.party_id = node.party_id
        self.n = sim.params.n
        self.delta = sim.net.delta
        self.now = 0

    def coin(self, key: Any) -> int:
        value = self._tape.coin(key)
        self._trace.append(self.now, COIN, self._key, {"key": repr(key), "value": value})
        return value

    def sign(self, payload: Any) -> tuple:
        token = self._signatures.sign(self.party_id, payload)
        self._trace.append(self.now, SIGN, self._key, {"payload": repr(payload)})
        return token

    def verify(self, party_id: int, payload: Any, token: Any = None) -> bool:
        return self._signatures.verify(party_id, payload, token)

    def verify_all(self, parties: Iterable[int], payload: Any) -> bool:
        """Whether every one of `parties` signed `payload`."""
        return self._signatures.verify_all(parties, payload)

    def shared_uniform64(self, tag: str) -> int:
        return self._tape.shared_uniform64(tag)


# ---------------------------------------------------------------- engine


class _NodeState:
    __slots__ = ("node", "key", "route", "targets", "machines", "ctx", "crashed_at", "decided")

    def __init__(self, node, route, machines, ctx, crashed_at):
        self.node = node
        self.key = node.key
        self.route = route  # destination party -> None or a tuple of exact-int node keys
        # exact-int destination party -> the existing node keys its route
        # gives, or None when the route discards; filled by the first send
        self.targets: dict[int, Optional[tuple]] = {}
        self.machines = machines  # list of (sub_id, machine, input, allowed destinations)
        self.ctx = ctx
        self.crashed_at = crashed_at
        self.decided = None


class Simulation:
    """Event loop: pops the earliest event (ties by insertion order), feeds
    the node's state machine, enqueues resulting sends and timers. Node keys
    and times are exact ints: `add_node` raises ConfigError, and `_apply`
    ProtocolError, for any other type.

    The queue is a calendar of time buckets: `_buckets` maps each pending
    time to its `(kind, data)` entries in insertion order, and `_times` is a
    heap of those times, so an event costs one list append and only a new
    time costs a heap push. Popping the earliest time's bucket and running it
    in order is the (time, insertion) order of a heap with an insertion
    counter.
    """

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
        self._buckets: dict[int, list] = {}  # time -> [(kind, data), ...]
        self._times: list = []  # heap of the times in `_buckets`
        self._parties = range(params.n)
        self._max_delay = net.delta if net.mode == SYNCHRONOUS else None
        self._record = self.trace._events.append  # SEND and DELIVER flat records

    # -- construction

    def add_node(
        self,
        node: NodeInstance,
        machine_factory: Callable[[int], Any],
        behavior: Behavior = None,
    ):
        if type(node.party_id) is not int or type(node.replica_tag) is not int:
            raise ConfigError(f"node key must be two ints, got {node.key!r}")
        if node.key in self._nodes:
            raise ConfigError(f"duplicate node instance {node.key}")
        route = {}  # destination party -> None or node keys of exact ints
        for party, target in (node.route or {}).items():
            keys = [target] if isinstance(target, tuple) else target
            if target is not None and not (isinstance(keys, list) and all(map(self._is_key, keys))):
                raise ConfigError(f"node {node.key} routes party {party!r} to {target!r}, which is "
                                  f"not a node key with a party in 0..{self.params.n - 1}, a list "
                                  "of them or None")
            route[party] = None if target is None else tuple((int(p), int(t)) for p, t in keys)
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
            value, allowed = node.input, None
            if isinstance(behavior, (FollowWithInput, SilentTo)):
                value = behavior.value if behavior.value is not None else value
            if isinstance(behavior, SilentTo):
                allowed = frozenset(range(self.params.n)) - behavior.parties
            machines = [(None, machine_factory(node.party_id), value, allowed)]
        crashed_at = behavior.time if isinstance(behavior, CrashAt) else None
        if crashed_at is not None and type(crashed_at) is not int:
            raise ConfigError(f"crash time must be an int, got {crashed_at!r}")
        self._nodes[node.key] = _NodeState(node, route, machines, ctx, crashed_at)

    def _is_key(self, key) -> bool:
        """Whether `key` is two ints (bools read as 0 and 1) with a party in 0..n-1."""
        return (isinstance(key, (tuple, list)) and len(key) == 2
                and all(isinstance(x, int) for x in key) and 0 <= key[0] < self.params.n)

    def _push(self, time: int, kind: str, data):
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heapq.heappush(self._times, time)
        bucket.append((kind, data))

    # -- run loop

    def run(self) -> dict[NodeKey, Any]:
        for key in sorted(self._nodes):
            state = self._nodes[key]
            if state.crashed_at is not None:
                self.trace.append(state.crashed_at, CRASH, key, {"at": state.crashed_at})
            self._push(0, "START", key)
        horizon = self.net.horizon
        buckets, times = self._buckets, self._times
        deliver = self._dispatch_deliver
        while True:
            if not times:
                held = self.policy.flush()
                if not held:
                    break
                for env in held:
                    self._push(horizon, "DELIVER", env)
                continue
            time = heapq.heappop(times)
            if time > horizon:
                break
            # an event pushed at this time from here on opens a new bucket,
            # which runs next
            for kind, data in buckets.pop(time):
                if kind == "DELIVER":
                    deliver(time, data)
                elif kind == "TIMER":
                    self._dispatch_timer(time, data)
                elif kind == "START":
                    self._dispatch_start(time, data)
        return self.outcomes()

    def outcomes(self) -> dict[NodeKey, Any]:
        """Each node's decided value, or None while it is undecided."""
        return {key: state.decided for key, state in self._nodes.items()}

    # -- dispatch
    #
    # A corrupted node whose machine raises, or whose actions the engine
    # rejects (a destination or time that is not an int, a timer delay below
    # 1, an unknown action), is crashed by `_contain`; the actions before the
    # rejected one stay applied. An honest node's exception is a bug, so the
    # bare `raise` lets it abort the run.

    def _alive(self, state: _NodeState, now: int) -> bool:
        return state.crashed_at is None or now < state.crashed_at

    def _contain(self, state: _NodeState, now: int, exc: Exception):
        self.trace.append(now, CRASH, state.key, {"at": now, "error": type(exc).__name__})
        state.crashed_at = now

    def _dispatch_start(self, now: int, key: NodeKey):
        state = self._nodes[key]
        if not self._alive(state, now):
            return
        state.ctx.now = now
        for sub_id, machine, value, allowed in state.machines:
            try:
                actions = machine.on_start(state.ctx, value)
                self._apply(state, now, sub_id, allowed, actions)
            except Exception as exc:
                if not state.node.corrupted:
                    raise
                self._contain(state, now, exc)
                return

    def _dispatch_deliver(self, now: int, env: Envelope):
        src, dst, payload = env.src, env.dst, env.payload
        self._record((now, DELIVER, dst[0], dst[1], src[0], src[1], payload, None))
        state = self._nodes.get(dst)  # a key tuple, as `_route` gives it
        if state is None or (state.crashed_at is not None and now >= state.crashed_at):
            return
        ctx = state.ctx
        ctx.now = now
        for sub_id, machine, _value, allowed in state.machines:
            try:
                actions = machine.on_message(ctx, src[0], payload)
                if actions:
                    self._apply(state, now, sub_id, allowed, actions)
            except Exception as exc:
                if not state.node.corrupted:
                    raise
                self._contain(state, now, exc)
                return

    def _dispatch_timer(self, now: int, data):
        key, sub_id, tag = data
        state = self._nodes[key]
        if not self._alive(state, now):
            return
        self.trace.append(now, TIMER, key, {"tag": repr(tag)})
        state.ctx.now = now
        for machine_sub, machine, _value, allowed in state.machines:
            if machine_sub == sub_id:
                try:
                    actions = machine.on_timer(state.ctx, tag)
                    self._apply(state, now, machine_sub, allowed, actions)
                except Exception as exc:
                    if not state.node.corrupted:
                        raise
                    self._contain(state, now, exc)
                    return

    # -- actions

    def _apply(self, state: _NodeState, now: int, sub_id, allowed, actions):
        node = state.node
        for action in actions:
            if isinstance(action, Broadcast):
                self._send(state, now, allowed, self._parties, action.payload)
            elif isinstance(action, Send):
                if type(action.dst) is not int:
                    raise ProtocolError(f"send destination must be an int, got {action.dst!r}")
                self._send(state, now, allowed, (action.dst,), action.payload)
            elif isinstance(action, Decide):
                if node.corrupted:
                    continue
                if action.value is None:
                    raise ProtocolError(f"node {state.key} decided None")
                if state.decided is not None:
                    raise ProtocolError(f"node {state.key} decided twice")
                state.decided = action.value
                self.trace.append(now, DECIDE, state.key, {"value": action.value})
                for env, at in self.policy.on_decide(node.party_id, now):
                    if type(at) is not int or at <= now:
                        raise ProtocolError("release must be strictly after the decision, "
                                            f"at an int time: decided at {now}, got {at!r}")
                    self._push(at, "DELIVER", env)
            elif isinstance(action, SetTimer):
                if type(action.delay) is not int or action.delay < 1:
                    raise ProtocolError(f"timer delay must be >= 1 and an int: {action.delay!r}")
                self._push(now + action.delay, "TIMER", (state.key, sub_id, action.tag))
            else:
                raise ProtocolError(f"unknown action {action!r}")

    def _send(self, state: _NodeState, now: int, allowed, dst_parties, payload):
        """Sends `payload` to each of `dst_parties` that `allowed` admits, along
        the node's route, recording one SEND per concrete destination."""
        key = state.key
        party, replica = key
        targets = state.targets
        schedule = self.policy.schedule
        rng = self._sched_rng
        push = self._push
        record = self._record
        max_delay = self._max_delay
        for dst_party in dst_parties:
            if allowed is not None and dst_party not in allowed:
                continue
            try:
                dst_keys = targets[dst_party]
            except KeyError:
                dst_keys = targets[dst_party] = self._route(state.route, dst_party)
            if dst_keys is None:
                # discarded in transit: the sender still observes its own send
                record((now, SEND, party, replica, dst_party, None, payload, "discarded"))
                continue
            for dst_key in dst_keys:
                env = Envelope(key, dst_key, payload, now)
                deliver_at = schedule(env, rng)
                if deliver_at is None:
                    deliver_at = "held"
                else:
                    if type(deliver_at) is not int or deliver_at <= now:
                        raise ProtocolError("delivery must be strictly after send, at an int "
                                            f"time: sent at {now}, got {deliver_at!r}")
                    if max_delay is not None and deliver_at - now > max_delay:
                        raise ProtocolError("synchronous delivery exceeded delta")
                    push(deliver_at, "DELIVER", env)
                record((now, SEND, party, replica, dst_key[0], dst_key[1], payload, deliver_at))

    def _route(self, route: dict, dst_party) -> Optional[tuple]:
        """The keys of the existing nodes that `route`, as `add_node` resolved
        it, sends `dst_party`'s messages to, or None if it discards."""
        keys = route.get(dst_party, ((dst_party, 0),))
        return None if keys is None else tuple(key for key in keys if key in self._nodes)


# ---------------------------------------------------------------- run helper


@dataclass
class RunResult:
    """One execution's trace and outcomes.

    `outcomes` maps every node instance `(party, replica)` to the value it
    decided, or to None while it is undecided; a corrupted node never decides.
    `machines` maps every node instance to its protocol copies as the run
    left them: two for an equivocating node, one for any other.
    """

    trace: ExecutionTrace
    outcomes: dict[NodeKey, Any]
    machines: dict[NodeKey, list]

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


def check_input_parties(inputs: InputConfiguration, params: SystemParams) -> InputConfiguration:
    """`inputs` if it lists parties 0..n-1 only, else ConfigError."""
    if any(p >= params.n for p in inputs.parties):
        raise ConfigError("inputs reference a party outside 0..n-1")
    return inputs


def run(
    machine_factory: Callable[[int], Any],
    params: SystemParams,
    net: NetworkConfig,
    adversary: AdversaryScript,
    inputs: Optional[InputConfiguration],
    seed: int,
    nodes: Optional[Iterable[NodeInstance]] = None,
) -> RunResult:
    """Runs one protocol execution and returns its trace and per-node outcome;
    the one place that builds and runs a `Simulation`.

    Given `inputs`, which may list parties 0..n-1 only, the run has one tag-0
    node per party; given `nodes` (and None for `inputs`), those instances in
    order. Each node runs its party's behavior, and its `corrupted` flag must
    say whether the adversary corrupts its party. Every protocol copy that
    `add_node` builds for a node that starts (any but a `CrashAt(0)` one) must
    have an input that is not None. Else ConfigError, before any event runs.
    """
    adversary.validate(params, net.mode)
    corrupted = adversary.corrupted
    if nodes is None:
        given = check_input_parties(inputs, params).as_dict()
        nodes = [NodeInstance(party_id=party, input=given.get(party), corrupted=party in corrupted)
                 for party in range(params.n)]
    sim = Simulation(params, net, seed, policy=adversary.delivery)
    for node in nodes:
        sim.add_node(node, machine_factory, corrupted.get(node.party_id))
        if node.corrupted != (node.party_id in corrupted):
            raise ConfigError(f"node {node.key} has corrupted={node.corrupted}, but the "
                              f"adversary corrupts parties {sorted(corrupted)}")
    for (party, _), state in sim._nodes.items():
        behavior = corrupted.get(party)
        for sub_id, _, value, _ in state.machines:
            if value is not None or state.crashed_at == 0:
                continue
            if behavior is None:
                raise ConfigError(f"honest party {party} missing from inputs")
            if sub_id is not None:
                raise ConfigError(f"corrupted party {party} ({type(behavior).__name__}) would "
                                  f"start copy {sub_id} with no input; give both its values")
            raise ConfigError(
                f"corrupted party {party} ({type(behavior).__name__}) would start "
                "with no input; list it in inputs or give its behavior a value"
            )
    outcomes = sim.run()
    machines = {key: [machine for _, machine, _, _ in state.machines]
                for key, state in sim._nodes.items()}
    return RunResult(trace=sim.trace, outcomes=outcomes, machines=machines)
