"""One copy of the trace writers and readers that `ExecutionTrace` replaced,
and the node wirings that the trace tests share.

The oracle converts values with its own `jsonable`, the conversion of the
first trace writer, and never with `aba.simnet._jsonable`, so no reader is
checked against its own serializer:
- `payload_text`: a payload's `v1:` string;
- `events`: the engine's flat SEND and DELIVER records as five-field events,
  each payload serialized afresh;
- `jsonl`: the generic writer, one `json.dumps(..., sort_keys=True)` per event;
- `transcript`: `node_transcript` read from five-field events.

The wirings build nodes of `PARAMS` for `Simulation.add_node`; each returns
`(nodes, policy factory or None, network mode, behaviors by party)`.
"""

import json

from aba.core import SystemParams
from aba.simnet import (
    ASYNCHRONOUS,
    SEND,
    SYNCHRONOUS,
    NodeInstance,
    PartitionPolicy,
    SilentTo,
    SyncRandomDelay,
)

PARAMS = SystemParams(n=4, t_s=1, t_a=1, setup="PKI")


# ---------------------------------------------------------------- readers and writer


def jsonable(value):
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def payload_text(payload) -> str:
    return "v1:" + json.dumps(jsonable(payload), sort_keys=True)


def events(records) -> list:
    """Every record as a five-field event, each payload serialized afresh."""
    out = []
    for event in records:
        if len(event) == 8:
            t, kind, party, replica, peer, peer_replica, payload, deliver_at = event
            text = payload_text(payload)
            detail = ({"dst": peer, "dst_replica": peer_replica, "payload": text,
                       "deliver_at": deliver_at} if kind == SEND
                      else {"src": peer, "src_replica": peer_replica, "payload": text})
            event = (t, kind, party, replica, detail)
        out.append(event)
    return out


def jsonl(events) -> str:
    return "\n".join(
        json.dumps({"t": t, "kind": kind, "party": party, "replica": replica,
                    "detail": jsonable(detail)}, sort_keys=True)
        for t, kind, party, replica, detail in events
    ) + "\n"


def transcript(events, node, through=None) -> list:
    """`node`'s events through time `through`, with replica tags and
    delivery times dropped from each detail."""
    out = []
    for t, kind, party, replica, detail in events:
        if (party, replica) != tuple(node) or (through is not None and t > through):
            continue
        norm = dict(detail)
        for key in ("dst_replica", "src_replica", "deliver_at"):
            norm.pop(key, None)
        out.append((t, kind, party, jsonable(norm)))
    return out


def shape(events) -> list:
    """Each event with its detail as (key, type, value) triples in key order,
    so that equal shapes mean equal keys, key order, types and values."""
    return [(*e[:4], [(k, type(v), v) for k, v in e[4].items()]) for e in events]


# ---------------------------------------------------------------- wirings


def plain(routes=None, tags=None) -> list:
    """One node per party, with input str(party % 2); `routes` gives a party
    a route, and `tags` a replica tag other than 0."""
    tags = tags or {}
    return [NodeInstance(party_id=p, replica_tag=tags.get(p, 0), input=str(p % 2),
                         route=(routes or {}).get(p)) for p in range(PARAMS.n)]


GROUPS = [[(0, 0), (1, 0)], [(2, 0), (3, 0)]]


def held():
    """Cross-group sends are held until their sender decides; party 3 is
    corrupted and never decides, so its held sends are flushed at the
    horizon."""
    nodes = plain()
    nodes[3].corrupted = True
    return nodes, lambda: PartitionPolicy(GROUPS), ASYNCHRONOUS, {3: SilentTo(frozenset({0}))}


def discarded():
    """Party 0's route discards its messages to parties 2 and 3."""
    return plain(routes={0: {2: None, 3: None}}), None, SYNCHRONOUS, {}


def multicast():
    """Two copies of party 1, both reached through a list route of a list
    and a tuple key, and party 3 at tag 2 only, with no tag-0 instance."""
    routes = {p: {1: [[1, 0], (1, 1)], 3: (3, 2)} for p in (0, 1, 2)}
    routes[3] = {3: (3, 2)}
    nodes = plain(routes=routes, tags={3: 2})
    nodes.append(NodeInstance(party_id=1, replica_tag=1, input="1", route=routes[1]))
    return nodes, lambda: SyncRandomDelay(10), SYNCHRONOUS, {}
