"""The ASCII wire protocol between Modeler and collectors.

"The Modeler ... communicates with the Collector over a TCP socket,
using a simple ASCII protocol" (paper §3.2).  Components here run
in-process, but the codec is kept for fidelity and is exercised by
round-trip tests: a topology (or query) serialises to a line-oriented
text form and parses back to an equal object.

Grammar (one record per line, space-separated)::

    REMOS/1 TOPOLOGY
    NODE <id> <kind> [<ip>,<ip>,...]
    EDGE <a> <b> <capacity> <util_ab> <util_ba> <latency> [<jitter>]
    END

    REMOS/1 QUERY TOPOLOGY DYNAMICS|STATIC [ANCHOR <ip>] [ANCHORSITES] [NOSTITCH] [PAIRS]
    NODEIP <ip>
    PAIR <ip> <ip>
    END

Every message is rendered from, and parsed to, the plain record its
type defines (``to_dict`` / ``from_dict`` on :class:`TopologyGraph` and
:class:`TopologyRequest`): this module only names the columns.  Nodes
and edges therefore come out in the record's canonical order, whatever
order the graph was built in.  An ``EDGE`` line without the ``jitter``
column (protocol v1 senders) is still accepted.  ``PAIRS`` says the
request names the host pairs it will read, in the ``PAIR`` lines that
follow (possibly none); without it every pair is asked for.

Identifiers are percent-encoded so embedded whitespace can't break the
framing; ``inf`` capacities serialise as the literal ``inf``.
"""

from __future__ import annotations

import math
from typing import Any
from urllib.parse import quote, unquote

from repro.common.errors import RemosError, TopologyError
from repro.collectors.base import TopologyRequest
from repro.modeler.graph import EDGE_NUMBERS, TopologyGraph

MAGIC = "REMOS/1"


class ProtocolError(RemosError):
    """Malformed wire data."""


def _enc(s: str) -> str:
    return quote(s, safe="")


def _dec(s: str) -> str:
    return unquote(s)


def fmt_num(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def parse_num(s: str) -> float:
    if s == "inf":
        return math.inf
    try:
        return float(s)
    except ValueError:
        raise ProtocolError(f"bad number {s!r}") from None


def graph_of_record(record: dict[str, Any]) -> TopologyGraph:
    """The graph of a decoded record.  What the graph refuses — an
    unknown node kind, an edge to an undeclared node, a member that is
    missing or not a number — is malformed wire data."""
    try:
        return TopologyGraph.from_dict(record)
    except (TopologyError, KeyError, ValueError) as exc:
        raise ProtocolError(f"bad topology: {exc}") from exc


# -- topology --------------------------------------------------------------


def encode_topology(graph: TopologyGraph) -> str:
    record = graph.to_dict()
    lines = [f"{MAGIC} TOPOLOGY"]
    for n in record["nodes"]:
        lines.append(f"NODE {_enc(n['id'])} {n['kind']} {','.join(n['ips'])}".rstrip())
    for e in record["edges"]:
        numbers = " ".join(fmt_num(e[col]) for col in EDGE_NUMBERS)
        lines.append(f"EDGE {_enc(e['a'])} {_enc(e['b'])} {numbers}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def decode_topology(text: str) -> TopologyGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"{MAGIC} TOPOLOGY":
        raise ProtocolError("missing topology header")
    if lines[-1] != "END":
        raise ProtocolError("missing END")
    nodes: list[dict[str, Any]] = []
    edges: list[dict[str, Any]] = []
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] == "NODE":
            if len(parts) not in (3, 4):
                raise ProtocolError(f"bad NODE line: {ln!r}")
            ips = [p for p in parts[3].split(",") if p] if len(parts) == 4 else []
            nodes.append({"id": _dec(parts[1]), "kind": parts[2], "ips": ips})
        elif parts[0] == "EDGE":
            # 7 fields = protocol v1 (no jitter); 8 = with jitter
            if len(parts) not in (7, 8):
                raise ProtocolError(f"bad EDGE line: {ln!r}")
            edge: dict[str, Any] = {"a": _dec(parts[1]), "b": _dec(parts[2])}
            edge.update(zip(EDGE_NUMBERS, map(parse_num, parts[3:])))
            edges.append(edge)
        else:
            raise ProtocolError(f"unknown record {parts[0]!r}")
    return graph_of_record({"nodes": nodes, "edges": edges})


# -- queries ----------------------------------------------------------------


def encode_request(req: TopologyRequest) -> str:
    record = req.to_dict()
    head = [MAGIC, "QUERY", "TOPOLOGY", "DYNAMICS" if record["include_dynamics"] else "STATIC"]
    if record["anchor_ip"]:
        head += ["ANCHOR", record["anchor_ip"]]
    if record["anchor_sites"]:
        head.append("ANCHORSITES")
    if not record["stitch"]:
        head.append("NOSTITCH")
    if record["pairs"] is not None:
        head.append("PAIRS")
    lines = [" ".join(head)]
    lines.extend(f"NODEIP {ip}" for ip in record["node_ips"])
    lines.extend(f"PAIR {a} {b}" for a, b in record["pairs"] or ())
    lines.append("END")
    return "\n".join(lines) + "\n"


def decode_request(text: str) -> TopologyRequest:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"{MAGIC} QUERY TOPOLOGY"):
        raise ProtocolError("missing query header")
    if lines[-1] != "END":
        raise ProtocolError("missing END")
    head = lines[0].split()
    record: dict[str, Any] = {
        "node_ips": [],
        "include_dynamics": "DYNAMICS" in head,
        "anchor_sites": "ANCHORSITES" in head,
        "stitch": "NOSTITCH" not in head,
        "pairs": [] if "PAIRS" in head else None,
    }
    if "ANCHOR" in head:
        idx = head.index("ANCHOR")
        if idx + 1 >= len(head):
            raise ProtocolError("ANCHOR without address")
        record["anchor_ip"] = head[idx + 1]
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] == "NODEIP" and len(parts) == 2:
            record["node_ips"].append(parts[1])
        elif parts[0] == "PAIR" and len(parts) == 3 and record["pairs"] is not None:
            record["pairs"].append(parts[1:])
        else:
            raise ProtocolError(f"bad query line {ln!r}")
    if not record["node_ips"]:
        raise ProtocolError("query without nodes")
    return TopologyRequest.from_dict(record)
