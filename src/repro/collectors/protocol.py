"""The ASCII wire protocol between Modeler and collectors.

"The Modeler ... communicates with the Collector over a TCP socket,
using a simple ASCII protocol" (paper §3.2).  Components here run
in-process, but the codec is kept for fidelity and is exercised by
round-trip tests: a topology (or query) serialises to a line-oriented
text form and parses back to an equal object.

Grammar (one record per line, space-separated)::

    REMOS/1 TOPOLOGY
    NODE <id> <kind> [<ip>,<ip>,...]
    EDGE <a> <b> <capacity> <util_ab> <util_ba> <latency>
    END

    REMOS/1 QUERY TOPOLOGY [DYNAMICS|STATIC] [ANCHOR <ip>]
    NODEIP <ip>
    END

Identifiers are percent-encoded so embedded whitespace can't break the
framing; ``inf`` capacities serialise as the literal ``inf``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from urllib.parse import quote, unquote

from repro.common.errors import RemosError, TopologyError
from repro.collectors.base import TopologyRequest
from repro.modeler.graph import TopoEdge, TopoNode, TopologyGraph

MAGIC = "REMOS/1"


class ProtocolError(RemosError):
    """Malformed wire data."""


def _enc(s: str) -> str:
    return quote(s, safe="")


def _dec(s: str) -> str:
    return unquote(s)


def _num(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def _parse_num(s: str) -> float:
    if s == "inf":
        return math.inf
    try:
        return float(s)
    except ValueError:
        raise ProtocolError(f"bad number {s!r}") from None


def build_graph(
    nodes: Iterable[tuple[str, str, tuple[str, ...]]], edges: Iterable[tuple]
) -> TopologyGraph:
    """The graph of decoded ``(id, kind, ips)`` node records and
    :class:`TopoEdge` field tuples.  What the graph refuses — an unknown
    node kind, an edge to an undeclared node — is malformed wire data."""
    graph = TopologyGraph()
    try:
        for nid, kind, ips in nodes:
            graph.add_node(TopoNode(nid, kind, ips))
        for fields in edges:
            graph.add_edge(TopoEdge(*fields))
    except TopologyError as exc:
        raise ProtocolError(str(exc)) from exc
    return graph


# -- topology --------------------------------------------------------------


def encode_topology(graph: TopologyGraph) -> str:
    lines = [f"{MAGIC} TOPOLOGY"]
    for n in graph.nodes():
        ips = ",".join(n.ips)
        lines.append(f"NODE {_enc(n.id)} {n.kind} {ips}".rstrip())
    for e in graph.edges():
        lines.append(
            f"EDGE {_enc(e.a)} {_enc(e.b)} {_num(e.capacity_bps)} "
            f"{_num(e.util_ab_bps)} {_num(e.util_ba_bps)} {_num(e.latency_s)} "
            f"{_num(e.jitter_s)}"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def decode_topology(text: str) -> TopologyGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"{MAGIC} TOPOLOGY":
        raise ProtocolError("missing topology header")
    if lines[-1] != "END":
        raise ProtocolError("missing END")
    nodes, edges = [], []
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] == "NODE":
            if len(parts) not in (3, 4):
                raise ProtocolError(f"bad NODE line: {ln!r}")
            ips: tuple[str, ...] = ()
            if len(parts) == 4:
                ips = tuple(p for p in parts[3].split(",") if p)
            nodes.append((_dec(parts[1]), parts[2], ips))
        elif parts[0] == "EDGE":
            # 7 fields = protocol v1 (no jitter); 8 = with jitter
            if len(parts) not in (7, 8):
                raise ProtocolError(f"bad EDGE line: {ln!r}")
            edges.append(
                (
                    _dec(parts[1]),
                    _dec(parts[2]),
                    _parse_num(parts[3]),
                    _parse_num(parts[4]),
                    _parse_num(parts[5]),
                    _parse_num(parts[6]),
                    _parse_num(parts[7]) if len(parts) == 8 else 0.0,
                )
            )
        else:
            raise ProtocolError(f"unknown record {parts[0]!r}")
    return build_graph(nodes, edges)


# -- queries ----------------------------------------------------------------


def encode_request(req: TopologyRequest) -> str:
    mode = "DYNAMICS" if req.include_dynamics else "STATIC"
    head = f"{MAGIC} QUERY TOPOLOGY {mode}"
    if req.anchor_ip:
        head += f" ANCHOR {req.anchor_ip}"
    lines = [head]
    lines.extend(f"NODEIP {ip}" for ip in req.node_ips)
    lines.append("END")
    return "\n".join(lines) + "\n"


def decode_request(text: str) -> TopologyRequest:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"{MAGIC} QUERY TOPOLOGY"):
        raise ProtocolError("missing query header")
    if lines[-1] != "END":
        raise ProtocolError("missing END")
    head = lines[0].split()
    include_dynamics = "DYNAMICS" in head
    anchor = None
    if "ANCHOR" in head:
        idx = head.index("ANCHOR")
        if idx + 1 >= len(head):
            raise ProtocolError("ANCHOR without address")
        anchor = head[idx + 1]
    ips = []
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] != "NODEIP" or len(parts) != 2:
            raise ProtocolError(f"bad query line {ln!r}")
        ips.append(parts[1])
    if not ips:
        raise ProtocolError("query without nodes")
    return TopologyRequest(tuple(ips), include_dynamics, anchor)
