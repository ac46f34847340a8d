"""Protocol v2: XML messages over an HTTP-style framing.

The paper's §6.2: "The initial implementation used a simple text format
that we would like to replace with an XML format using HTTP as a
communication protocol.  This change would give us much more
flexibility in the kinds of data we can exchange ... In particular, the
XML format will enable us to send an entire history of network
measurements to the RPS subsystem."

This module delivers that upgrade: XML codecs for topology
requests/responses **and** measurement histories (the v1 ASCII protocol
cannot carry histories), plus minimal HTTP/1.0-style request/response
framing so a byte stream between components is self-describing.

Message shapes::

    <remos version="2">
      <topology>
        <node id=".." kind=".."> <ip>..</ip>* </node>*
        <edge a=".." b=".." capacity=".." utilAB=".." utilBA=".." latency=".."/>*
      </topology>
    </remos>

    <remos version="2">
      <query dynamics="1" anchor="10.0.0.1"> <nodeip>..</nodeip>+ </query>
    </remos>

    <remos version="2">
      <history kind="utilization" a=".." b="..">
        <sample t=".." bps=".."/>*
      </history>
    </remos>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.collectors.base import HistoryRequest, HistoryResponse, TopologyRequest
from repro.collectors.protocol import ProtocolError, _num, _parse_num, build_graph
from repro.modeler.graph import TopologyGraph

VERSION = "2"


def _root(kind: str) -> ET.Element:
    root = ET.Element("remos", version=VERSION)
    ET.SubElement(root, kind)
    return root


def _parse_root(text: str, kind: str) -> ET.Element:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc
    if root.tag != "remos" or root.get("version") != VERSION:
        raise ProtocolError("not a remos v2 message")
    child = root.find(kind)
    if child is None:
        raise ProtocolError(f"missing <{kind}> element")
    return child


# -- topology ---------------------------------------------------------------


def encode_topology_xml(graph: TopologyGraph) -> str:
    root = _root("topology")
    topo = root[0]
    for n in graph.nodes():
        node_el = ET.SubElement(topo, "node", id=n.id, kind=n.kind)
        for ip in n.ips:
            ET.SubElement(node_el, "ip").text = ip
    for e in graph.edges():
        ET.SubElement(
            topo, "edge",
            a=e.a, b=e.b,
            capacity=_num(e.capacity_bps),
            utilAB=_num(e.util_ab_bps),
            utilBA=_num(e.util_ba_bps),
            latency=_num(e.latency_s),
            jitter=_num(e.jitter_s),
        )
    return ET.tostring(root, encoding="unicode")


def decode_topology_xml(text: str) -> TopologyGraph:
    topo = _parse_root(text, "topology")
    nodes, edges = [], []
    for node_el in topo.findall("node"):
        nid = node_el.get("id")
        kind = node_el.get("kind")
        if nid is None or kind is None:
            raise ProtocolError("node needs id and kind")
        nodes.append((nid, kind, tuple(ip.text or "" for ip in node_el.findall("ip"))))
    for edge_el in topo.findall("edge"):
        attrs = {k: edge_el.get(k) for k in ("a", "b", "capacity", "utilAB", "utilBA", "latency")}
        if any(v is None for v in attrs.values()):
            raise ProtocolError("edge missing attributes")
        edges.append(
            (
                attrs["a"], attrs["b"],
                _parse_num(attrs["capacity"]),
                _parse_num(attrs["utilAB"]),
                _parse_num(attrs["utilBA"]),
                _parse_num(attrs["latency"]),
                _parse_num(edge_el.get("jitter", "0.0")),
            )
        )
    return build_graph(nodes, edges)


# -- queries ------------------------------------------------------------------


def encode_request_xml(req: TopologyRequest) -> str:
    root = _root("query")
    q = root[0]
    q.set("dynamics", "1" if req.include_dynamics else "0")
    if req.anchor_ip:
        q.set("anchor", req.anchor_ip)
    for ip in req.node_ips:
        ET.SubElement(q, "nodeip").text = ip
    return ET.tostring(root, encoding="unicode")


def decode_request_xml(text: str) -> TopologyRequest:
    q = _parse_root(text, "query")
    ips = tuple(el.text or "" for el in q.findall("nodeip"))
    if not ips:
        raise ProtocolError("query without nodes")
    return TopologyRequest(
        ips,
        include_dynamics=q.get("dynamics", "1") == "1",
        anchor_ip=q.get("anchor"),
    )


# -- history ------------------------------------------------------------------


def encode_history_request_xml(req: HistoryRequest) -> str:
    root = _root("historyquery")
    h = root[0]
    h.set("a", req.edge_a)
    h.set("b", req.edge_b)
    h.set("max", str(req.max_samples))
    return ET.tostring(root, encoding="unicode")


def decode_history_request_xml(text: str) -> HistoryRequest:
    h = _parse_root(text, "historyquery")
    a, b = h.get("a"), h.get("b")
    if a is None or b is None:
        raise ProtocolError("history query needs edge endpoints")
    try:
        return HistoryRequest(a, b, int(h.get("max", "512")))
    except ValueError as exc:
        raise ProtocolError(f"bad max: {exc}") from exc


def encode_history_xml(resp: HistoryResponse, edge_a: str, edge_b: str) -> str:
    root = _root("history")
    h = root[0]
    h.set("kind", resp.kind)
    h.set("a", edge_a)
    h.set("b", edge_b)
    for t, bps in zip(resp.times, resp.rates_bps):
        ET.SubElement(h, "sample", t=_num(t), bps=_num(bps))
    return ET.tostring(root, encoding="unicode")


def decode_history_xml(text: str) -> tuple[HistoryResponse, str, str]:
    h = _parse_root(text, "history")
    kind = h.get("kind")
    a, b = h.get("a"), h.get("b")
    if kind is None or a is None or b is None:
        raise ProtocolError("history needs kind and endpoints")
    times = []
    rates = []
    for s in h.findall("sample"):
        t, bps = s.get("t"), s.get("bps")
        if t is None or bps is None:
            raise ProtocolError("bad sample")
        times.append(_parse_num(t))
        rates.append(_parse_num(bps))
    try:
        resp = HistoryResponse(kind, tuple(times), tuple(rates))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return resp, a, b


# -- HTTP-ish framing --------------------------------------------------------


def http_frame(path: str, body: str, status: int | None = None) -> bytes:
    """Wrap an XML body in HTTP/1.0-style framing.

    With ``status=None`` this is a request (``POST path``); otherwise a
    response with that status code.
    """
    payload = body.encode("utf-8")
    if status is None:
        head = f"POST {path} HTTP/1.0\r\n"
    else:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "")
        head = f"HTTP/1.0 {status} {reason}\r\n"
    head += "Content-Type: text/xml\r\n"
    head += f"Content-Length: {len(payload)}\r\n\r\n"
    return head.encode("ascii") + payload


def http_unframe(data: bytes) -> tuple[str, str]:
    """Parse a frame back into (path-or-status, body)."""
    try:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        start = lines[0]
        headers = dict(
            (k.strip().lower(), v.strip())
            for k, v in (ln.split(":", 1) for ln in lines[1:] if ":" in ln)
        )
        length = int(headers["content-length"])
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        body = rest[:length].decode("utf-8")
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed HTTP frame: {exc}") from exc
    if len(rest) < length:
        raise ProtocolError("truncated HTTP body")
    parts = start.split(" ")
    if parts[0] == "POST" and len(parts) >= 2:
        return parts[1], body
    if parts[0].startswith("HTTP/") and len(parts) >= 2:
        return parts[1], body
    raise ProtocolError(f"bad start line {start!r}")
