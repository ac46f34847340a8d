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
        <edge a=".." b=".." capacity=".." utilAB=".." utilBA=".." latency=".."
              jitter=".."/>*
      </topology>
    </remos>

    <remos version="2">
      <query dynamics="1" anchor="10.0.0.1" anchorSites="0" stitch="1">
        <nodeip>..</nodeip>+
        <pairs> <pair a=".." b=".."/>* </pairs>?
      </query>
    </remos>

    <remos version="2">
      <history kind="utilization" a=".." b="..">
        <sample t=".." bps=".."/>*
      </history>
    </remos>

As in the ASCII codec, every message is rendered from and parsed to its
type's plain record (``to_dict`` / ``from_dict``); this module only
names the elements and attributes.  ``jitter`` may be missing from an
``<edge>`` (v1 senders), and a ``<query>`` without ``<pairs>`` asks for
every pair.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from repro.collectors.base import HistoryRequest, HistoryResponse, TopologyRequest
from repro.collectors.protocol import ProtocolError, fmt_num, parse_num, graph_of_record
from repro.modeler.graph import EDGE_NUMBERS, TopologyGraph

VERSION = "2"

#: ``<edge>`` attribute of each numeric member of an edge record
_EDGE_ATTRS = dict(
    zip(EDGE_NUMBERS, ("capacity", "utilAB", "utilBA", "latency", "jitter"), strict=True)
)
#: what an ``<edge>`` must carry (v1 senders know no jitter)
_EDGE_REQUIRED = {"a", "b", *_EDGE_ATTRS.values()} - {"jitter"}
#: ``<query>`` attribute of each yes/no member of a request record
_QUERY_FLAGS = {"include_dynamics": "dynamics", "anchor_sites": "anchorSites", "stitch": "stitch"}


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
    record = graph.to_dict()
    root = _root("topology")
    topo = root[0]
    for n in record["nodes"]:
        node_el = ET.SubElement(topo, "node", id=n["id"], kind=n["kind"])
        for ip in n["ips"]:
            ET.SubElement(node_el, "ip").text = ip
    for e in record["edges"]:
        numbers = {attr: fmt_num(e[key]) for key, attr in _EDGE_ATTRS.items()}
        ET.SubElement(topo, "edge", a=e["a"], b=e["b"], **numbers)
    return ET.tostring(root, encoding="unicode")


def decode_topology_xml(text: str) -> TopologyGraph:
    topo = _parse_root(text, "topology")
    nodes: list[dict[str, Any]] = []
    edges: list[dict[str, Any]] = []
    for node_el in topo.findall("node"):
        if node_el.get("id") is None or node_el.get("kind") is None:
            raise ProtocolError("node needs id and kind")
        ips = [ip.text or "" for ip in node_el.findall("ip")]
        nodes.append({"id": node_el.get("id"), "kind": node_el.get("kind"), "ips": ips})
    for edge_el in topo.findall("edge"):
        attrs = edge_el.attrib
        if not attrs.keys() >= _EDGE_REQUIRED:
            raise ProtocolError("edge missing attributes")
        edge: dict[str, Any] = {"a": attrs["a"], "b": attrs["b"]}
        edge.update(
            (key, parse_num(attrs[attr])) for key, attr in _EDGE_ATTRS.items() if attr in attrs
        )
        edges.append(edge)
    return graph_of_record({"nodes": nodes, "edges": edges})


# -- queries ------------------------------------------------------------------


def encode_request_xml(req: TopologyRequest) -> str:
    record = req.to_dict()
    root = _root("query")
    q = root[0]
    for key, attr in _QUERY_FLAGS.items():
        q.set(attr, "1" if record[key] else "0")
    if record["anchor_ip"]:
        q.set("anchor", record["anchor_ip"])
    for ip in record["node_ips"]:
        ET.SubElement(q, "nodeip").text = ip
    if record["pairs"] is not None:
        pairs_el = ET.SubElement(q, "pairs")
        for a, b in record["pairs"]:
            ET.SubElement(pairs_el, "pair", a=a, b=b)
    return ET.tostring(root, encoding="unicode")


def decode_request_xml(text: str) -> TopologyRequest:
    q = _parse_root(text, "query")
    record: dict[str, Any] = {
        "node_ips": [el.text or "" for el in q.findall("nodeip")],
        "anchor_ip": q.get("anchor"),
    }
    if not record["node_ips"]:
        raise ProtocolError("query without nodes")
    for key, attr in _QUERY_FLAGS.items():
        if attr in q.attrib:
            record[key] = q.get(attr) == "1"
    pairs_el = q.find("pairs")
    if pairs_el is not None:
        pairs = [(el.get("a"), el.get("b")) for el in pairs_el.findall("pair")]
        if any(a is None or b is None for a, b in pairs):
            raise ProtocolError("pair needs both addresses")
        record["pairs"] = pairs
    return TopologyRequest.from_dict(record)


# -- history ------------------------------------------------------------------


def encode_history_request_xml(req: HistoryRequest) -> str:
    record = req.to_dict()
    root = _root("historyquery")
    h = root[0]
    h.set("a", record["edge_a"])
    h.set("b", record["edge_b"])
    h.set("max", str(record["max_samples"]))
    return ET.tostring(root, encoding="unicode")


def decode_history_request_xml(text: str) -> HistoryRequest:
    h = _parse_root(text, "historyquery")
    record = {"edge_a": h.get("a"), "edge_b": h.get("b")}
    if None in record.values():
        raise ProtocolError("history query needs edge endpoints")
    if "max" in h.attrib:
        record["max_samples"] = h.get("max")
    try:
        return HistoryRequest.from_dict(record)
    except ValueError as exc:
        raise ProtocolError(f"bad max: {exc}") from exc


def encode_history_xml(resp: HistoryResponse, edge_a: str, edge_b: str) -> str:
    record = resp.to_dict()
    root = _root("history")
    h = root[0]
    h.set("kind", record["kind"])
    h.set("a", edge_a)
    h.set("b", edge_b)
    for t, bps in zip(record["times"], record["rates_bps"]):
        ET.SubElement(h, "sample", t=fmt_num(t), bps=fmt_num(bps))
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
        times.append(parse_num(t))
        rates.append(parse_num(bps))
    try:
        return HistoryResponse.from_dict({"kind": kind, "times": times, "rates_bps": rates}), a, b
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


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
