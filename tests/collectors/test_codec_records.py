"""One record behind three syntaxes.

The ASCII protocol, the XML protocol and the JSON wire all render the
plain record a message type defines (``to_dict`` / ``from_dict``).  Two
things follow and are pinned here: the text of a graph does not depend
on the order it was built in, and no field of any message is lost in
any syntax — the second walks ``dataclasses.fields``, so a field added
later fails here until every syntax carries it.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.base import HistoryRequest, HistoryResponse, TopologyRequest
from repro.collectors.protocol import (
    decode_request,
    decode_topology,
    encode_request,
    encode_topology,
)
from repro.collectors.protocol_xml import (
    decode_history_request_xml,
    decode_history_xml,
    decode_request_xml,
    decode_topology_xml,
    encode_history_request_xml,
    encode_history_xml,
    encode_request_xml,
    encode_topology_xml,
)
from repro.modeler.graph import CLOUD, HOST, ROUTER, SWITCH, VSWITCH, TopoEdge, TopoNode, TopologyGraph
from repro.service.wire import canonical_json

#: text syntaxes of a graph: name -> (encode, decode)
GRAPH_SYNTAXES = {
    "ascii": (encode_topology, decode_topology),
    "xml": (encode_topology_xml, decode_topology_xml),
    "json": (
        lambda g: canonical_json(g.to_dict()),
        lambda text: TopologyGraph.from_dict(json.loads(text)),
    ),
}


def _history_xml(resp):
    return decode_history_xml(encode_history_xml(resp, "gw", "core"))[0]


#: message type -> its round trip through each syntax that carries it
MESSAGE_ROUND_TRIPS = {
    TopologyRequest: {
        "record": lambda r: TopologyRequest.from_dict(r.to_dict()),
        "ascii": lambda r: decode_request(encode_request(r)),
        "xml": lambda r: decode_request_xml(encode_request_xml(r)),
    },
    HistoryRequest: {
        "record": lambda r: HistoryRequest.from_dict(r.to_dict()),
        "xml": lambda r: decode_history_request_xml(encode_history_request_xml(r)),
    },
    HistoryResponse: {
        "record": lambda r: HistoryResponse.from_dict(r.to_dict()),
        "xml": _history_xml,
    },
}

#: for every field of every message, a value that is not its default
SAMPLES = {
    TopologyRequest: {
        "node_ips": ("10.0.0.1", "10.0.0.2", "10.0.1.3"),
        "include_dynamics": False,
        "anchor_ip": "10.0.0.254",
        "anchor_sites": True,
        "stitch": False,
        "pairs": frozenset({("10.0.0.1", "10.0.1.3"), ("10.0.0.2", "10.0.1.3")}),
    },
    HistoryRequest: {"edge_a": "gw one", "edge_b": "core", "max_samples": 7},
    HistoryResponse: {"kind": "available", "times": (1.0, 2.5), "rates_bps": (3e6, 4.25e6)},
    TopoNode: {"id": "gw one", "kind": ROUTER, "ips": ("10.0.0.254", "192.168.0.1")},
    TopoEdge: {
        "a": "gw one",
        "b": "z",
        "capacity_bps": 1e8,
        "util_ab_bps": 2.5e6,
        "util_ba_bps": 1.25e5,
        "latency_s": 0.001,
        "jitter_s": 0.0003,
    },
}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_every_field_has_a_sample_that_is_not_its_default(cls):
    fields = dataclasses.fields(cls)
    assert set(SAMPLES[cls]) == {f.name for f in fields}, "give the new field a sample"
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert SAMPLES[cls][f.name] != f.default, f.name


@pytest.mark.parametrize(
    ("cls", "syntax"),
    [(cls, syntax) for cls, trips in MESSAGE_ROUND_TRIPS.items() for syntax in trips],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_no_message_field_is_lost(cls, syntax):
    round_trip = MESSAGE_ROUND_TRIPS[cls][syntax]
    required = {
        f.name: SAMPLES[cls][f.name]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
    }
    whole = cls(**SAMPLES[cls])
    assert round_trip(whole) == whole
    for f in dataclasses.fields(cls):  # ... and one at a time, beside defaults
        alone = cls(**{**required, f.name: SAMPLES[cls][f.name]})
        assert round_trip(alone) == alone, f.name


def test_the_shard_tier_sub_request_survives_both_syntaxes():
    req = TopologyRequest(("10.0.0.1", "10.0.1.3"), anchor_sites=True, stitch=False, pairs=frozenset())
    assert decode_request(encode_request(req)) == req
    assert decode_request_xml(encode_request_xml(req)) == req


@pytest.mark.parametrize("syntax", [*GRAPH_SYNTAXES, "copy"])
def test_no_node_or_edge_field_is_lost(syntax):
    g = TopologyGraph()
    g.add_node(TopoNode(**SAMPLES[TopoNode]))
    g.add_node(TopoNode("z", HOST))
    g.add_edge(TopoEdge(**SAMPLES[TopoEdge]))
    if syntax == "copy":
        g2 = g.copy()
    else:
        encode, decode = GRAPH_SYNTAXES[syntax]
        g2 = decode(encode(g))
    assert vars(g2.node("gw one")) == SAMPLES[TopoNode]
    assert vars(g2.edge("gw one", "z")) == SAMPLES[TopoEdge]


_ids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=6
)
_rates = st.one_of(st.just(math.inf), st.floats(0, 1e12))


@st.composite
def _graph_parts(draw):
    """Nodes, edges between them, and two insertion orders of each."""
    ids = draw(st.lists(_ids, min_size=2, max_size=6, unique=True))
    kinds = st.sampled_from([HOST, ROUTER, SWITCH, VSWITCH, CLOUD])
    nodes = [TopoNode(i, draw(kinds), (f"10.0.0.{k}",) * (k % 2)) for k, i in enumerate(ids)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1]),
            max_size=8,
            unique_by=lambda p: frozenset(p),
        )
    )
    edges = [
        TopoEdge(a, b, draw(_rates), draw(st.floats(0, 1e9)), draw(st.floats(0, 1e9)), 0.001, 1e-4)
        for a, b in pairs
    ]
    return nodes, edges, draw(st.permutations(nodes)), draw(st.permutations(edges))


def _build(nodes, edges):
    g = TopologyGraph()
    for n in nodes:
        g.add_node(TopoNode(**vars(n)))
    for e in edges:
        g.add_edge(TopoEdge(**vars(e)))
    return g


@given(_graph_parts())
@settings(max_examples=60, deadline=None)
def test_text_is_independent_of_insertion_order(parts):
    nodes, edges, nodes2, edges2 = parts
    g, g2 = _build(nodes, edges), _build(nodes2, edges2)
    for name, (encode, decode) in GRAPH_SYNTAXES.items():
        text = encode(g)
        assert encode(g2) == text, name
        assert decode(text).to_dict() == g.to_dict(), name
