"""Round-trip tests for the ASCII wire protocol."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.base import TopologyRequest
from repro.collectors.protocol import (
    ProtocolError,
    decode_request,
    decode_topology,
    encode_request,
    encode_topology,
)
from repro.modeler.graph import (
    CLOUD,
    HOST,
    ROUTER,
    SWITCH,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)


def _sample_graph():
    g = TopologyGraph()
    g.add_node(TopoNode("10.0.0.1", HOST, ("10.0.0.1",)))
    g.add_node(TopoNode("gw one", ROUTER, ("10.0.0.254", "192.168.0.1")))
    g.add_node(TopoNode("vsw:10.0.0.0/24", VSWITCH))
    g.add_edge(TopoEdge("10.0.0.1", "vsw:10.0.0.0/24", math.inf, 0.0, 0.0, 0.0005))
    g.add_edge(TopoEdge("vsw:10.0.0.0/24", "gw one", 1e8, 2.5e6, 1.25e5, 0.001))
    return g


class TestTopologyCodec:
    def test_roundtrip(self):
        g = _sample_graph()
        g2 = decode_topology(encode_topology(g))
        assert sorted(n.id for n in g2.nodes()) == sorted(n.id for n in g.nodes())
        for e in g.edges():
            e2 = g2.edge(e.a, e.b)
            assert e2.capacity_bps == e.capacity_bps
            assert e2.util_ab_bps == e.util_ab_bps
            assert e2.util_ba_bps == e.util_ba_bps
            assert e2.latency_s == e.latency_s

    def test_node_with_space_in_id(self):
        g = _sample_graph()
        g2 = decode_topology(encode_topology(g))
        assert g2.has_node("gw one")

    def test_inf_capacity_roundtrip(self):
        g = _sample_graph()
        g2 = decode_topology(encode_topology(g))
        assert math.isinf(g2.edge("10.0.0.1", "vsw:10.0.0.0/24").capacity_bps)

    def test_ips_roundtrip(self):
        g2 = decode_topology(encode_topology(_sample_graph()))
        assert g2.node("gw one").ips == ("10.0.0.254", "192.168.0.1")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "GARBAGE\nEND",
            "REMOS/1 TOPOLOGY\nNODE a host",  # no END
            "REMOS/1 TOPOLOGY\nWHAT x\nEND",
            "REMOS/1 TOPOLOGY\nEDGE a b 1 2\nEND",  # short edge
            "REMOS/1 TOPOLOGY\nEDGE a b x 0 0 0\nEND",  # bad number
            "REMOS/1 TOPOLOGY\nNODE a gizmo\nEND",  # unknown node kind
            "REMOS/1 TOPOLOGY\nNODE a host\nEDGE a b 1 0 0 0\nEND",  # undeclared node
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_topology(bad)

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                    min_size=1,
                    max_size=12,
                ),
                st.sampled_from([HOST, ROUTER, SWITCH, VSWITCH, CLOUD]),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_node_ids_roundtrip(self, nodes):
        g = TopologyGraph()
        for nid, kind in nodes:
            g.add_node(TopoNode(nid, kind))
        ids = [n.id for n in g.nodes()]
        g2 = decode_topology(encode_topology(g))
        assert sorted(n.id for n in g2.nodes()) == sorted(ids)


class TestRequestCodec:
    def test_roundtrip(self):
        req = TopologyRequest(("10.0.0.1", "10.0.0.2"), True, "10.0.0.254")
        req2 = decode_request(encode_request(req))
        assert req2 == req

    def test_static_roundtrip(self):
        req = TopologyRequest(("10.0.0.1",), include_dynamics=False)
        req2 = decode_request(encode_request(req))
        assert req2.include_dynamics is False
        assert req2.anchor_ip is None

    def test_empty_request_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request("REMOS/1 QUERY TOPOLOGY DYNAMICS\nEND")

    def test_malformed_header(self):
        with pytest.raises(ProtocolError):
            decode_request("HELLO\nNODEIP 1.2.3.4\nEND")
