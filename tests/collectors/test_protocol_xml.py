"""Round-trip tests for protocol v2 (XML over HTTP-style framing)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.base import HistoryRequest, HistoryResponse, TopologyRequest
from repro.collectors.protocol import ProtocolError
from repro.collectors.protocol_xml import (
    decode_history_request_xml,
    decode_history_xml,
    decode_request_xml,
    decode_topology_xml,
    encode_history_request_xml,
    encode_history_xml,
    encode_request_xml,
    encode_topology_xml,
    http_frame,
    http_unframe,
)
from repro.modeler.graph import HOST, ROUTER, VSWITCH, TopoEdge, TopoNode, TopologyGraph


def _sample_graph():
    g = TopologyGraph()
    g.add_node(TopoNode("10.0.0.1", HOST, ("10.0.0.1",)))
    g.add_node(TopoNode("gw", ROUTER, ("10.0.0.254", "192.168.0.1")))
    g.add_node(TopoNode("vsw:10.0.0.0/24", VSWITCH))
    g.add_edge(TopoEdge("10.0.0.1", "vsw:10.0.0.0/24", math.inf))
    g.add_edge(TopoEdge("vsw:10.0.0.0/24", "gw", 1e8, 2.5e6, 1.25e5, 0.001))
    return g


class TestTopologyXml:
    def test_roundtrip(self):
        g = _sample_graph()
        g2 = decode_topology_xml(encode_topology_xml(g))
        assert sorted(n.id for n in g2.nodes()) == sorted(n.id for n in g.nodes())
        e = g2.edge("vsw:10.0.0.0/24", "gw")
        assert e.capacity_bps == 1e8
        assert e.util_ab_bps == 2.5e6 or e.util_ba_bps == 2.5e6
        assert math.isinf(g2.edge("10.0.0.1", "vsw:10.0.0.0/24").capacity_bps)

    def test_ips_preserved(self):
        g2 = decode_topology_xml(encode_topology_xml(_sample_graph()))
        assert g2.node("gw").ips == ("10.0.0.254", "192.168.0.1")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "<remos version='1'><topology/></remos>",
            "<remos version='2'></remos>",
            "<remos version='2'><topology><node kind='host'/></topology></remos>",
            "<remos version='2'><topology><edge a='x' b='y'/></topology></remos>",
            "not xml at all",
            "<remos version='2'><topology><node id='a' kind='gizmo'/></topology></remos>",
            "<remos version='2'><topology><node id='a' kind='host'/><edge a='a' b='b'"
            " capacity='1' utilAB='0' utilBA='0' latency='0'/></topology></remos>",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ProtocolError):
            decode_topology_xml(bad)


class TestQueryXml:
    def test_roundtrip(self):
        req = TopologyRequest(("10.0.0.1", "10.0.0.2"), True, "10.0.0.254")
        req2 = decode_request_xml(encode_request_xml(req))
        assert req2 == req

    def test_static_no_anchor(self):
        req = TopologyRequest(("10.0.0.1",), include_dynamics=False)
        req2 = decode_request_xml(encode_request_xml(req))
        assert req2.include_dynamics is False
        assert req2.anchor_ip is None

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request_xml("<remos version='2'><query/></remos>")


class TestHistoryXml:
    def test_request_roundtrip(self):
        req = HistoryRequest("gw", "core", 128)
        req2 = decode_history_request_xml(encode_history_request_xml(req))
        assert req2 == req

    def test_bad_max_rejected(self):
        text = encode_history_request_xml(HistoryRequest("a", "b")).replace(
            'max="512"', 'max="abc"'
        )
        with pytest.raises(ProtocolError):
            decode_history_request_xml(text)

    def test_response_roundtrip(self):
        resp = HistoryResponse("utilization", (1.0, 2.0, 3.0), (1e6, 2e6, 1.5e6))
        text = encode_history_xml(resp, "gw", "core")
        resp2, a, b = decode_history_xml(text)
        assert (a, b) == ("gw", "core")
        assert resp2.kind == "utilization"
        assert resp2.times == resp.times
        assert resp2.rates_bps == resp.rates_bps

    def test_available_kind(self):
        resp = HistoryResponse("available", (1.0,), (5e6,))
        resp2, _, _ = decode_history_xml(encode_history_xml(resp, "a", "b"))
        assert resp2.kind == "available"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            HistoryResponse("velocity", (), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HistoryResponse("available", (1.0,), ())

    @given(
        st.lists(
            st.tuples(st.floats(0, 1e6), st.floats(0, 1e12)),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_series_roundtrip(self, samples):
        times = tuple(t for t, _ in samples)
        rates = tuple(r for _, r in samples)
        resp = HistoryResponse("utilization", times, rates)
        resp2, _, _ = decode_history_xml(encode_history_xml(resp, "x", "y"))
        assert resp2.times == pytest.approx(times)
        assert resp2.rates_bps == pytest.approx(rates)


class TestHttpFraming:
    def test_request_roundtrip(self):
        body = encode_request_xml(TopologyRequest(("10.0.0.1",)))
        frame = http_frame("/remos/v2/topology", body)
        path, body2 = http_unframe(frame)
        assert path == "/remos/v2/topology"
        assert body2 == body

    def test_response_roundtrip(self):
        body = encode_topology_xml(_sample_graph())
        frame = http_frame("", body, status=200)
        status, body2 = http_unframe(frame)
        assert status == "200"
        assert decode_topology_xml(body2).has_node("gw")

    def test_utf8_body_length(self):
        body = "<remos version=\"2\"><topology/></remos>"
        frame = http_frame("/x", body)
        assert f"Content-Length: {len(body.encode())}".encode() in frame

    @pytest.mark.parametrize(
        "bad",
        [b"", b"GET\r\n\r\n", b"POST /x HTTP/1.0\r\n\r\nbody",
         b"POST /x HTTP/1.0\r\nContent-Length: 100\r\n\r\nshort",
         b"POST /x HTTP/1.0\r\nContent-Length: -1\r\n\r\nbody"],
    )
    def test_malformed_frames(self, bad):
        with pytest.raises(ProtocolError):
            http_unframe(bad)


class TestEndToEndV2:
    """A full exchange over the v2 protocol: the modeler side encodes a
    query, the collector side answers, histories flow to RPS."""

    def test_query_answer_history_cycle(self):
        from repro.common.units import MBPS
        from repro.netsim.builders import build_switched_lan
        from repro.deploy import deploy_lan

        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan)
        lan.net.flows.start_flow(lan.hosts[0], lan.hosts[7], demand_bps=30 * MBPS)
        dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 60.0)

        # wire trip: query
        req = TopologyRequest((str(lan.hosts[0].ip), str(lan.hosts[7].ip)))
        wire_req = http_frame("/remos/v2/topology", encode_request_xml(req))
        path, body = http_unframe(wire_req)
        served = dep.master.topology(decode_request_xml(body))
        wire_resp = http_frame("", encode_topology_xml(served.graph), status=200)
        _, body2 = http_unframe(wire_resp)
        graph = decode_topology_xml(body2)
        assert graph.has_node(str(lan.hosts[0].ip))

        # wire trip: history of the first monitored edge
        hreq = HistoryRequest(str(lan.hosts[0].ip), "sw0")
        wire_h = http_frame("/remos/v2/history", encode_history_request_xml(hreq))
        _, hbody = http_unframe(wire_h)
        resp = dep.master.history(decode_history_request_xml(hbody))
        assert resp is not None
        resp2, a, b = decode_history_xml(
            http_unframe(http_frame("", encode_history_xml(resp, hreq.edge_a, hreq.edge_b), status=200))[1]
        )
        assert len(resp2.rates_bps) >= 5
        import numpy as np

        assert np.mean(resp2.rates_bps) == pytest.approx(30 * MBPS, rel=0.1)
