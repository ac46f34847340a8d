"""Tests for the virtual topology graph."""

import math

import pytest

from repro.common.errors import TopologyError
from repro.modeler.graph import (
    HOST,
    ROUTER,
    SWITCH,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)


def _line_graph():
    """h1 - s1 - s2 - h2 with a 10 Mbps middle edge."""
    g = TopologyGraph()
    g.add_node(TopoNode("h1", HOST, ("10.0.0.1",)))
    g.add_node(TopoNode("s1", SWITCH))
    g.add_node(TopoNode("s2", SWITCH))
    g.add_node(TopoNode("h2", HOST, ("10.0.0.2",)))
    g.add_edge(TopoEdge("h1", "s1", 100e6, latency_s=0.001))
    g.add_edge(TopoEdge("s1", "s2", 10e6, util_ab_bps=4e6, util_ba_bps=1e6, latency_s=0.001))
    g.add_edge(TopoEdge("s2", "h2", 100e6, latency_s=0.001))
    return g


class TestNodesAndEdges:
    def test_bad_kind_rejected(self):
        with pytest.raises(TopologyError):
            TopoNode("x", "gizmo")

    def test_add_node_merges_ips(self):
        g = TopologyGraph()
        g.add_node(TopoNode("h", HOST, ("10.0.0.1",)))
        merged = g.add_node(TopoNode("h", HOST, ("10.0.0.2",)))
        assert merged.ips == ("10.0.0.1", "10.0.0.2")
        assert len(g) == 1

    def test_edge_requires_endpoints(self):
        g = TopologyGraph()
        g.add_node(TopoNode("a", HOST))
        with pytest.raises(TopologyError):
            g.add_edge(TopoEdge("a", "missing"))

    def test_edge_key_canonical(self):
        e = TopoEdge("b", "a")
        assert e.key() == ("a", "b")

    def test_util_from_direction(self):
        e = TopoEdge("a", "b", 10e6, util_ab_bps=3e6, util_ba_bps=1e6)
        assert e.util_from("a") == 3e6
        assert e.util_from("b") == 1e6
        with pytest.raises(TopologyError):
            e.util_from("c")

    def test_available_from(self):
        e = TopoEdge("a", "b", 10e6, util_ab_bps=3e6)
        assert e.available_from("a") == 7e6
        assert e.available_from("b") == 10e6

    def test_readd_edge_replaces(self):
        g = _line_graph()
        g.add_edge(TopoEdge("s1", "s2", 20e6))
        assert g.edge("s1", "s2").capacity_bps == 20e6
        assert g.num_edges() == 3

    def test_missing_lookups_raise(self):
        g = _line_graph()
        with pytest.raises(TopologyError):
            g.node("zz")
        with pytest.raises(TopologyError):
            g.edge("h1", "h2")


class TestPathOps:
    def test_shortest_path(self):
        g = _line_graph()
        assert g.path("h1", "h2") == ["h1", "s1", "s2", "h2"]

    def test_no_path_raises(self):
        g = _line_graph()
        g.add_node(TopoNode("lonely", HOST))
        with pytest.raises(TopologyError):
            g.path("h1", "lonely")

    def test_bottleneck_direction_sensitive(self):
        g = _line_graph()
        # h1->h2 crosses s1->s2 with 4 Mbps used: 6 Mbps left
        assert g.bottleneck_available("h1", "h2") == pytest.approx(6e6)
        # reverse direction only 1 Mbps used: 9 Mbps left
        assert g.bottleneck_available("h2", "h1") == pytest.approx(9e6)

    def test_path_latency(self):
        g = _line_graph()
        assert g.path_latency("h1", "h2") == pytest.approx(0.003)


class TestMergeAndCopy:
    def test_merge_unions(self):
        g1 = _line_graph()
        g2 = TopologyGraph()
        g2.add_node(TopoNode("h2", HOST))
        g2.add_node(TopoNode("h3", HOST))
        g2.add_edge(TopoEdge("h2", "h3", 5e6))
        g1.merge(g2)
        assert g1.has_edge("h2", "h3")
        assert g1.path("h1", "h3")[-1] == "h3"

    def test_copy_is_deep_for_structure(self):
        g = _line_graph()
        c = g.copy()
        c.remove_node("s1")
        assert g.has_node("s1")
        assert not c.has_node("s1")


class TestUnknownNode:
    """An unknown id is a ``TopologyError`` and leaves the graph as it
    was (the networkx-backed graph leaked ``NetworkXError`` and a
    ``TypeError``, and ``remove_node`` had already bumped the version and
    cleared the path cache when it failed)."""

    @pytest.mark.parametrize("call", ["neighbors", "degree", "remove_node"])
    def test_raises_topology_error_and_changes_nothing(self, call):
        g = _line_graph()
        g.path("h1", "h2")
        version, record = g.version, g.to_dict()
        with pytest.raises(TopologyError, match="no node 'zz'"):
            getattr(g, call)("zz")
        assert g.version == version and g.to_dict() == record
        assert g._paths_cache == {("h1", "h2"): ["h1", "s1", "s2", "h2"]}
