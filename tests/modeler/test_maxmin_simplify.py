"""Tests for modeler flow math and topology simplification."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.deploy import deploy_wan
from repro.modeler.graph import (
    HOST,
    SWITCH,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)
from repro.modeler.maxmin import predict_flows
from repro.modeler.simplify import collapse_chains, prune, simplify


def _shared_bottleneck():
    """h1,h2 -- sw -- 10 Mbps -- gw -- h3: both flows share sw-gw."""
    g = TopologyGraph()
    for hid in ("h1", "h2", "h3"):
        g.add_node(TopoNode(hid, HOST))
    g.add_node(TopoNode("sw", SWITCH))
    g.add_node(TopoNode("gw", SWITCH))
    g.add_edge(TopoEdge("h1", "sw", 100e6))
    g.add_edge(TopoEdge("h2", "sw", 100e6))
    g.add_edge(TopoEdge("sw", "gw", 10e6))
    g.add_edge(TopoEdge("gw", "h3", 100e6))
    return g


class TestPredictFlows:
    def test_single_flow_bottleneck(self):
        g = _shared_bottleneck()
        [p] = predict_flows(g, [("h1", "h3")])
        assert p.rate_bps == pytest.approx(10e6)
        assert p.bottleneck_bps == pytest.approx(10e6)
        assert p.capacity_bps == pytest.approx(10e6)

    def test_two_flows_share_fairly(self):
        g = _shared_bottleneck()
        preds = predict_flows(g, [("h1", "h3"), ("h2", "h3")])
        assert preds[0].rate_bps == pytest.approx(5e6)
        assert preds[1].rate_bps == pytest.approx(5e6)

    def test_utilization_reduces_residual(self):
        g = _shared_bottleneck()
        g.add_edge(TopoEdge("sw", "gw", 10e6, util_ab_bps=4e6))
        [p] = predict_flows(g, [("h1", "h3")])
        assert p.rate_bps == pytest.approx(6e6)
        assert p.capacity_bps == pytest.approx(10e6)

    def test_demand_cap(self):
        g = _shared_bottleneck()
        preds = predict_flows(g, [("h1", "h3"), ("h2", "h3")], demands=[2e6, math.inf])
        assert preds[0].rate_bps == pytest.approx(2e6)
        assert preds[1].rate_bps == pytest.approx(8e6)

    def test_opposite_directions_dont_contend(self):
        g = _shared_bottleneck()
        preds = predict_flows(g, [("h1", "h3"), ("h3", "h2")])
        # full duplex: each direction has its own 10 Mbps
        assert preds[0].rate_bps == pytest.approx(10e6)
        assert preds[1].rate_bps == pytest.approx(10e6)

    def test_no_path_raises(self):
        g = _shared_bottleneck()
        g.add_node(TopoNode("h9", HOST))
        with pytest.raises(QueryError):
            predict_flows(g, [("h1", "h9")])

    def test_demand_length_mismatch(self):
        g = _shared_bottleneck()
        with pytest.raises(ValueError):
            predict_flows(g, [("h1", "h3")], demands=[1.0, 2.0])


def _chain_graph(k=4):
    """h1 - s1 - s2 - ... - sk - h2 with varying capacities."""
    g = TopologyGraph()
    g.add_node(TopoNode("h1", HOST))
    g.add_node(TopoNode("h2", HOST))
    prev = "h1"
    caps = [100e6, 10e6, 50e6, 80e6, 100e6]
    utils = [0.0, 4e6, 0.0, 20e6, 0.0]
    for i in range(k):
        sid = f"s{i}"
        g.add_node(TopoNode(sid, SWITCH))
        g.add_edge(TopoEdge(prev, sid, caps[i % 5], util_ab_bps=utils[i % 5]))
        prev = sid
    g.add_edge(TopoEdge(prev, "h2", 100e6))
    return g


class TestSimplify:
    def test_prune_drops_dangling(self):
        g = _shared_bottleneck()
        g.add_node(TopoNode("stray", SWITCH))
        g.add_edge(TopoEdge("gw", "stray", 1e6))
        p = prune(g, protect={"h1", "h3"})
        assert not p.has_node("stray")
        assert not p.has_node("h2")  # unprotected leaf host goes too
        assert p.has_node("h1") and p.has_node("h3")

    def test_collapse_preserves_flow_answers(self):
        g = _chain_graph(4)
        [before] = predict_flows(g, [("h1", "h2")])
        s = collapse_chains(g, protect={"h1", "h2"})
        assert len(s) < len(g)
        [after] = predict_flows(s, [("h1", "h2")])
        assert after.rate_bps == pytest.approx(before.rate_bps)
        # reverse direction preserved too
        [rb] = predict_flows(g, [("h2", "h1")])
        [ra] = predict_flows(s, [("h2", "h1")])
        assert ra.rate_bps == pytest.approx(rb.rate_bps)

    def test_collapse_inserts_vswitch(self):
        g = _chain_graph(3)
        s = collapse_chains(g, protect={"h1", "h2"})
        kinds = {n.kind for n in s.nodes()}
        assert VSWITCH in kinds
        assert s.path("h1", "h2")[1].startswith("vsw:")

    def test_simplify_pipeline(self):
        g = _chain_graph(5)
        g.add_node(TopoNode("stray", SWITCH))
        g.add_edge(TopoEdge("s2", "stray", 1e6))
        s = simplify(g, protect={"h1", "h2"})
        assert not s.has_node("stray")
        [before] = predict_flows(g, [("h1", "h2")])
        [after] = predict_flows(s, [("h1", "h2")])
        assert after.rate_bps == pytest.approx(before.rate_bps)

    def test_protected_interior_not_collapsed(self):
        g = _chain_graph(3)
        s = collapse_chains(g, protect={"h1", "h2", "s1"})
        assert s.has_node("s1")

    @given(st.integers(2, 8), st.lists(st.floats(1e6, 100e6), min_size=9, max_size=9),
           st.lists(st.floats(0, 0.9), min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_collapse_equivalence_property(self, k, caps, util_fracs):
        """Chain collapsing never changes either direction's answer."""
        g = TopologyGraph()
        g.add_node(TopoNode("h1", HOST))
        g.add_node(TopoNode("h2", HOST))
        prev = "h1"
        for i in range(k):
            sid = f"s{i}"
            g.add_node(TopoNode(sid, SWITCH))
            cap = caps[i % 9]
            g.add_edge(TopoEdge(prev, sid, cap,
                                util_ab_bps=cap * util_fracs[i % 9],
                                util_ba_bps=cap * util_fracs[(i + 3) % 9]))
            prev = sid
        g.add_edge(TopoEdge(prev, "h2", caps[-1]))
        s = simplify(g, protect={"h1", "h2"})
        for pair in (("h1", "h2"), ("h2", "h1")):
            [b] = predict_flows(g, [pair])
            [a] = predict_flows(s, [pair])
            assert a.rate_bps == pytest.approx(b.rate_bps, rel=1e-9)


class TestSimplifyCopiesOnce:
    """``simplify`` prunes and collapses one private copy; the public
    ``prune``/``collapse_chains`` each still copy on entry, and chaining
    them is the two-copy pipeline ``simplify`` used to be."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_view_as_the_two_copy_pipeline(self, random_wan, seed):
        # multi-switch sites are what gives the collapse pass chains
        world = random_wan(
            4 + seed % 3, seed=seed, hosts_per_site=(2, 4), multi_switch_fraction=0.7
        )
        every_host = [str(h.ip) for site in world.sites.values() for h in site.hosts]
        raw = deploy_wan(world).session().topology(every_host, detail="raw")
        assert raw.ok
        rng = random.Random(seed)
        vswitches = 0
        for _ in range(4):
            protect = set(rng.sample(every_host, rng.randint(2, len(every_host))))
            before = raw.graph.to_dict()
            got = simplify(raw.graph, protect)
            want = collapse_chains(prune(raw.graph, protect), protect)
            # nodes (with vswitch ids), edges and every annotation
            assert got.to_dict() == want.to_dict()
            assert got is not raw.graph and raw.graph.to_dict() == before
            vswitches += sum(n.kind == VSWITCH for n in got.nodes())
        assert vswitches, "no chain collapsed: the worlds no longer exercise the pass"

    def test_public_passes_still_copy_on_entry(self):
        g = _chain_graph(4)
        g.add_node(TopoNode("stray", SWITCH))
        g.add_edge(TopoEdge("s2", "stray", 1e6))
        before = g.to_dict()
        assert prune(g, {"h1", "h2"}) is not g
        assert collapse_chains(g, {"h1", "h2"}) is not g
        assert g.to_dict() == before
