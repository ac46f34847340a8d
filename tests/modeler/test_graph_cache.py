"""Mutation-versioned caching on :class:`TopologyGraph`.

Paths, node views, and edge views are memoised; a mutation that can
change a path (a structurally new edge, a removed node) clears the path
cache, one that cannot (a new node, an annotation re-add) keeps it, and
cached answers always equal recomputed ones.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.collectors.base import TopologyRequest
from repro.common.errors import TopologyError
from repro.deploy import deploy_wan
from repro.modeler.graph import HOST, SWITCH, TopoEdge, TopoNode, TopologyGraph
from repro.netsim.builders import build_random_wan


def _chain(ids):
    g = TopologyGraph()
    for i in ids:
        g.add_node(TopoNode(i, HOST if i.startswith("h") else SWITCH, ()))
    for a, b in zip(ids, ids[1:]):
        g.add_edge(TopoEdge(a, b, 100e6, latency_s=0.001))
    return g


class TestVersioning:
    def test_mutations_bump_version(self):
        g = TopologyGraph()
        v0 = g.version
        g.add_node(TopoNode("a", HOST))
        assert g.version > v0
        v1 = g.version
        g.add_node(TopoNode("b", HOST))
        g.add_edge(TopoEdge("a", "b"))
        assert g.version > v1
        v2 = g.version
        g.remove_node("b")
        assert g.version > v2

    def test_merge_bumps_version(self):
        g = _chain(["h1", "s1"])
        other = _chain(["s1", "h2"])
        v = g.version
        g.merge(other)
        assert g.version > v


class TestPathCache:
    def test_repeated_path_hits_cache(self):
        g = _chain(["h1", "s1", "s2", "h2"])
        with obs.scoped_registry() as reg:
            first = g.path("h1", "h2")
            second = g.path("h1", "h2")
            reverse = g.path("h2", "h1")
        assert first == ["h1", "s1", "s2", "h2"]
        assert second == first
        assert reverse == list(reversed(first))
        snap = obs.export.snapshot(reg)
        assert snap["counters"]["modeler.graph.path_cache{result=miss}"] == 1
        assert snap["counters"]["modeler.graph.path_cache{result=hit}"] == 2

    def test_cached_path_is_a_copy(self):
        g = _chain(["h1", "s1", "h2"])
        p = g.path("h1", "h2")
        p.append("junk")
        assert g.path("h1", "h2") == ["h1", "s1", "h2"]

    def test_add_edge_invalidates(self):
        g = _chain(["h1", "s1", "s2", "h2"])
        assert g.path("h1", "h2") == ["h1", "s1", "s2", "h2"]
        g.add_edge(TopoEdge("h1", "s2", 100e6))  # shortcut appears
        assert g.path("h1", "h2") == ["h1", "s2", "h2"]

    def test_remove_node_invalidates(self):
        g = _chain(["h1", "s1", "h2"])
        assert g.path("h1", "h2")
        g.remove_node("s1")
        with pytest.raises(TopologyError):
            g.path("h1", "h2")

    def test_merge_invalidates(self):
        g = _chain(["h1", "s1"])
        with pytest.raises(TopologyError):
            g.path("h1", "h2")  # caches the negative result
        g.merge(_chain(["s1", "h2"]))
        assert g.path("h1", "h2") == ["h1", "s1", "h2"]

    def test_negative_result_cached(self):
        g = TopologyGraph()
        g.add_node(TopoNode("a", HOST))
        g.add_node(TopoNode("b", HOST))
        with obs.scoped_registry() as reg:
            for _ in range(3):
                with pytest.raises(TopologyError):
                    g.path("a", "b")
        snap = obs.export.snapshot(reg)
        assert snap["counters"]["modeler.graph.path_cache{result=miss}"] == 1
        assert snap["counters"]["modeler.graph.path_cache{result=hit}"] == 2


def _two_chains():
    """Two disjoint chains: h1-s1-s2-h2 and h3-s3-s4-h4."""
    g = TopologyGraph()
    for i in ["h1", "s1", "s2", "h2", "h3", "s3", "s4", "h4"]:
        g.add_node(TopoNode(i, HOST if i.startswith("h") else SWITCH, ()))
    for a, b in [
        ("h1", "s1"), ("s1", "s2"), ("s2", "h2"),
        ("h3", "s3"), ("s3", "s4"), ("s4", "h4"),
    ]:
        g.add_edge(TopoEdge(a, b, 100e6))
    return g


class TestScopedInvalidation:
    """Which mutations keep the path cache, and that it never lies."""

    def test_annotation_readd_drops_nothing(self):
        g = _two_chains()
        assert g.path("h1", "h2")
        with obs.scoped_registry() as reg:
            # same structural edge, fresh utilization: a measurement
            # refresh, not a topology change
            g.add_edge(TopoEdge("s1", "s2", 100e6, util_ab_bps=5e6))
            assert g.path("h1", "h2") == ["h1", "s1", "s2", "h2"]
            snap = obs.export.snapshot(reg)
        c = snap["counters"]
        assert c["modeler.graph.path_cache{result=hit}"] == 1
        assert "modeler.graph.path_cache{result=miss}" not in c
        assert g.edge("s1", "s2").util_ab_bps == 5e6

    def test_copy_carries_cache(self):
        g = _two_chains()
        assert g.path("h1", "h2")
        cp = g.copy()
        with obs.scoped_registry() as reg:
            assert cp.path("h1", "h2") == ["h1", "s1", "s2", "h2"]
            snap = obs.export.snapshot(reg)
        assert snap["counters"]["modeler.graph.path_cache{result=hit}"] == 1

    def test_randomized_warm_equals_cold(self):
        """Soundness under arbitrary mutation/query interleavings.

        After every mutation — ``remove_node`` included — a warm
        (cached) answer must equal, node for node, what a cold graph
        with the same mutation history computes: the twin below takes
        every mutation too and has its cache emptied before each read,
        so equal-length ties fall the same way or the cache lied.  Pairs
        are asked smaller id first: the cache is keyed by the unordered
        pair and answers the reverse query with the reversed path.
        """
        # seeds 6 and 8 reach equal-length ties on which an entry kept
        # across ``remove_node`` differs from the recompute
        for seed in (7, 6, 8):
            self._warm_equals_cold(random.Random(seed))

    @staticmethod
    def _warm_equals_cold(rng):
        ids = [f"n{i}" for i in range(9)]
        g, twin = TopologyGraph(), TopologyGraph()
        alive = set()

        def ensure(node_id):
            if node_id not in alive:
                for graph in (g, twin):
                    graph.add_node(TopoNode(node_id, HOST, ()))
                alive.add(node_id)

        def path_or_none(graph, x, y):
            try:
                return graph.path(x, y)
            except TopologyError:
                return None

        for i in ids[:4]:
            ensure(i)
        for _ in range(150):
            op = rng.random()
            if op < 0.45:
                a, b = rng.sample(ids, 2)
                ensure(a)
                ensure(b)
                for graph in (g, twin):
                    graph.add_edge(TopoEdge(a, b, 100e6))
            elif op < 0.60 and len(alive) > 2:
                victim = rng.choice(sorted(alive))
                for graph in (g, twin):
                    graph.remove_node(victim)
                alive.discard(victim)
            else:
                ensure(rng.choice(ids))
            for _ in range(3):
                x, y = sorted(rng.sample(sorted(alive), 2)) if len(alive) >= 2 else ("n0", "n1")
                twin._paths_cache.clear()
                assert path_or_none(g, x, y) == path_or_none(twin, x, y), (x, y)


class TestViewCaches:
    def test_views_stable_and_sorted(self):
        g = _chain(["h2", "h1", "s9", "s1"])  # insertion order != sorted
        assert [n.id for n in g.nodes()] == ["h1", "h2", "s1", "s9"]
        assert g.nodes() == g.nodes()  # cached and equal across calls
        assert g.edges() == g.edges()

    def test_view_mutation_does_not_corrupt_cache(self):
        g = _chain(["h1", "s1", "h2"])
        view = g.nodes()
        view.clear()
        assert [n.id for n in g.nodes()] == ["h1", "h2", "s1"]

    def test_views_refresh_after_mutation(self):
        g = _chain(["h1", "s1"])
        assert len(g.nodes()) == 2
        g.add_node(TopoNode("h2", HOST))
        assert [n.id for n in g.nodes()] == ["h1", "h2", "s1"]
        g.add_edge(TopoEdge("s1", "h2"))
        assert len(g.edges()) == 2


def _path_or_none(graph, a, b):
    try:
        return graph.path(a, b)
    except TopologyError:
        return None


def _history_free(build, history, asked):
    """Ask ``history`` first, then each pair of ``asked``: every answer
    must be its reverse query's reversed and what a freshly built twin
    answers to it first."""
    g = build()
    for a, b in history:
        _path_or_none(g, a, b)
    for a, b in asked:
        got = _path_or_none(g, a, b)
        assert got == _path_or_none(build(), a, b), (a, b)
        back = _path_or_none(g, b, a)
        assert back == (None if got is None else got[::-1]), (a, b)


def _builder(nodes, edges):
    def build():
        g = TopologyGraph()
        for n in nodes:
            g.add_node(n)
        for e in edges:
            g.add_edge(e)
        return g

    return build


@st.composite
def _tie_heavy(draw):
    """A layered graph: every node of a layer may join every node of the
    next, so most pairs have several equal-hop paths; edges are added
    in a drawn order."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    layers = [[f"n{d}{k}" for k in range(w)] for d, w in enumerate(widths)]
    ids = [i for layer in layers for i in layer]
    candidates = [(a, b) for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower]
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    nodes = [TopoNode(i, HOST) for i in draw(st.permutations(ids))]
    edges = [TopoEdge(a, b, 1e6) for a, b in chosen]
    pairs = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8)
    return _builder(nodes, edges), draw(pairs), draw(pairs)


@functools.lru_cache(maxsize=None)
def _master_graph(seed):
    """The graph a Master answers for a ring of flows across a 6-site
    random WAN: the stitch measures only the ring's site pairs, so the
    gateways form a ring, and opposite sites are two equal-hop paths
    apart."""
    world = build_random_wan(6, seed=seed, hosts_per_site=(1, 3), multi_switch_fraction=0.5)
    hosts = [str(site.hosts[0].ip) for site in world.sites.values()]
    ring = frozenset(zip(hosts, hosts[1:] + hosts[:1]))
    resp = deploy_wan(world).master.topology(TopologyRequest(tuple(hosts), pairs=ring))
    return resp.graph.nodes(), resp.graph.edges()


class TestPathIgnoresQueryHistory:
    """``path(a, b) == path(b, a)[::-1]``, and equal to a fresh graph's
    answer, whatever was asked before (the search always runs from the
    smaller id)."""

    def test_the_four_cycle(self):
        build = _builder(
            [TopoNode(i, HOST) for i in "axyb"],
            [TopoEdge(a, b) for a, b in [("a", "x"), ("a", "y"), ("b", "y"), ("b", "x")]],
        )
        assert build().path("a", "b") == ["a", "y", "b"]
        _history_free(build, [("b", "a")], [("a", "b")])

    @given(_tie_heavy())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_graphs(self, case):
        _history_free(*case)

    @pytest.mark.parametrize("seed", range(3))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_random_wan_master_graphs(self, seed, data):
        nodes, edges = _master_graph(seed)
        ids = [n.id for n in nodes]
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        history = data.draw(st.lists(pair, max_size=12))
        _history_free(_builder(nodes, edges), history, [(a, b) for a in ids for b in ids])
