"""The graph walks against networkx, the library they replaced.

Every walk must answer what networkx's ``Graph`` answers for a graph
built by the same insertion sequence, ties included: a tie decides a
route, an FDB port, an L2 path and a Modeler path.  The graphs drawn
here are small and dense, so equal-hop alternatives are the rule, and
they carry self-loops, repeated edges and isolated nodes.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import graphwalk


@st.composite
def _insertions(draw):
    """(isolated nodes filed first, then (u, v, data) edge insertions)."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    isolated = draw(st.lists(node, max_size=3))
    steps = draw(st.lists(st.tuples(node, node, st.integers(0, 3)), max_size=28))
    return isolated, steps


def _both(isolated, steps):
    adj: dict[int, dict[int, int]] = {}
    g = nx.Graph()
    for k in isolated:
        adj.setdefault(k, {})
        g.add_node(k)
    for u, v, d in steps:
        graphwalk.add_edge(adj, u, v, d)
        g.add_edge(u, v, d=d)
    return adj, g


def _same_shape(adj, g):
    assert list(adj) == list(g)
    assert [list(nbrs) for nbrs in adj.values()] == [list(g.adj[u]) for u in g]


@given(_insertions())
@settings(max_examples=300, deadline=None)
def test_filing_and_edge_order_match(ins):
    adj, g = _both(*ins)
    _same_shape(adj, g)
    assert list(graphwalk.edges(adj)) == [(u, v, d["d"]) for u, v, d in g.edges(data=True)]


@given(_insertions(), st.data())
@settings(max_examples=200, deadline=None)
def test_remove_node_matches(ins, data):
    adj, g = _both(*ins)
    for _ in range(data.draw(st.integers(0, 3))):
        if not adj:
            break
        victim = data.draw(st.sampled_from(sorted(adj)))
        graphwalk.remove_node(adj, victim)
        g.remove_node(victim)
        _same_shape(adj, g)
    assert list(graphwalk.edges(adj)) == [(u, v, d["d"]) for u, v, d in g.edges(data=True)]


@given(_insertions())
@settings(max_examples=300, deadline=None)
def test_components_match(ins):
    adj, g = _both(*ins)
    assert [set(c) for c in graphwalk.components(adj)] == list(nx.connected_components(g))


@given(_insertions())
@settings(max_examples=300, deadline=None)
def test_bfs_path_is_networkx_shortest_path(ins):
    adj, g = _both(*ins)
    for s in list(g) + [-1]:
        for t in list(g) + [-1]:
            try:
                want = nx.shortest_path(g, s, t)
            except (nx.NodeNotFound, nx.NetworkXNoPath):
                want = None
            assert graphwalk.bfs_path(adj, s, t) == want, (s, t)


@given(_insertions())
@settings(max_examples=300, deadline=None)
def test_first_hops_are_unit_weight_dijkstra(ins):
    adj, g = _both(*ins)
    for s in g:
        dist, paths = nx.single_source_dijkstra(g, s)
        want = {t: (dist[t], paths[t][1]) for t in dist if t != s}
        got = graphwalk.bfs_first_hops(adj, s)
        assert got == want
        assert list(got) == list(want)  # breadth-first order, as Dijkstra settles


def test_tie_follows_insertion_order():
    """The example from the ``TopologyGraph.path`` tie: a four-cycle
    a-x-b-y asked from both ends picks a different middle node."""
    adj: dict[str, dict[str, None]] = {}
    for u, v in [("a", "x"), ("a", "y"), ("b", "y"), ("b", "x")]:
        graphwalk.add_edge(adj, u, v, None)
    assert graphwalk.bfs_path(adj, "a", "b") == ["a", "y", "b"]
    assert graphwalk.bfs_path(adj, "b", "a") == ["b", "x", "a"]
