"""``TopologyGraph`` against the networkx-backed class it replaced.

The oracle is the previous ``TopologyGraph`` kept verbatim below (only
renamed).  The same random sequences of ``add_node`` / ``add_edge`` /
``merge`` / ``remove_node`` / ``copy`` and queries go to both, and after
every step the node list, the edge list *in its order*, the wire record
byte for byte, sizes, neighbours, degrees and the version must agree,
and every ``path`` must be what the oracle answers on a fresh graph
(its cache emptied) when asked from the smaller id — the one direction
the new class searches in.
"""

from __future__ import annotations

import json
import math
from typing import Any

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import TopologyError
from repro.modeler.graph import (
    CLOUD,
    EDGE_NUMBERS,
    HOST,
    ROUTER,
    SWITCH,
    GraphRecord,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)


# -- the oracle: the previous class, verbatim but for its name ---------------


class _NxTopologyGraph:
    """Nodes + edges with merge, path, and bottleneck operations.

    Query-path operations are cached.  The sorted node/edge views are
    keyed to a **mutation version** (a counter bumped by every
    structural change — ``add_node``, ``add_edge``, ``remove_node``,
    ``merge`` — which downstream caches also use as a validity token).
    The shortest-path cache has one rule: a structurally **new edge**
    or a **removed node** clears it, so a cached answer always equals a
    fresh recompute, equal-length ties included.  ``add_node`` and an
    annotation re-add of an existing edge (a merged fragment re-adds
    edges it already has) drop nothing — an isolated new node or a
    utilization refresh cannot change any hop-count path.

    Edge *annotations* (utilization) may be updated in place without
    bumping the version — hop-count paths do not depend on them.

    A graph shared between answers is **frozen** (:meth:`freeze`):
    every structural mutator raises :class:`TopologyError`, and
    ``to_dict`` memoizes its record.  Reads (including ``path``, which
    only fills the internal cache) still work; ``copy()`` yields an
    ordinary mutable graph.
    """

    def __init__(self) -> None:
        self._g = nx.Graph()
        self._version = 0
        #: (a, b) -> node path, or None for a cached "no path" result;
        #: cleared by a new edge or a removed node (see class docstring)
        self._paths_cache: dict[tuple[str, str], list[str] | None] = {}
        self._nodes_cache: list[TopoNode] | None = None
        self._edges_cache: list[TopoEdge] | None = None
        self._frozen = False
        #: a frozen graph's wire record, built on first ``to_dict``
        self._record: GraphRecord | None = None

    @property
    def version(self) -> int:
        """Structural mutation counter (cache-invalidation token)."""
        return self._version

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "_NxTopologyGraph":
        """Make this graph read-only for good; returns ``self``."""
        self._frozen = True
        return self

    def _require_mutable(self) -> None:
        if self._frozen:
            raise TopologyError("graph is frozen (shared snapshot); copy() it to edit")

    def _touch(self) -> None:
        self._require_mutable()
        self._version += 1
        self._nodes_cache = None
        self._edges_cache = None

    # -- construction --------------------------------------------------

    def add_node(self, node: TopoNode) -> TopoNode:
        """Add a node; merging kinds/IPs if it already exists."""
        self._touch()
        existing: TopoNode | None = self._g.nodes.get(node.id, {}).get("data")
        if existing is not None:
            ips = tuple(dict.fromkeys(existing.ips + node.ips))
            merged = TopoNode(node.id, existing.kind, ips)
            self._g.nodes[node.id]["data"] = merged
            return merged
        self._g.add_node(node.id, data=node)
        return node

    def add_edge(self, edge: TopoEdge) -> TopoEdge:
        """Add an edge; both endpoints must exist.  Re-adding replaces
        annotations (latest measurement wins) and invalidates no cached
        paths — hop-count routes do not read annotations."""
        for end in (edge.a, edge.b):
            if end not in self._g:
                raise TopologyError(f"edge endpoint {end!r} not in graph")
        self._touch()
        a, b = edge.key()
        if not self._g.has_edge(a, b):
            self._paths_cache.clear()
        self._g.add_edge(a, b, data=edge)
        return edge

    def merge(self, other: "_NxTopologyGraph") -> None:
        """Fold another fragment into this graph in place."""
        self._require_mutable()
        for n in other.nodes():
            self.add_node(n)
        for e in other.edges():
            self.add_edge(e)

    # -- access --------------------------------------------------------

    def node(self, node_id: str) -> TopoNode:
        try:
            data: TopoNode = self._g.nodes[node_id]["data"]
        except KeyError:
            raise TopologyError(f"no node {node_id!r}") from None
        return data

    def has_node(self, node_id: str) -> bool:
        return node_id in self._g

    def edge(self, a: str, b: str) -> TopoEdge:
        try:
            data: TopoEdge = self._g.edges[a, b]["data"]
        except KeyError:
            raise TopologyError(f"no edge {a!r}--{b!r}") from None
        return data

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self._g.has_edge(a, b))

    def nodes(self) -> list[TopoNode]:
        if self._nodes_cache is None:
            self._nodes_cache = [self._g.nodes[n]["data"] for n in sorted(self._g.nodes)]
        return list(self._nodes_cache)

    def edges(self) -> list[TopoEdge]:
        if self._edges_cache is None:
            self._edges_cache = [
                d["data"]
                for _, _, d in sorted(self._g.edges(data=True), key=lambda t: (t[0], t[1]))
            ]
        return list(self._edges_cache)

    def neighbors(self, node_id: str) -> list[str]:
        return sorted(self._g.neighbors(node_id))

    def degree(self, node_id: str) -> int:
        return int(self._g.degree(node_id))

    def __len__(self) -> int:
        return int(self._g.number_of_nodes())

    def num_edges(self) -> int:
        return int(self._g.number_of_edges())

    # -- wire schema v1 (docs/service.md) ------------------------------

    def to_dict(self) -> GraphRecord:
        """Canonical wire form: sorted node and edge records.

        Nodes sort by id; edges by their normalized endpoint key (the
        ``edges()`` accessor sorts by the endpoint order networkx
        happens to yield, which varies with construction order), so two
        graphs with the same content serialize byte-identically
        regardless of insertion order.  Non-finite capacities
        (``inf`` for virtual elements) survive because both wire ends
        use Python's ``json`` module, which round-trips ``Infinity``.

        A frozen graph builds its record once and returns that same
        object every time (so its encoding can be reused too); a
        mutable graph builds a fresh one per call.
        """
        if self._record is not None:
            return self._record
        record = GraphRecord(
            nodes=[
                {"id": n.id, "kind": n.kind, "ips": list(n.ips)}
                for n in self.nodes()
            ],
            # an edge record is the edge's fields, whatever they are
            edges=[dict(vars(e)) for e in sorted(self.edges(), key=TopoEdge.key)],
        )
        if self._frozen:
            self._record = record
        return record

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "_NxTopologyGraph":
        graph = cls()
        for nd in d.get("nodes", []):
            graph.add_node(
                TopoNode(str(nd["id"]), str(nd["kind"]), tuple(nd.get("ips", ())))
            )
        for ed in d.get("edges", []):
            # a member left out takes the field's default
            numbers = {k: float(ed[k]) for k in EDGE_NUMBERS if k in ed}
            graph.add_edge(TopoEdge(str(ed["a"]), str(ed["b"]), **numbers))
        return graph

    def remove_node(self, node_id: str) -> None:
        self._touch()
        self._paths_cache.clear()
        self._g.remove_node(node_id)

    # -- path operations -------------------------------------------------

    def path(self, a: str, b: str) -> list[str]:
        """Shortest node path between two node ids (cached per version).

        Negative results ("no path") are cached too — the Modeler's
        all-pairs scans hit disconnected pairs as often as connected
        ones.
        """
        key = (a, b) if a <= b else (b, a)
        if key in self._paths_cache:
            cached = self._paths_cache[key]
            obs.counter("modeler.graph.path_cache", result="hit").inc()
            if cached is None:
                raise TopologyError(f"no path {a!r} -> {b!r}")
            return list(cached) if cached[0] == a else list(reversed(cached))
        obs.counter("modeler.graph.path_cache", result="miss").inc()
        try:
            found = nx.shortest_path(self._g, a, b)
        except (nx.NodeNotFound, nx.NetworkXNoPath):
            self._paths_cache[key] = None
            raise TopologyError(f"no path {a!r} -> {b!r}") from None
        path = list(found)
        self._paths_cache[key] = path
        return list(path)

    def path_edges(self, a: str, b: str) -> list[TopoEdge]:
        nodes = self.path(a, b)
        return [self.edge(x, y) for x, y in zip(nodes, nodes[1:])]

    def bottleneck_available(self, a: str, b: str) -> float:
        """Residual bandwidth for a new flow a -> b along the shortest
        path: min over edges of (capacity - utilization in the flow's
        direction)."""
        nodes = self.path(a, b)
        best = math.inf
        for x, y in zip(nodes, nodes[1:]):
            e = self.edge(x, y)
            best = min(best, e.available_from(x))
        return best

    def path_latency(self, a: str, b: str) -> float:
        return sum(e.latency_s for e in self.path_edges(a, b))

    def copy(self) -> "_NxTopologyGraph":
        out = _NxTopologyGraph()
        for n in self.nodes():
            out.add_node(TopoNode(**vars(n)))
        for e in self.edges():
            out.add_edge(TopoEdge(**vars(e)))
        # The copy is structurally identical, so every cached path (and
        # cached "no path") is valid for it too: carry the cache so the
        # copy does not pay shortest-path derivation again for pairs the
        # original already resolved.  Path lists are shared (treated as
        # immutable; ``path()`` always returns a fresh list).
        out._paths_cache = dict(self._paths_cache)
        return out

    def __repr__(self) -> str:
        return f"_NxTopologyGraph({len(self)} nodes, {self.num_edges()} edges)"


# -- random histories against both -----------------------------------------------

#: ids whose string order differs from the order they are added in
_IDS = ["b", "a", "r10", "r2", "10.0.0.9", "10.0.0.10", "sw:1", "c"]
_id = st.sampled_from(_IDS)
_node = st.tuples(
    st.just("node"),
    _id,
    st.sampled_from([HOST, ROUTER, SWITCH, CLOUD]),
    st.lists(st.sampled_from(["10.0.0.1", "10.0.0.2"]), max_size=2),
)
_edge = st.tuples(
    st.just("edge"), _id, _id, st.sampled_from([1e6, 1e7, math.inf]), st.floats(0, 1e6)
)
_op = st.one_of(
    _node,
    _edge,
    _edge,
    st.tuples(st.just("remove"), _id),
    st.tuples(st.just("ask"), _id, _id),
    st.tuples(st.just("copy")),
    st.tuples(st.just("merge"), st.lists(st.one_of(_node, _edge), max_size=6)),
)


def _apply(g: Any, op: tuple[Any, ...]) -> Any:
    """Apply one op; returns the graph to carry on with."""
    kind = op[0]
    if kind == "node":
        g.add_node(TopoNode(op[1], op[2], tuple(op[3])))
    elif kind == "edge":
        g.add_edge(TopoEdge(op[1], op[2], op[3], util_ab_bps=op[4]))
    elif kind == "remove":
        g.remove_node(op[1])
    elif kind == "copy":
        return g.copy()
    elif kind == "merge":
        fragment = type(g)()
        for sub in op[1]:
            try:
                _apply(fragment, sub)
            except TopologyError:
                pass
        g.merge(fragment)
    return g


def _path_or_none(g: Any, a: str, b: str) -> list[str] | None:
    try:
        return list(g.path(a, b))
    except TopologyError:
        return None


def _fresh_oracle_path(old: _NxTopologyGraph, a: str, b: str) -> list[str] | None:
    old._paths_cache.clear()
    found = _path_or_none(old, min(a, b), max(a, b))
    return found if found is None or a <= b else found[::-1]


def _agree(new: TopologyGraph, old: _NxTopologyGraph) -> None:
    assert [vars(n) for n in new.nodes()] == [vars(n) for n in old.nodes()]
    assert [vars(e) for e in new.edges()] == [vars(e) for e in old.edges()]
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())
    assert (len(new), new.num_edges(), new.version) == (len(old), old.num_edges(), old.version)
    ids = [n.id for n in old.nodes()]
    for a in ids:
        assert new.neighbors(a) == old.neighbors(a)
        assert new.degree(a) == old.degree(a)
        for b in ids:
            assert new.has_edge(a, b) == old.has_edge(a, b)
            assert _path_or_none(new, a, b) == _fresh_oracle_path(old, a, b), (a, b)


@given(st.lists(_op, max_size=30))
@example([("ask", "b", "b"), ("node", "b", HOST, [])])
@settings(max_examples=80, deadline=None)
def test_random_histories_match_the_networkx_class(ops):
    new, old = TopologyGraph(), _NxTopologyGraph()
    for op in ops:
        if op[0] == "remove" and not old.has_node(op[1]):
            with pytest.raises(TopologyError):
                new.remove_node(op[1])  # the oracle leaked networkx's error here
            continue
        if op[0] == "ask":
            _path_or_none(new, op[1], op[2])  # history the new class must not remember
            continue
        try:
            old = _apply(old, op)
        except TopologyError:
            with pytest.raises(TopologyError):
                _apply(new, op)
        else:
            new = _apply(new, op)
        _agree(new, old)


def test_record_round_trip_matches():
    new, old = TopologyGraph(), _NxTopologyGraph()
    for g in (new, old):
        for i in ["h2", "s1", "h1", "s0"]:
            g.add_node(TopoNode(i, HOST if i[0] == "h" else SWITCH, ()))
        for a, b in [("s1", "h2"), ("s0", "s1"), ("h1", "s0")]:
            g.add_edge(TopoEdge(a, b, 1e6, latency_s=0.001))
    _agree(new, old)
    _agree(TopologyGraph.from_dict(new.to_dict()), _NxTopologyGraph.from_dict(old.to_dict()))
    assert set(EDGE_NUMBERS) <= set(new.to_dict()["edges"][0])
    assert isinstance(new.to_dict(), GraphRecord)
