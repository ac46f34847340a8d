"""The virtual topology graph exchanged between Remos components.

Collectors answer queries with a :class:`TopologyGraph`: typed nodes
(hosts, routers, switches, *virtual* switches for shared or opaque
segments, WAN clouds) and annotated edges (capacity, per-direction
measured utilization, latency).  The Master Collector merges fragments
from several collectors into one graph; the Modeler simplifies it and
runs max-min flow calculations on it.

This is "a standard graph format" in the paper's words — the one
concrete data structure the whole architecture communicates with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro import obs
from repro.common.errors import TopologyError

#: node kinds
HOST = "host"
ROUTER = "router"
SWITCH = "switch"
VSWITCH = "vswitch"  # virtual switch: shared Ethernet or opaque devices
CLOUD = "cloud"  # opaque WAN interconnect


@dataclass
class TopoNode:
    """A vertex: ``id`` is globally unique (host IP or device name)."""

    id: str
    kind: str
    ips: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (HOST, ROUTER, SWITCH, VSWITCH, CLOUD):
            raise TopologyError(f"bad node kind {self.kind!r}")


@dataclass
class TopoEdge:
    """An undirected edge with per-direction utilization.

    ``util_ab_bps`` is measured traffic from ``a`` toward ``b``.
    ``capacity_bps`` may be ``inf`` for virtual elements whose capacity
    is unknown (e.g. through a virtual switch).  ``jitter_s`` is the
    collector's delay-variation estimate (§6.2's multimedia metric);
    0 when no utilization history exists yet.
    """

    a: str
    b: str
    capacity_bps: float = math.inf
    util_ab_bps: float = 0.0
    util_ba_bps: float = 0.0
    latency_s: float = 0.0
    jitter_s: float = 0.0

    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def util_from(self, node_id: str) -> float:
        if node_id == self.a:
            return self.util_ab_bps
        if node_id == self.b:
            return self.util_ba_bps
        raise TopologyError(f"{node_id} not on edge {self.a}--{self.b}")

    def available_from(self, node_id: str) -> float:
        """Residual capacity leaving ``node_id`` over this edge."""
        return max(0.0, self.capacity_bps - self.util_from(node_id))


class GraphRecord(dict[str, object]):
    """The wire record of a graph (what :meth:`TopologyGraph.to_dict`
    returns): a plain dict plus one slot for its canonical JSON text.

    ``encoded`` belongs to :func:`repro.service.wire.canonical_json`,
    which fills it the first time the record is serialized and splices
    it into every later answer carrying the same record — a frozen
    graph hands out one record for its whole life, so a shared view is
    encoded once.  The slot lives here because ``modeler`` may not
    import ``service``.  A record is a snapshot: never edit one.
    """

    __slots__ = ("encoded",)

    def __init__(self, nodes: list[dict[str, object]], edges: list[dict[str, object]]) -> None:
        super().__init__(nodes=nodes, edges=edges)
        self.encoded: str | None = None


class TopologyGraph:
    """Nodes + edges with merge, path, and bottleneck operations.

    Query-path operations are cached.  The sorted node/edge views are
    keyed to a **mutation version** (a counter bumped by every
    structural change — ``add_node``, ``add_edge``, ``remove_node``,
    ``merge`` — which downstream caches also use as a validity token).
    The shortest-path cache is **scope-invalidated** instead of flushed
    wholesale: each mutation drops only the cached pairs it could
    affect, so one topology delta no longer re-derives every path the
    Modeler has already resolved.

    * ``add_node`` and annotation re-adds of an existing edge drop
      nothing — an isolated new node or a utilization refresh cannot
      change any hop-count path.
    * a structurally **new edge** (a, b) drops exactly the pairs a
      shortest route via that edge could reach: with BFS hop distances
      ``d_a``/``d_b`` on the new graph, pair (x, y) is dropped iff
      ``min(d_a[x]+d_b[y], d_b[x]+d_a[y]) + 1 <= len(cached path)``
      (cached "no path" entries are dropped iff that bound is finite).
      Survivors are provably byte-identical to a fresh recompute: any
      changed answer must route via the new edge, which the bound
      excludes.
    * ``remove_node`` drops the pairs whose cached path traverses the
      node, via a reverse index node -> cached pair keys.  A surviving
      entry is still *a* correct shortest path (deletion cannot create
      or shorten routes), though an equal-length tie may differ from
      what a cold recompute would pick.

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
        #: scope-invalidated by mutations (see class docstring)
        self._paths_cache: dict[tuple[str, str], list[str] | None] = {}
        #: reverse index: node id -> keys of cached positive paths
        #: traversing it (negative entries are not indexed)
        self._node_pairs: dict[str, set[tuple[str, str]]] = {}
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

    def freeze(self) -> "TopologyGraph":
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
        structurally_new = not self._g.has_edge(a, b)
        self._g.add_edge(a, b, data=edge)
        if structurally_new and self._paths_cache:
            self._invalidate_paths_for_new_edge(a, b)
        return edge

    def merge(self, other: "TopologyGraph") -> None:
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
            edges=[
                {
                    "a": e.a,
                    "b": e.b,
                    "capacity_bps": e.capacity_bps,
                    "util_ab_bps": e.util_ab_bps,
                    "util_ba_bps": e.util_ba_bps,
                    "latency_s": e.latency_s,
                    "jitter_s": e.jitter_s,
                }
                for e in sorted(self.edges(), key=TopoEdge.key)
            ],
        )
        if self._frozen:
            self._record = record
        return record

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TopologyGraph":
        graph = cls()
        for nd in d.get("nodes", []):
            graph.add_node(
                TopoNode(str(nd["id"]), str(nd["kind"]), tuple(nd.get("ips", ())))
            )
        for ed in d.get("edges", []):
            graph.add_edge(
                TopoEdge(
                    str(ed["a"]),
                    str(ed["b"]),
                    capacity_bps=float(ed.get("capacity_bps", math.inf)),
                    util_ab_bps=float(ed.get("util_ab_bps", 0.0)),
                    util_ba_bps=float(ed.get("util_ba_bps", 0.0)),
                    latency_s=float(ed.get("latency_s", 0.0)),
                    jitter_s=float(ed.get("jitter_s", 0.0)),
                )
            )
        return graph

    def remove_node(self, node_id: str) -> None:
        self._touch()
        if self._paths_cache:
            before = len(self._paths_cache)
            for key in self._node_pairs.pop(node_id, set()):
                self._drop_path_entry(key)
            self._report_invalidation(before)
        self._g.remove_node(node_id)

    # -- scoped path-cache invalidation ----------------------------------

    def _bfs_hops(self, source: str) -> dict[str, int]:
        """Hop distance from ``source`` to every reachable node."""
        dist = {source: 0}
        frontier = [source]
        adj = self._g.adj
        d = 0
        while frontier:
            d += 1
            nxt: list[str] = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def _invalidate_paths_for_new_edge(self, a: str, b: str) -> None:
        """Drop cached pairs a shortest route via new edge (a, b) could
        serve; see the class docstring for the bound and its proof
        sketch.  Runs two BFS passes over the post-mutation graph, so a
        mutation costs O(V + E + cached pairs) instead of re-deriving
        every dropped pair from scratch later."""
        dist_a = self._bfs_hops(a)
        dist_b = self._bfs_hops(b)
        inf = math.inf
        before = len(self._paths_cache)
        doomed: list[tuple[str, str]] = []
        for key, nodes in self._paths_cache.items():
            x, y = key
            dax = dist_a.get(x, inf)
            day = dist_a.get(y, inf)
            dbx = dist_b.get(x, inf)
            dby = dist_b.get(y, inf)
            via = min(dax + dby, dbx + day) + 1
            if nodes is None:
                if via < inf:
                    doomed.append(key)
            elif via <= len(nodes) - 1:
                doomed.append(key)
        for key in doomed:
            self._drop_path_entry(key)
        self._report_invalidation(before)

    def _drop_path_entry(self, key: tuple[str, str]) -> None:
        nodes = self._paths_cache.pop(key, None)
        if nodes:
            for nid in nodes:
                pairs = self._node_pairs.get(nid)
                if pairs is not None:
                    pairs.discard(key)
                    if not pairs:
                        del self._node_pairs[nid]

    def _report_invalidation(self, before: int) -> None:
        survived = len(self._paths_cache)
        obs.counter("modeler.graph.scoped_invalidation", result="dropped").inc(
            before - survived
        )
        obs.counter("modeler.graph.scoped_invalidation", result="survived").inc(
            survived
        )

    # -- path operations -------------------------------------------------

    def path(self, a: str, b: str) -> list[str]:
        """Shortest node path between two node ids (cached per version).

        Negative results ("no path") are cached too — the Modeler's
        all-pairs scans hit disconnected pairs as often as connected
        ones.  Entries survive mutations that cannot affect them
        (scoped invalidation; see the class docstring).
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
        for nid in path:
            self._node_pairs.setdefault(nid, set()).add(key)
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

    def copy(self) -> "TopologyGraph":
        out = TopologyGraph()
        for n in self.nodes():
            out.add_node(TopoNode(n.id, n.kind, n.ips))
        for e in self.edges():
            out.add_edge(
                TopoEdge(
                    e.a, e.b, e.capacity_bps, e.util_ab_bps, e.util_ba_bps,
                    e.latency_s, e.jitter_s,
                )
            )
        # The copy is structurally identical, so every cached path (and
        # cached "no path") is valid for it too: carry the cache so the
        # copy does not pay shortest-path derivation again for pairs the
        # original already resolved.  Path lists are shared (treated as
        # immutable; ``path()`` always returns a fresh list).
        out._paths_cache = dict(self._paths_cache)
        out._node_pairs = {nid: set(keys) for nid, keys in self._node_pairs.items()}
        return out

    def __repr__(self) -> str:
        return f"TopologyGraph({len(self)} nodes, {self.num_edges()} edges)"
