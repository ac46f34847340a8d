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
from dataclasses import dataclass, fields
from typing import Any

from repro import obs
from repro.common import graphwalk
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


#: the numeric fields of a :class:`TopoEdge`, in declaration order:
#: the members an edge record carries beside its endpoints, and the
#: column order of the ASCII ``EDGE`` line
EDGE_NUMBERS = tuple(f.name for f in fields(TopoEdge))[2:]


class GraphRecord(dict[str, Any]):
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
    The shortest-path cache has one rule: a structurally **new edge**
    or a **removed node** clears it, so a cached answer always equals a
    fresh recompute, equal-length ties included.  ``add_node`` and an
    annotation re-add of an existing edge (a merged fragment re-adds
    edges it already has) drop nothing — an isolated new node or a
    utilization refresh cannot change any hop-count path.

    Edge *annotations* (utilization) may be updated in place without
    bumping the version — hop-count paths do not depend on them.  But
    ``merge`` shares edge records with the fragment merged, and a
    Master's last-known-good store holds its fragments by reference, so
    the stack re-adds an edited copy of an edge instead.

    A path is searched from the smaller id, so ``path(a, b) ==
    path(b, a)[::-1]`` whatever was asked before; of equal-hop paths the
    one found follows the order nodes and edges were added.

    A graph shared between answers is **frozen** (:meth:`freeze`):
    every structural mutator raises :class:`TopologyError`, and
    ``to_dict`` memoizes its record.  Reads (including ``path``, which
    only fills the internal cache) still work; ``copy()`` yields an
    ordinary mutable graph.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, TopoNode] = {}
        #: node id -> {neighbour id -> edge} (see repro.common.graphwalk)
        self._adj: dict[str, dict[str, TopoEdge]] = {}
        self._version = 0
        #: (a, b) with a <= b -> path from a, or None for a cached "no
        #: path"; cleared by a new edge or a removed node (see class docstring)
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
        existing = self._nodes.get(node.id)
        if existing is not None:
            ips = tuple(dict.fromkeys(existing.ips + node.ips))
            merged = TopoNode(node.id, existing.kind, ips)
            self._nodes[node.id] = merged
            return merged
        self._nodes[node.id] = node
        self._adj[node.id] = {}
        self._paths_cache.clear()  # "no path" to an unknown id no longer holds
        return node

    def add_edge(self, edge: TopoEdge) -> TopoEdge:
        """Add an edge; both endpoints must exist.  Re-adding replaces
        annotations (latest measurement wins) and invalidates no cached
        paths — hop-count routes do not read annotations."""
        for end in (edge.a, edge.b):
            if end not in self._adj:
                raise TopologyError(f"edge endpoint {end!r} not in graph")
        self._touch()
        a, b = edge.key()
        if b not in self._adj[a]:
            self._paths_cache.clear()
        graphwalk.add_edge(self._adj, a, b, edge)
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
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._adj

    def edge(self, a: str, b: str) -> TopoEdge:
        try:
            return self._adj[a][b]
        except KeyError:
            raise TopologyError(f"no edge {a!r}--{b!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def nodes(self) -> list[TopoNode]:
        if self._nodes_cache is None:
            self._nodes_cache = [self._nodes[n] for n in sorted(self._nodes)]
        return list(self._nodes_cache)

    def edges(self) -> list[TopoEdge]:
        if self._edges_cache is None:
            self._edges_cache = [
                e for _, _, e in sorted(graphwalk.edges(self._adj), key=lambda t: (t[0], t[1]))
            ]
        return list(self._edges_cache)

    def _nbrs_of(self, node_id: str) -> dict[str, TopoEdge]:
        try:
            return self._adj[node_id]
        except KeyError:
            raise TopologyError(f"no node {node_id!r}") from None

    def neighbors(self, node_id: str) -> list[str]:
        return sorted(self._nbrs_of(node_id))

    def degree(self, node_id: str) -> int:
        nbrs = self._nbrs_of(node_id)
        return len(nbrs) + (node_id in nbrs)  # a self-loop has two ends here

    def __len__(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return len(self.edges())

    # -- wire schema v1 (docs/service.md) ------------------------------

    def to_dict(self) -> GraphRecord:
        """Canonical wire form: sorted node and edge records.

        Nodes sort by id; edges by their normalized endpoint key (the
        ``edges()`` accessor sorts by the endpoint order the adjacency
        yields, which varies with construction order), so two
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
    def from_dict(cls, d: dict[str, Any]) -> "TopologyGraph":
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
        self._nbrs_of(node_id)  # an unknown id raises before anything changes
        self._touch()
        self._paths_cache.clear()
        del self._nodes[node_id]
        graphwalk.remove_node(self._adj, node_id)

    # -- path operations -------------------------------------------------

    def path(self, a: str, b: str) -> list[str]:
        """Shortest node path between two node ids (cached per version).

        Negative results ("no path") are cached too — the Modeler's
        all-pairs scans hit disconnected pairs as often as connected
        ones.
        """
        forward = a <= b
        key = (a, b) if forward else (b, a)
        if key in self._paths_cache:
            found = self._paths_cache[key]
            obs.counter("modeler.graph.path_cache", result="hit").inc()
        else:
            obs.counter("modeler.graph.path_cache", result="miss").inc()
            found = self._paths_cache[key] = graphwalk.bfs_path(self._adj, *key)
        if found is None:
            raise TopologyError(f"no path {a!r} -> {b!r}")
        return list(found) if forward else found[::-1]

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
        return f"TopologyGraph({len(self)} nodes, {self.num_edges()} edges)"
