"""Topology simplification.

The Modeler "performs additional processing on the topology returned by
the collector to eliminate unnecessary information and present the
topology to the application in a more manageable form" (paper §2.2),
including inserting virtual switches.  :func:`simplify` copies the
graph once and applies two transformations to that copy:

* pruning — drop nodes that cannot lie on any path between the hosts
  the application asked about (iterative leaf removal);
* chain collapsing — replace runs of degree-2 interior nodes (switch
  chains) with a single virtual switch whose two edges preserve the
  chain's directional available bandwidth, so flow answers are
  unchanged by simplification.
"""

from __future__ import annotations

import math

from repro import obs
from repro.modeler.graph import (
    HOST,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)


def _prune_in_place(g: TopologyGraph, protect: set[str]) -> None:
    """Remove leaf nodes not in ``protect`` until none remain."""
    changed = True
    while changed:
        changed = False
        for node in list(g.nodes()):
            if node.id in protect:
                continue
            if g.degree(node.id) <= 1:
                g.remove_node(node.id)
                changed = True


def _collapse_in_place(g: TopologyGraph, protect: set[str]) -> None:
    """Collapse maximal degree-2 chains of unprotected interior nodes.

    A chain ``A - x1 - x2 - ... - xk - B`` (each ``xi`` unprotected,
    non-host, degree 2) becomes ``A - v - B`` where ``v`` is a virtual
    switch.  Each replacement edge carries the chain half's bottleneck:
    capacity = min capacity, and utilization chosen so that available
    bandwidth in each direction equals the chain's directional minimum.
    Flow predictions over the simplified graph therefore match the
    original.
    """
    visited: set[str] = set()
    for node in list(g.nodes()):
        nid = node.id
        if nid in visited or not g.has_node(nid):
            continue
        if not _chainable(g, nid, protect):
            continue
        # Walk to both ends of the chain containing nid.
        chain = [nid]
        for direction in (0, 1):
            prev = nid
            nbrs = g.neighbors(nid)
            if len(nbrs) <= direction:
                break
            cur = nbrs[direction]
            while _chainable(g, cur, protect):
                if direction == 0:
                    chain.insert(0, cur)
                else:
                    chain.append(cur)
                nxt = [x for x in g.neighbors(cur) if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
        visited.update(chain)
        if len(chain) < 2:
            continue
        ends = _chain_ends(g, chain)
        if ends is None:
            continue
        left, right = ends
        # Bottlenecks along the full chain, per direction.
        nodes_seq = [left] + chain + [right]
        avail_lr = math.inf
        avail_rl = math.inf
        cap = math.inf
        lat = 0.0
        jitter_sq = 0.0
        for a, b in zip(nodes_seq, nodes_seq[1:]):
            e = g.edge(a, b)
            avail_lr = min(avail_lr, e.available_from(a))
            avail_rl = min(avail_rl, e.available_from(b))
            cap = min(cap, e.capacity_bps)
            lat += e.latency_s
            jitter_sq += e.jitter_s**2
        vid = f"vsw:chain:{chain[0]}"
        for cid in chain:
            g.remove_node(cid)
        g.add_node(TopoNode(vid, VSWITCH))
        util_lr = max(0.0, cap - avail_lr)
        util_rl = max(0.0, cap - avail_rl)
        # split the chain's jitter so the two halves recompose exactly
        half_jitter = math.sqrt(jitter_sq / 2.0)
        g.add_edge(TopoEdge(left, vid, cap, util_lr, util_rl, lat / 2, half_jitter))
        g.add_edge(TopoEdge(vid, right, cap, util_lr, util_rl, lat / 2, half_jitter))


def simplify(graph: TopologyGraph, protect: set[str]) -> TopologyGraph:
    """Prune then collapse — the Modeler's standard pipeline.

    Records how much structure the application was spared: the
    node/edge reduction ratios (``1 - after/before``, so 0 means
    nothing removed) feed the "manageable form" claim of §2.2.  The
    input is copied once; both passes then edit that private copy.
    """
    nodes_before = len(graph)
    edges_before = graph.num_edges()
    with obs.span("modeler.simplify"):
        out = graph.copy()
        _prune_in_place(out, protect)
        _collapse_in_place(out, protect)
    nodes_after = len(out)
    edges_after = out.num_edges()
    if nodes_before:
        obs.histogram("modeler.simplify.node_reduction").observe(
            1.0 - nodes_after / nodes_before
        )
    if edges_before:
        obs.histogram("modeler.simplify.edge_reduction").observe(
            1.0 - edges_after / edges_before
        )
    return out


def _chainable(g: TopologyGraph, nid: str, protect: set[str]) -> bool:
    if nid in protect or not g.has_node(nid):
        return False
    node = g.node(nid)
    return node.kind != HOST and g.degree(nid) == 2


def _chain_ends(g: TopologyGraph, chain: list[str]) -> tuple[str, str] | None:
    """The two non-chain neighbors bounding a chain."""
    chain_set = set(chain)
    left = [x for x in g.neighbors(chain[0]) if x not in chain_set]
    right = [x for x in g.neighbors(chain[-1]) if x not in chain_set]
    if len(left) != 1 or len(right) != 1:
        return None
    if left[0] == right[0]:
        return None  # degenerate loop; leave untouched
    return left[0], right[0]
