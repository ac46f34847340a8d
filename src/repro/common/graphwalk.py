"""Walks over plain adjacency maps: ``adj[u][v]`` is the data of edge
``u``–``v``, filed on both sides (a side may hold its own data).  Every
walk follows the adjacency's insertion order, the only tie-break; for
the same insertion order it answers what networkx's ``Graph`` does.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from typing import TypeVar

N = TypeVar("N", bound=Hashable)
D = TypeVar("D")


def add_edge(adj: dict[N, dict[N, D]], u: N, v: N, data: D) -> None:
    """File (or re-annotate in place) the edge ``u``–``v``."""
    adj.setdefault(u, {})[v] = data
    adj.setdefault(v, {})[u] = data


def remove_node(adj: dict[N, dict[N, D]], n: N) -> None:
    for nbr in adj.pop(n):
        if nbr != n:
            del adj[nbr][n]


def edges(adj: Mapping[N, Mapping[N, D]]) -> Iterator[tuple[N, N, D]]:
    """Each edge once, as ``(u, v, data)`` with ``u`` filed first."""
    done: set[N] = set()
    for u, nbrs in adj.items():
        for v, data in nbrs.items():
            if v not in done:
                yield u, v, data
        done.add(u)


def components(adj: Mapping[N, Mapping[N, D]]) -> list[list[N]]:
    """Connected components, in the order of their first-filed node."""
    seen: set[N] = set()
    out: list[list[N]] = []
    for root in adj:
        if root not in seen:
            out.append([root, *bfs_first_hops(adj, root)])
            seen.update(out[-1])
    return out


def bfs_first_hops(adj: Mapping[N, Mapping[N, D]], source: N) -> dict[N, tuple[int, N]]:
    """Every node reachable from ``source`` but itself -> ``(hops, the
    neighbour of source its path leaves by)``, in breadth-first order;
    the first path found wins, as in a unit-weight FIFO Dijkstra."""
    found: dict[N, tuple[int, N]] = {source: (0, source)}
    queue = [source]
    for u in queue:
        hops, first = found[u]
        for v in adj[u]:
            if v not in found:
                found[v] = (hops + 1, first if hops else v)
                queue.append(v)
    del found[source]
    return found


def bfs_path(adj: Mapping[N, Mapping[N, D]], source: N, target: N) -> list[N] | None:
    """A fewest-hop path ``source`` … ``target``, or None (no path, or an
    end not filed): breadth-first from both ends, growing the smaller
    fringe (the forward one on a tie) until they meet, as networkx's
    ``shortest_path`` does — so the reverse query may meet elsewhere."""
    if source not in adj or target not in adj:
        return None
    if source == target:
        return [source]
    # per side: node -> the node it was reached from (None at the end)
    back: tuple[dict[N, N | None], dict[N, N | None]] = ({source: None}, {target: None})
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, theirs = back[side], back[1 - side]
        level, fringes[side] = fringes[side], []
        for u in level:
            for v in adj[u]:
                if v not in mine:
                    mine[v] = u
                    fringes[side].append(v)
                if v in theirs:
                    path = [v]
                    while (w := back[0][path[-1]]) is not None:
                        path.append(w)
                    path.reverse()
                    while (w := back[1][path[-1]]) is not None:
                        path.append(w)
                    return path
    return None
