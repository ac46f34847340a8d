"""``Network.freeze`` against the networkx code it replaced.

Routing tables are built with the destination subnets sorted once per
call instead of once per router, routes come from a first-hop
breadth-first search instead of networkx's Dijkstra, and a segment's
loops are broken by Kruskal over ``_edge_sort_key`` instead of
``nx.find_cycle``.  The oracle is the networkx-backed
``build_routing_tables`` (with its ``_adjacency_graph``) and
``run_spanning_tree``, kept verbatim below but for handing the tree to
``Segment.tree`` as the adjacency it now is; both run on the same
network, and routes, gateways, blocked ports, spanning trees and FDBs
must come out identical — over seeded random WANs and seeded switch
meshes whose redundant and parallel links the tree has to block.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from itertools import combinations

from repro.common import graphwalk
from repro.common.units import MBPS
from repro.netsim import bridging
from repro.netsim.address import IPv4Network, PrefixTable
from repro.netsim.bridging import _apoint, _block_link, _edge_sort_key, discover_segments
from repro.netsim.builders import build_campus, build_hub_lan, build_random_wan
from repro.netsim.routing import _assign_gateways, _router_attachments
from repro.netsim.topology import Channel, Interface, Link, Network, Router


# -- the oracle: the previous code, verbatim ---------------------------------


def _adjacency_graph(
    attach: dict[IPv4Network, list[tuple[Router, Interface]]],
) -> nx.Graph:
    """Routers are L3-adjacent when they share a subnet.

    Edge data records, per direction, the egress interface and the peer
    address to use as next hop (the first shared subnet wins; parallel
    subnets between the same router pair are redundant for shortest
    paths with unit weights).
    """
    g = nx.Graph()
    for subnet, members in attach.items():
        for (r1, i1), (r2, i2) in combinations(members, 2):
            if r1 is r2:
                continue
            if g.has_edge(r1.name, r2.name):
                continue
            g.add_edge(
                r1.name,
                r2.name,
                weight=1.0,
                via={r1.name: (i1, i2.ip), r2.name: (i2, i1.ip)},
                subnet=subnet,
            )
    return g


def _parent_build_routing_tables(net: Network) -> None:
    """Populate ``Router.routes`` for every router and host gateways."""
    net._path_memo.clear()  # L3 forwarding changes under every memoized path
    attach = _router_attachments(net)
    routers = net.routers()
    g = _adjacency_graph(attach)
    for r in routers:
        g.add_node(r.name)

    # All destinations a route must exist for: every subnet seen on any
    # interface (router or host).
    all_subnets: set[IPv4Network] = set(attach)
    for node in net.nodes.values():
        for i in node.interfaces:
            if i.network is not None:
                all_subnets.add(i.network)

    # Subnet -> routers directly attached, for nearest-attachment search.
    attached_routers: dict[IPv4Network, list[Router]] = {
        s: sorted({r for r, _ in members}, key=lambda r: r.name)
        for s, members in attach.items()
    }

    for r in routers:
        r.routes = PrefixTable()
        # Direct routes first (only on interfaces that are up).
        direct: set[IPv4Network] = set()
        for i in r.interfaces:
            if i.network is not None and i.link is not None:
                r.routes.insert(i.network, (i.network, None, i))
                direct.add(i.network)

        dist, path = nx.single_source_dijkstra(g, r.name)
        for subnet in sorted(all_subnets):
            if subnet in direct:
                continue
            targets = attached_routers.get(subnet, [])
            best: tuple[float, str] | None = None
            for t in targets:
                if t.name in dist:
                    cand = (dist[t.name], t.name)
                    if best is None or cand < best:
                        best = cand
            if best is None:
                continue  # unreachable subnet: no route (packets would drop)
            hop_path = path[best[1]]
            if len(hop_path) < 2:
                continue  # shouldn't happen: direct handled above
            next_name = hop_path[1]
            via = g.edges[r.name, next_name]["via"][r.name]
            out_iface, next_ip = via
            r.routes.insert(subnet, (subnet, next_ip, out_iface))

    _assign_gateways(net, attach)


def _parent_run_spanning_tree(net: Network) -> list[bridging.Segment]:
    """Elect a spanning tree per segment; mark blocked switch ports."""
    net._path_memo.clear()  # L2 forwarding changes under every memoized path
    segments = discover_segments(net)
    blocked: set[int] = set()
    index: dict[object, bridging.Segment] = {}
    for seg in segments:
        g = nx.Graph()
        for ln in seg.links:
            pa, pb = _apoint(ln.a), _apoint(ln.b)
            if g.has_edge(pa, pb):
                # Parallel links: keep the first deterministically, block the rest.
                _block_link(ln, blocked)
                continue
            g.add_edge(pa, pb, link=ln)
        # Break remaining cycles: highest-id edges go first.
        while True:
            try:
                cycle = nx.find_cycle(g)
            except nx.NetworkXNoCycle:
                break
            worst = max(cycle, key=lambda e: _edge_sort_key(g.edges[e]["link"]))
            ln = g.edges[worst]["link"]
            _block_link(ln, blocked)
            g.remove_edge(*worst)
        seg.tree = {p: {q: d["link"] for q, d in g.adj[p].items()} for p in g}
        for point in g:
            index[point] = seg
        for sw in seg.switches:
            sw.blocked_ports = {
                i.index
                for i in sw.interfaces
                if i.link is not None and id(i.link) in blocked
            }
    net._segments = segments
    net._segment_index = index
    net._blocked_links = blocked
    return segments


def _parent_freeze(net: Network) -> None:
    _parent_build_routing_tables(net)
    _parent_run_spanning_tree(net)
    bridging.populate_fdbs(net)


# -- worlds ---------------------------------------------------------------------


def _switch_mesh(seed: int) -> Network:
    """A seeded switched LAN with redundant and parallel switch links, a
    hub bridging two switches, and hosts anywhere on it."""
    rng = random.Random(seed)
    net = Network()
    gw = net.add_router("gw")
    switches = [
        net.add_switch(f"s{k}", bridge_priority=rng.choice([4096, 32768]))
        for k in range(rng.randint(2, 7))
    ]
    for k in range(1, len(switches)):
        net.link(switches[rng.randrange(k)], switches[k], 100 * MBPS)
    for _ in range(rng.randint(1, 4)):  # redundant links, parallel ones included
        a, b = rng.sample(switches, 2)
        net.link(a, b, rng.choice([100 * MBPS, 1000 * MBPS]))
    attach = list(switches)
    if rng.random() < 0.5:
        hub = net.add_hub("hub")
        net.link(hub, switches[0], 10 * MBPS)
        net.link(hub, switches[-1], 10 * MBPS)
        attach.append(hub)
    subnet = "10.7.0.0/24"
    uplink = net.link(gw, switches[0], 1000 * MBPS)
    net.assign_ip(uplink.a, "10.7.0.1", subnet)
    for k, sw in enumerate(switches):
        net.assign_ip(sw.interfaces[0], f"10.7.0.{200 + k}", subnet)
        sw.management_ip = sw.interfaces[0].ip
    for j in range(rng.randint(2, 6)):
        h = net.add_host(f"h{j}")
        ln = net.link(h, rng.choice(attach), 100 * MBPS)
        net.assign_ip(ln.a, f"10.7.0.{10 + j}", subnet)
    net.freeze()
    return net


def _random_wan(seed: int) -> Network:
    rng = random.Random(seed)
    return build_random_wan(
        rng.randint(2, 12),
        seed=seed,
        multi_switch_fraction=0.5,
        wireless_fraction=0.3,
        n_cores=rng.randint(1, 3),
    ).net


WORLDS = [("wan", s) for s in range(40)] + [("mesh", s) for s in range(10)]


def _frozen_state(net: Network) -> dict[str, object]:
    return {
        "routes": {
            r.name: [(str(p), str(nh), out.fqname) for p, nh, out in r.routes]
            for r in net.routers()
        },
        "gateways": {h.name: str(h.gateway_ip) for h in net.hosts()},
        "blocked_ports": {sw.name: sorted(sw.blocked_ports) for sw in net.switches()},
        "blocked_links": sorted(net._blocked_links),
        "trees": [
            sorted(id(ln) for _, _, ln in graphwalk.edges(seg.tree))
            for seg in net._segments or []
        ],
        "fdbs": {sw.name: [(str(m), p) for m, p in sw.fdb.items()] for sw in net.switches()},
    }


@pytest.mark.parametrize("kind,seed", WORLDS)
def test_freeze_equals_the_previous_freeze(kind, seed):
    net = _random_wan(seed) if kind == "wan" else _switch_mesh(seed)
    frozen = _frozen_state(net)
    _parent_freeze(net)
    assert frozen == _frozen_state(net)
    if kind == "mesh":
        assert frozen["blocked_links"], "every mesh has a redundant link to block"


# -- beyond the original twin --------------------------------------------------------


def _world(kind: str, seed: int) -> Network:
    if kind == "campus":
        return build_campus(3, 4).net
    if kind == "hub":
        return build_hub_lan().net
    return _random_wan(seed) if kind == "wan" else _switch_mesh(seed)


MORE_WORLDS = (
    [("wan", s) for s in range(40, 60)]
    + [("mesh", s) for s in range(10, 40)]
    + [("campus", 0), ("hub", 0)]
)


@pytest.mark.parametrize("kind,seed", MORE_WORLDS)
def test_freeze_equals_the_previous_freeze_on_more_worlds(kind, seed):
    net = _world(kind, seed)
    frozen = _frozen_state(net)
    _parent_freeze(net)
    assert frozen == _frozen_state(net)
    if kind == "mesh":
        assert frozen["blocked_links"], "every mesh has a redundant link to block"


def _parent_l2_path(tree: nx.Graph, ps: object, pd: object) -> list[Channel]:
    """The previous ``l2_path`` body, over a networkx copy of the tree."""
    points = nx.shortest_path(tree, ps, pd)
    channels: list[Channel] = []
    for a, b in zip(points, points[1:]):
        ln = tree.edges[a, b]["link"]
        # orient: transmit from the interface on the `a` side
        if _apoint(ln.a) is a:
            channels.append(ln.channel_from(ln.a))
        else:
            channels.append(ln.channel_from(ln.b))
    return channels


@pytest.mark.parametrize("kind,seed", WORLDS[::5] + MORE_WORLDS[::5])
def test_l2_paths_are_networkx_shortest_paths(kind, seed):
    """Every station-to-station (and switch) path on every segment tree."""
    net = _world(kind, seed)
    for seg in net._segments or []:
        tree = nx.Graph()
        for u, v, ln in graphwalk.edges(seg.tree):
            tree.add_edge(u, v, link=ln)
        ends = seg.edge_ifaces + [sw.interfaces[0] for sw in seg.switches]
        for src in ends:
            for dst in ends:
                want = _parent_l2_path(tree, _apoint(src), _apoint(dst))
                assert bridging.l2_path(net, src, dst) == want, (src, dst)


def _hub_loop(order: tuple[str, ...]) -> tuple[Network, dict[str, Link]]:
    """Switches s1 and s2 joined twice, each time through a hub whose
    ports have no MAC, with the loop's four links added in ``order``."""
    net = Network()
    gw = net.add_router("gw")
    s1, s2 = net.add_switch("s1"), net.add_switch("s2")
    ha, hb = net.add_hub("ha"), net.add_hub("hb")
    up = net.link(gw, s1, 1000 * MBPS)
    ends = {"s1-ha": (s1, ha), "ha-s2": (ha, s2), "s2-hb": (s2, hb), "hb-s1": (hb, s1)}
    links = {name: net.link(*ends[name], 10 * MBPS) for name in order}
    for hub in (ha, hb):
        for iface in hub.interfaces:
            iface.mac = None
    net.assign_ip(up.a, "10.7.0.1", "10.7.0.0/24")
    for k, sw in enumerate((s1, s2)):
        net.assign_ip(sw.interfaces[0], f"10.7.0.{200 + k}", "10.7.0.0/24")
    host = net.link(net.add_host("h0"), s2, 100 * MBPS)
    net.assign_ip(host.a, "10.7.0.10", "10.7.0.0/24")
    net.freeze()
    return net, links


@pytest.mark.parametrize("order", itertools.permutations(["s1-ha", "ha-s2", "s2-hb", "hb-s1"]))
def test_a_tied_loop_blocks_the_later_link(order):
    """A MAC-less hub port's bridge id is ``(1 << 20, 0)``, so the two
    links from the hubs to one switch share an ``_edge_sort_key``.  The
    loop is broken at the highest key; of tied links, the one added to
    the network later is blocked.  (The networkx cycle walk this
    replaced broke such a tie by its own traversal order, so in 12 of
    these 24 orders it blocked the other link.)"""
    net, links = _hub_loop(order)
    keys = {name: _edge_sort_key(ln) for name, ln in links.items()}
    top = max(keys.values())
    tied = [name for name in order if keys[name] == top]
    assert len(tied) == 2
    assert sorted(net._blocked_links) == [id(links[tied[1]])]
    (seg,) = net._segments
    assert len(list(graphwalk.edges(seg.tree))) == len(seg.tree) - 1
