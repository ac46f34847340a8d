"""``Network.freeze`` against the code it replaced.

Routing tables are built with the destination subnets sorted once per
call instead of once per router, and a segment's spanning tree asks
``nx.find_cycle`` only when a union-find over its links says it has a
cycle.  The oracle is the previous ``build_routing_tables`` and
``run_spanning_tree``, kept verbatim below; both run on the same
network, and routes, gateways, blocked ports, spanning trees and FDBs
must come out identical — over seeded random WANs and seeded switch
meshes whose redundant and parallel links the tree has to block.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.common.units import MBPS
from repro.netsim import bridging
from repro.netsim.address import IPv4Network, PrefixTable
from repro.netsim.bridging import _apoint, _block_link, _edge_sort_key, discover_segments
from repro.netsim.builders import build_random_wan
from repro.netsim.routing import _adjacency_graph, _assign_gateways, _router_attachments
from repro.netsim.topology import Network, Router


# -- the oracle: the previous code, verbatim ---------------------------------


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
        seg.tree = g
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
            sorted(id(d["link"]) for _, _, d in seg.tree.edges(data=True))
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
