"""L3 route computation.

Builds per-router forwarding tables (longest-prefix match entries) from
shortest paths over the router adjacency graph, and assigns default
gateways to hosts.  The SNMP Collector later *re-discovers* paths by
walking these tables hop-by-hop over SNMP, so consistency between the
tables and the fluid-flow forwarding in :mod:`repro.netsim.paths` is by
construction: both consult the same entries.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from repro.common.errors import TopologyError
from repro.common.graphwalk import bfs_first_hops
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.netsim.topology import Host, Interface, Network, Router


def _router_attachments(net: Network) -> dict[IPv4Network, list[tuple[Router, Interface]]]:
    """Map each IP subnet to the router interfaces attached to it.

    Interfaces without a live link are skipped: a downed port withdraws
    its connected route and every adjacency through it (link-state
    routing semantics; interior L2 failures on multi-switch segments
    are beyond what this static recomputation models).
    """
    attach: dict[IPv4Network, list[tuple[Router, Interface]]] = defaultdict(list)
    for r in net.routers():
        for i in r.interfaces:
            if i.network is not None and i.ip is not None and i.link is not None:
                attach[i.network].append((r, i))
    return attach


def build_routing_tables(net: Network) -> None:
    """Populate ``Router.routes`` for every router and host gateways."""
    net._path_memo.clear()  # L3 forwarding changes under every memoized path
    attach = _router_attachments(net)
    routers = net.routers()
    # Routers are L3-adjacent when they share a subnet: ``adj[r1][r2]`` is
    # r1's egress interface and next-hop address on the first subnet they
    # share (parallel subnets are redundant at unit weights).
    adj: dict[str, dict[str, tuple[Interface, IPv4Address | None]]]
    adj = {r.name: {} for r in routers}
    for members in attach.values():
        for (r1, i1), (r2, i2) in combinations(members, 2):
            if r1 is not r2 and r2.name not in adj[r1.name]:
                adj[r1.name][r2.name] = (i1, i2.ip)
                adj[r2.name][r1.name] = (i2, i1.ip)

    # All destinations a route must exist for: every subnet seen on any
    # interface (router or host), in the order routes are installed, each
    # with the names of the routers attached to it, in name order.
    subnet_set: set[IPv4Network] = set(attach)
    for node in net.nodes.values():
        for i in node.interfaces:
            if i.network is not None:
                subnet_set.add(i.network)
    dests = [(s, sorted({r.name for r, _ in attach.get(s, [])})) for s in sorted(subnet_set)]
    position = {s: k for k, (s, _) in enumerate(dests)}

    for r in routers:
        r.routes = PrefixTable()
        # Direct routes first (only on interfaces that are up).
        direct: set[int] = set()
        for i in r.interfaces:
            if i.network is not None and i.link is not None:
                r.routes.insert(i.network, (i.network, None, i))
                direct.add(position[i.network])

        # Route to the nearest attached router by hop count, the first by
        # name of equals, along the first path found to it.  ``r`` itself
        # is never one: a subnet it is attached to is direct.
        reach = bfs_first_hops(adj, r.name)
        via = adj[r.name]
        for k, (subnet, names) in enumerate(dests):
            if k in direct:
                continue
            best: tuple[int, str] | None = None
            for name in names:
                hit = reach.get(name)
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
            if best is None:
                continue  # unreachable subnet: no route (packets would drop)
            out_iface, next_ip = via[best[1]]
            r.routes.insert(subnet, (subnet, next_ip, out_iface))

    _assign_gateways(net, attach)


def _assign_gateways(
    net: Network, attach: dict[IPv4Network, list[tuple[Router, Interface]]]
) -> None:
    """Give every host without an explicit gateway the first router on
    its subnet (deterministic by router name)."""
    for host in net.hosts():
        if host.gateway_ip is not None:
            continue
        for i in host.interfaces:
            if i.network is None:
                continue
            members = attach.get(i.network, [])
            if members:
                best = min(members, key=lambda m: m[0].name)
                host.gateway_ip = best[1].ip
                break


def resolve_l3_next_hop(
    net: Network, current: Host | Router, dst_ip: IPv4Address
) -> tuple[Interface, Interface]:
    """One L3 forwarding decision: (egress interface, next-hop interface).

    For hosts: deliver on-link if the destination shares a subnet,
    otherwise send to the default gateway.  For routers: longest prefix
    match in the forwarding table.  The next-hop interface is the
    device interface owning the next-hop IP (or the destination's own
    interface for direct delivery).
    """
    if isinstance(current, Host):
        for i in current.interfaces:
            if i.network is not None and dst_ip in i.network:
                target = net.iface_for_ip(dst_ip)
                if target is None:
                    raise TopologyError(f"no interface owns {dst_ip}")
                return i, target
        if current.gateway_ip is None:
            raise TopologyError(f"host {current.name} has no gateway for {dst_ip}")
        gw_iface = net.iface_for_ip(current.gateway_ip)
        if gw_iface is None:
            raise TopologyError(f"gateway {current.gateway_ip} does not exist")
        if not current.interfaces:
            raise TopologyError(f"host {current.name} has no interfaces")
        out = next(
            (i for i in current.interfaces if i.network is not None and current.gateway_ip in i.network),
            current.interfaces[0],
        )
        return out, gw_iface

    entry = current.lookup_route(dst_ip)
    if entry is None:
        raise TopologyError(f"router {current.name} has no route to {dst_ip}")
    prefix, next_ip, out_iface = entry
    if next_ip is None:  # directly attached: deliver to the owner
        target = net.iface_for_ip(dst_ip)
        if target is None:
            raise TopologyError(f"no interface owns {dst_ip}")
        return out_iface, target
    hop_iface = net.iface_for_ip(next_ip)
    if hop_iface is None:
        raise TopologyError(f"next hop {next_ip} does not exist")
    return out_iface, hop_iface
