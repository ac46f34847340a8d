"""Route discovery: the half of the SNMP Collector that outlives a query.

"The collector follows the route hop-to-hop ... and caches previously
discovered routes" (paper §3.1.1).  :class:`Discovery` does the
following, over SNMP, and remembers everything it read in one
:class:`DiscoveryState`:

1. **Routes**, hop by hop: starting from each host's configured
   gateway it walks router ``ipRouteTable`` s and does its own
   longest-prefix matching, following ``ipRouteNextHop`` until it
   reaches a directly attached destination.  Route tables are kept per
   router, so later queries only follow *new* routes.  A path that ends
   at the gateway walks no route table: one GET of the gateway's own
   ``ipAddrTable`` row names its interface on the host's subnet.
2. **L2 segments**: inside a subnet it asks the site's Bridge Collector
   for the switch-level path; shared segments and subnets without
   bridge data become *virtual switches*.

The state is a record: it is what ``flush_caches`` replaces, and all
that survives between queries — nothing here is negative: a read that
failed is asked again.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, cast

from repro import obs
from repro.common.errors import (
    NoSuchObjectError,
    QueryError,
    SnmpError,
    TopologyError,
    UnknownHostError,
)
from repro.netsim.address import IPv4Address, IPv4Network, MacAddress, PrefixTable
from repro.netsim.address import ipv4_text, netmask_prefixlen
from repro.snmp import oid as O
from repro.snmp.client import SnmpClient
from repro.collectors.bridge_collector import BridgeCollector, L2Database, L2Node
from repro.collectors.monitor import MonitorKey
from repro.modeler.graph import HOST, ROUTER, SWITCH, VSWITCH, TopoNode

if TYPE_CHECKING:  # the collector module imports this one
    from repro.collectors.snmp_collector import SnmpCollectorConfig

#: bound on L3 hops followed per path (routing loop guard)
MAX_L3_HOPS = 32


#: a walked route row as the ints its index decodes to: (network, prefix length, next
#: hop or None when directly attached, ifIndex) -- a plain tuple the GC stops tracking
RouteRow = tuple[int, int, int | None, int]


class RouteEntry(NamedTuple):
    """A route row as a reader gets it; addresses are made on request."""

    network: int
    prefixlen: int
    hop: int | None
    ifindex: int

    @property
    def prefix(self) -> IPv4Network:
        return IPv4Network(IPv4Address(self.network), self.prefixlen)

    @property
    def next_hop(self) -> IPv4Address | None:
        return None if self.hop is None else IPv4Address(self.hop)


def _route_table(rows: list[RouteRow]) -> PrefixTable[RouteRow]:
    """The rows filed by their own ints, in walk order."""
    table: PrefixTable[RouteRow] = PrefixTable()
    for row in rows:
        table.file(row[0], row[1], row)
    return table


@dataclass
class EdgeRec:
    """One discovered link: endpoints plus where to poll its counters.

    ``owner_id`` is the endpoint whose device owns the monitored
    interface, so out-octets map to traffic *from* that endpoint.
    ``key`` is None for edges with nothing to poll (virtual elements).
    """

    a: str
    b: str
    key: MonitorKey | None
    owner_id: str
    capacity_bps: float
    latency_s: float = 0.0005


@dataclass
class PathRec:
    """Discovery result for one host pair."""

    nodes: list[TopoNode]
    edges: list[EdgeRec]


@dataclass
class DiscoveryState:
    """Everything discovery has read and not yet been told to forget."""

    #: (src, dst) -> path; same-subnet pairs keep only host-to-gateway roots
    paths: dict[tuple[str, str], PathRec] = field(default_factory=dict)
    #: router address -> its full route table, walked once
    route_tables: dict[str, PrefixTable[RouteRow]] = field(default_factory=dict)
    #: (router address, subnet it holds that address in) -> the
    #: router's ifIndex there, from the address's ipAddrTable row
    subnet_ifaces: dict[tuple[str, IPv4Network], int] = field(default_factory=dict)
    sys_names: dict[str, str] = field(default_factory=dict)
    if_speeds: dict[tuple[str, int], float] = field(default_factory=dict)
    if_macs: dict[tuple[str, int], MacAddress | None] = field(default_factory=dict)
    #: subnet -> {host address: MAC from the gateway's ARP row}
    arp: dict[IPv4Network, dict[str, MacAddress | None]] = field(default_factory=dict)

    def edges(self) -> Iterator[EdgeRec]:
        for rec in self.paths.values():
            yield from rec.edges

    def kept(self, fraction: float) -> "DiscoveryState":
        """The state with only the first ``fraction`` of its sorted
        paths — the paper's "Mixed" scenario where the previous query
        left roughly 1/2 or 1/3 of the data cached.  What it keeps
        whole it shares with this state."""
        if fraction <= 0.0:
            return DiscoveryState()
        if fraction >= 1.0:
            return self
        items = sorted(self.paths.items())
        kept = DiscoveryState(
            dict(items[: int(len(items) * fraction)]),
            self.route_tables,
            self.subnet_ifaces,
            self.sys_names,
        )
        # Fine-grained memos follow the kept records, so the dropped
        # fraction genuinely pays rediscovery again.
        srcs = {src for (src, _dst) in kept.paths}
        ifaces = {(e.key.agent_ip, e.key.ifindex) for e in kept.edges() if e.key}
        kept.if_speeds = {k: v for k, v in self.if_speeds.items() if k in ifaces}
        kept.if_macs = {k: v for k, v in self.if_macs.items() if k in ifaces}
        kept.arp = {
            subnet: {ip: mac for ip, mac in table.items() if ip in srcs}
            for subnet, table in self.arp.items()
        }
        return kept


class Discovery:
    """See module docstring.  ``state`` may be replaced at any time."""

    def __init__(
        self,
        client: SnmpClient,
        config: SnmpCollectorConfig,
        bridges: dict[IPv4Network, BridgeCollector],
    ) -> None:
        self.client = client
        self.config = config
        self.bridges = bridges
        self.state = DiscoveryState()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def route_pair(self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool) -> PathRec:
        """Path record for one pair, via the cheapest applicable route."""
        if dst_is_router:
            return self.path_record(src, dst, dst_is_router=True)
        loc = self.config.gateway_for(src)
        if loc is not None and loc == self.config.gateway_for(dst):
            return self._join_same_subnet(src, dst, loc[1])
        return self.path_record(src, dst)

    def _join_same_subnet(
        self, src: IPv4Address, dst: IPv4Address, gateway: IPv4Address
    ) -> PathRec:
        """Join two remembered host-to-gateway paths at their meet point
        (the "path between a node and the edge router" service of
        §3.1.2).

        Only the per-host root paths are kept (O(hosts) memory); the
        joined pair path is rebuilt per query, sharing the underlying
        edge records so monitors and graph assembly deduplicate.
        """
        rec_a = self.path_record(src, gateway, dst_is_router=True)
        rec_b = self.path_record(dst, gateway, dst_is_router=True)
        na, nb = rec_a.nodes, rec_b.nodes
        i, j = len(na) - 1, len(nb) - 1
        while i > 0 and j > 0 and na[i - 1].id == nb[j - 1].id:
            i -= 1
            j -= 1
        nodes = na[: i + 1] + nb[:j][::-1]
        edges = rec_a.edges[:i] + rec_b.edges[:j][::-1]
        return PathRec(nodes, edges)

    def path_record(
        self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool = False
    ) -> PathRec:
        paths = self.state.paths
        cache_key = (str(src), str(dst))
        rev_key = (str(dst), str(src))
        if cache_key in paths:
            obs.counter("collectors.snmp.path_cache", result="hit").inc()
            return paths[cache_key]
        if not dst_is_router and rev_key in paths:
            obs.counter("collectors.snmp.path_cache", result="hit").inc()
            return paths[rev_key]
        obs.counter("collectors.snmp.path_cache", result="miss").inc()
        rec = paths[cache_key] = self._discover(src, dst, dst_is_router)
        return rec

    def _discover(self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool) -> PathRec:
        """Hop-by-hop discovery of the src->dst path.

        ``dst`` is a host or, for anchor queries, a router address.  The
        common case there is the host's own gateway (one L2 leg); other
        routers are reached by the same hop-by-hop walk, terminating
        when the next hop *is* the target address.
        """
        src_loc = self.config.gateway_for(src)
        if src_loc is None:
            raise UnknownHostError(f"{src} is outside this collector's networks")
        if not dst_is_router and self.config.gateway_for(dst) is None:
            raise UnknownHostError(f"{dst} is outside this collector's networks")

        nodes: list[TopoNode] = [TopoNode(str(src), HOST, (str(src),))]
        edges: list[EdgeRec] = []

        src_subnet, src_gw = src_loc

        gw_ip = str(src_gw)
        if not dst_is_router and dst in src_subnet:
            # Same subnet: pure L2 path.
            self._expand_l2(
                nodes, edges, src_subnet,
                a_id=str(src), a_mac=self._station_mac(src_subnet, gw_ip, src),
                b_id=str(dst), b_mac=self._station_mac(src_subnet, gw_ip, dst),
            )
            nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
            return PathRec(nodes, edges)

        # First hop: src -> its gateway across the source subnet.
        gw_name = self.sys_name(gw_ip)
        if not (dst_is_router and dst == src_gw):
            # the walk goes on past the gateway, through the route table
            # that also names the gateway's interface on this subnet
            self._routes(gw_ip)
        gw_entry_iface = self.iface_on_subnet(gw_ip, src_subnet)
        self._expand_l2(
            nodes, edges, src_subnet,
            a_id=str(src), a_mac=self._station_mac(src_subnet, gw_ip, src),
            b_id=gw_name, b_mac=self._if_mac(gw_ip, gw_entry_iface),
            b_agent=gw_ip, b_ifindex=gw_entry_iface,
        )
        nodes.append(TopoNode(gw_name, ROUTER, (gw_ip,)))

        # Where the walk ends: at the router named ``target_name``, or
        # (None, a host) at the router its subnet is attached to.
        target_name: str | None = None
        if dst_is_router:
            target_name = gw_name if dst == src_gw else self.sys_name(str(dst))
            if target_name == gw_name:
                return PathRec(nodes, edges)

        current_ip = gw_ip
        current_name = gw_name
        for _ in range(MAX_L3_HOPS):
            entry = self.lpm(current_ip, dst)
            out_idx = entry.ifindex
            cap = self._if_speed(current_ip, out_idx)
            if entry.hop is None and target_name is None:
                # Directly attached destination subnet: final L2 leg.
                subnet = entry.prefix
                self._expand_l2(
                    nodes, edges, subnet,
                    a_id=current_name, a_mac=self._if_mac(current_ip, out_idx),
                    b_id=str(dst), b_mac=self._station_mac(subnet, current_ip, dst),
                    a_agent=current_ip, a_ifindex=out_idx,
                )
                nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
                return PathRec(nodes, edges)
            hop_ip = str(dst) if entry.hop is None else ipv4_text(entry.hop)
            try:
                hop_name = self.sys_name(hop_ip)
            except SnmpError:
                if target_name is not None:
                    raise
                # Inaccessible router: virtual switch stands in for
                # everything beyond, as the paper prescribes.
                vsw = f"vsw:{hop_ip}"
                nodes.append(TopoNode(vsw, VSWITCH))
                nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
                edges.append(
                    EdgeRec(current_name, vsw, MonitorKey(current_ip, out_idx), current_name, cap)
                )
                edges.append(EdgeRec(vsw, str(dst), None, vsw, math.inf))
                return PathRec(nodes, edges)
            nodes.append(TopoNode(hop_name, ROUTER, (hop_ip,)))
            edges.append(
                EdgeRec(current_name, hop_name, MonitorKey(current_ip, out_idx), current_name, cap)
            )
            if hop_name == target_name:
                return PathRec(nodes, edges)
            current_ip, current_name = hop_ip, hop_name
        raise QueryError(f"routing loop discovering {src} -> {dst}")

    # ------------------------------------------------------------------
    # Route tables
    # ------------------------------------------------------------------

    def route_table(self, router_ip: str) -> list[RouteEntry]:
        """The router's full table, in walk order."""
        return [RouteEntry._make(row) for row in self._routes(router_ip)]

    def _routes(self, router_ip: str) -> PrefixTable[RouteRow]:
        """The router's rows, walked once and remembered.

        Prefers the RFC 2096 ipCidrRouteTable (its index carries the
        mask, so overlapping prefixes survive); falls back to the
        classic ipRouteTable for old agents that never implemented it —
        the §6.2 "non-standard SNMP implementations" reality.
        """
        tables = self.state.route_tables
        if router_ip in tables:
            obs.counter("collectors.snmp.route_cache", result="hit").inc()
            return tables[router_ip]
        obs.counter("collectors.snmp.route_cache", result="miss").inc()
        rows = self._walk_cidr_routes(router_ip) or self._walk_legacy_routes(router_ip)
        table = tables[router_ip] = _route_table(rows)
        return table

    def _walk_cidr_routes(self, router_ip: str) -> list[RouteRow]:
        ifidx = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_TYPE)
        rows: list[RouteRow] = []
        for suffix, idx in ifidx.items():
            # index = (dest, mask, tos, next hop), four octets each but
            # tos; bytes() refuses a sub-id over 255
            try:
                if len(suffix) != 13:
                    raise ValueError(f"ipCidrRouteTable index of {len(suffix)} sub-ids")
                dest_mask = int.from_bytes(bytes(suffix[0:8]), "big")
                dest = dest_mask >> 32
                prefixlen = netmask_prefixlen(dest, dest_mask & 0xFFFFFFFF)
                hop = int.from_bytes(bytes(suffix[9:13]), "big")
            except ValueError:
                # malformed row on a buggy agent: the rest still routes
                obs.counter("collectors.snmp.malformed_rows", table="cidr").inc()
                continue
            local = types.get(suffix) == O.CIDR_TYPE_LOCAL
            rows.append((dest, prefixlen, None if local else hop, int(cast(int, idx))))
        return rows

    def _walk_legacy_routes(self, router_ip: str) -> list[RouteRow]:
        hops = self.client.table_column(router_ip, O.IP_ROUTE_NEXT_HOP)
        masks = self.client.table_column(router_ip, O.IP_ROUTE_MASK)
        ifidx = self.client.table_column(router_ip, O.IP_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_ROUTE_TYPE)
        rows: list[RouteRow] = []
        for suffix, hop in hops.items():
            mask = masks.get(suffix)
            idx = ifidx.get(suffix)
            if mask is None or idx is None:
                continue
            try:
                if len(suffix) != 4:
                    raise ValueError(f"ipRouteTable index of {len(suffix)} sub-ids")
                dest = int.from_bytes(bytes(suffix), "big")
                # addresses come as text or as addresses, agent by agent
                prefixlen = netmask_prefixlen(dest, IPv4Address(cast(str, mask)).value)
                direct = types.get(suffix) == O.ROUTE_TYPE_DIRECT
                next_hop = None if direct else IPv4Address(cast(str, hop)).value
            except ValueError:
                obs.counter("collectors.snmp.malformed_rows", table="legacy").inc()
                continue
            rows.append((dest, prefixlen, next_hop, int(cast(int, idx))))
        return rows

    def lpm(self, router_ip: str, dst: IPv4Address) -> RouteEntry:
        row = self._routes(router_ip).match(dst)
        if row is None:
            raise QueryError(f"router {router_ip} has no route to {dst}")
        return RouteEntry._make(row)

    def iface_on_subnet(self, router_ip: str, subnet: IPv4Network) -> int:
        """The router's ifIndex on a directly attached subnet.

        Read from the route table once that is walked; before, from the
        ipAddrTable row of ``router_ip`` when its mask puts the address
        on ``subnet`` (one GET, kept), and otherwise from the route
        table, walked.
        """
        if router_ip not in self.state.route_tables:
            ifindex = self._addr_iface(router_ip, subnet)
            if ifindex is not None:
                return ifindex
        network, prefixlen = subnet.network_int, subnet.prefixlen
        for net, plen, hop, ifindex in self._routes(router_ip):
            if hop is None and net == network and plen == prefixlen:
                return ifindex
        raise QueryError(f"router {router_ip} not attached to {subnet}")

    def _addr_iface(self, router_ip: str, subnet: IPv4Network) -> int | None:
        """The ifIndex of ``router_ip``'s ipAddrTable row, kept, or None
        when the agent has no such row, or its mask does not parse or
        puts the address on another subnet.  Any other SNMP error
        raises."""
        ifaces = self.state.subnet_ifaces
        key = (router_ip, subnet)
        if key not in ifaces:
            addr = IPv4Address(router_ip)
            row = addr.octets()
            try:
                ifindex, mask = self.client.get_many(
                    router_ip, [O.IP_AD_ENT_IF_INDEX + row, O.IP_AD_ENT_NET_MASK + row]
                )
            except NoSuchObjectError:
                return None
            try:
                netmask = IPv4Address(cast(str, mask)).value
            except ValueError:
                return None
            if netmask != subnet.netmask_int or addr.value & netmask != subnet.network_int:
                return None
            ifaces[key] = int(cast(int, ifindex))
        return ifaces[key]

    # ------------------------------------------------------------------
    # Single objects, read once
    # ------------------------------------------------------------------

    def sys_name(self, agent_ip: str) -> str:
        names = self.state.sys_names
        if agent_ip not in names:
            names[agent_ip] = str(self.client.get(agent_ip, O.SYS_NAME))
        return names[agent_ip]

    def _if_speed(self, agent_ip: str, ifindex: int) -> float:
        speeds = self.state.if_speeds
        key = (agent_ip, ifindex)
        if key not in speeds:
            speeds[key] = float(cast(float, self.client.get(agent_ip, O.IF_SPEED + ifindex)))
        return speeds[key]

    def _if_mac(self, agent_ip: str, ifindex: int) -> MacAddress | None:
        macs = self.state.if_macs
        key = (agent_ip, ifindex)
        if key not in macs:
            try:
                macs[key] = MacAddress(str(self.client.get(agent_ip, O.IF_PHYS_ADDRESS + ifindex)))
            except (SnmpError, ValueError):
                macs[key] = None
        return macs[key]

    def _station_mac(
        self, subnet: IPv4Network, gateway_ip: str, ip: IPv4Address
    ) -> MacAddress | None:
        """One host's MAC from the gateway's ARP row (exact GET, kept).

        ipNetToMediaPhysAddress is indexed by (ifIndex, IP), and
        :meth:`iface_on_subnet` names the gateway's interface on the
        subnet once per gateway, so resolution is a single PDU per host.
        """
        cache = self.state.arp.setdefault(subnet, {})
        key = str(ip)
        if key not in cache:
            try:
                ifindex = self.iface_on_subnet(gateway_ip, subnet)
                mac_str = self.client.get(
                    gateway_ip, O.IP_NET_TO_MEDIA_PHYS_ADDRESS + (ifindex,) + ip.octets()
                )
                cache[key] = MacAddress(str(mac_str))
            except (SnmpError, ValueError, QueryError):
                cache[key] = None
        return cache[key]

    # ------------------------------------------------------------------
    # L2 expansion
    # ------------------------------------------------------------------

    def _bridge_for(self, subnet: IPv4Network) -> BridgeCollector | None:
        best: tuple[int, BridgeCollector] | None = None
        for net_, bc in self.bridges.items():
            if net_.overlaps(subnet) and (best is None or net_.prefixlen > best[0]):
                best = (net_.prefixlen, bc)
        return best[1] if best else None

    def _poll_point(
        self, agent: str | None, ifindex: int | None
    ) -> tuple[MonitorKey | None, float]:
        """Where one end of an edge is polled and that interface's
        speed; (None, inf) for an end that is not a router interface."""
        if not agent or not ifindex:
            return None, math.inf
        return MonitorKey(agent, ifindex), self._if_speed(agent, ifindex)

    def _expand_l2(
        self,
        nodes: list[TopoNode],
        edges: list[EdgeRec],
        subnet: IPv4Network,
        a_id: str,
        a_mac: MacAddress | None,
        b_id: str,
        b_mac: MacAddress | None,
        a_agent: str | None = None,
        a_ifindex: int | None = None,
        b_agent: str | None = None,
        b_ifindex: int | None = None,
    ) -> None:
        """Add the L2 path a--...--b across one subnet.

        Uses the subnet's Bridge Collector when available; otherwise a
        single virtual switch represents the segment (point-to-point
        transit prefixes collapse to a direct edge).
        """
        bridge = self._bridge_for(subnet)
        if bridge is not None and a_mac is not None and b_mac is not None:
            try:
                self._expand_via_bridge(nodes, edges, bridge, a_id, a_mac, b_id, b_mac)
                return
            except (TopologyError, SnmpError):
                pass  # fall through to virtual representation
        key_a, cap_a = self._poll_point(a_agent, a_ifindex)
        if subnet.prefixlen >= 30:
            # Point-to-point link: direct edge, polled at whichever
            # router side we can.
            if key_a is not None:
                edges.append(EdgeRec(a_id, b_id, key_a, a_id, cap_a))
            else:
                key_b, cap_b = self._poll_point(b_agent, b_ifindex)
                edges.append(EdgeRec(a_id, b_id, key_b, b_id if key_b else a_id, cap_b))
            return
        # Opaque multi-access subnet: one virtual switch.
        vsw = f"vsw:{subnet}"
        nodes.append(TopoNode(vsw, VSWITCH))
        key_b, cap_b = self._poll_point(b_agent, b_ifindex)
        edges.append(EdgeRec(a_id, vsw, key_a, a_id, cap_a))
        edges.append(EdgeRec(vsw, b_id, key_b, b_id, cap_b))

    def _expand_via_bridge(
        self,
        nodes: list[TopoNode],
        edges: list[EdgeRec],
        bridge: BridgeCollector,
        a_id: str,
        a_mac: MacAddress,
        b_id: str,
        b_mac: MacAddress,
    ) -> None:
        """Translate a Bridge Collector path into nodes/edges.

        Plain inter-switch wire segments collapse into direct
        switch-to-switch edges; shared segments become virtual
        switches.  Each edge adjacent to a managed switch is polled at
        that switch's port.
        """
        db = bridge.db if bridge.db is not None else bridge.startup()
        path = bridge.path(a_mac, b_mac)
        # path: ('mac', a) [('sw'|'seg', ...)]* ('mac', b)
        items: list[tuple[str, str, int]] = []  # (node id, kind, index in path)
        for idx, node in enumerate(path):
            if node[0] == "mac":
                items.append((a_id if idx == 0 else b_id, HOST, idx))
            elif node[0] == "sw":
                items.append((node[1], SWITCH, idx))
            else:
                seg = db.segments[node[1]]
                if seg.is_plain_link:
                    continue  # collapse: the two switches join directly
                items.append((f"vsw:{bridge.name}:{node[1]}", VSWITCH, idx))
        for node_id, kind, _ in items:
            if kind != HOST:
                nodes.append(TopoNode(node_id, kind))
        for (xid, xk, xi), (yid, yk, yi) in zip(items, items[1:]):
            info: tuple[str, int, str] | None = None  # (agent ip, port, owner id)
            if xk == SWITCH:
                port = self._port_toward(db, xid, path[xi + 1])
                ip = db.switch_ips.get(xid)
                if port is not None and ip is not None:
                    info = (str(ip), port, xid)
            if info is None and yk == SWITCH:
                port = self._port_toward(db, yid, path[yi - 1])
                ip = db.switch_ips.get(yid)
                if port is not None and ip is not None:
                    info = (str(ip), port, yid)
            if info is not None:
                agent_ip, poll_port, owner = info
                cap = self._if_speed(agent_ip, poll_port)
                edges.append(EdgeRec(xid, yid, MonitorKey(agent_ip, poll_port), owner, cap))
            else:
                edges.append(EdgeRec(xid, yid, None, xid, math.inf))

    @staticmethod
    def _port_toward(db: L2Database, switch_name: str, neighbor: L2Node) -> int | None:
        """The switch's ifIndex on its graph edge toward ``neighbor``."""
        return db.graph.get(("sw", switch_name), {}).get(neighbor)
