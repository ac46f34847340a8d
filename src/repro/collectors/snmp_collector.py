"""SNMP Collector: L3 topology discovery and utilization monitoring.

The basic collector the whole system relies on (paper §3.1.1).  On a
query it:

1. **Discovers routes** hop-by-hop: starting from each host's
   configured gateway, it walks router ``ipRouteTable`` s over SNMP and
   does its own longest-prefix matching, following ``ipRouteNextHop``
   until it reaches a directly attached destination.  Route tables are
   cached per router, so later queries only follow *new* routes.
2. **Expands L2 segments**: inside a subnet it asks the site's Bridge
   Collector for the switch-level path; shared segments and subnets
   without bridge data become *virtual switches*.
3. **Monitors utilization**: every discovered link joins the periodic
   polling set (default every 5 s) and keeps a counter history; a query
   that needs dynamics on an unmonitored link takes two samples one
   ``cold_sample_gap_s`` apart — part of the cold-query cost in Fig. 3.

All SNMP and CPU costs are charged to the simulation clock, so query
response time is measured the same way the paper measures it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.common.errors import (
    AgentUnreachableError,
    AuthorizationError,
    QueryError,
    SnmpError,
    TopologyError,
    UnknownHostError,
)
from repro.common.status import QueryStatus
from repro.netsim.address import IPv4Address, IPv4Network, MacAddress, PrefixTable
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp.agent import SnmpWorld
from repro.snmp.client import SnmpClient, SnmpCostModel
from repro.collectors.base import (
    Collector,
    ForecastSeries,
    HistoryRequest,
    HistoryResponse,
    TopologyRequest,
    TopologyResponse,
)
from repro.collectors.bridge_collector import BridgeCollector
from repro.collectors.monitor import LinkMonitor, MonitorKey
from repro.modeler.graph import (
    CLOUD,
    HOST,
    ROUTER,
    SWITCH,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)

#: bound on L3 hops followed per path (routing loop guard)
MAX_L3_HOPS = 32

log = obs.get_logger(__name__)


@dataclass
class SnmpCollectorConfig:
    """Static configuration handed to a collector at deployment."""

    #: address space this collector is responsible for
    domains: list[IPv4Network]
    #: (subnet, gateway router address) pairs — "the routers the nodes
    #: are configured to use"
    gateways: list[tuple[IPv4Network, IPv4Address]]
    poll_interval_s: float = 5.0
    #: gap between the two bootstrap samples of a cold link
    cold_sample_gap_s: float = 1.0
    #: local processing charged per node pair during topology assembly
    cpu_per_pair_s: float = 2e-6
    history_len: int = 720

    def __post_init__(self) -> None:
        # built once, not per call: ``gateways`` is configuration
        self._gateway_table = PrefixTable((pair[0], pair) for pair in self.gateways)

    def gateway_for(self, ip: IPv4Address) -> tuple[IPv4Network, IPv4Address] | None:
        return self._gateway_table.match(ip)


@dataclass
class _RouteEntry:
    prefix: IPv4Network
    next_hop: IPv4Address | None  # None = directly attached
    ifindex: int


@dataclass
class _EdgeRec:
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
class _PathRec:
    """Cached discovery result for one host pair."""

    nodes: list[TopoNode]
    edges: list[_EdgeRec]


class SnmpCollector(Collector):
    """See module docstring."""

    def __init__(
        self,
        name: str,
        net: Network,
        world: SnmpWorld,
        source_ip: IPv4Address | str,
        config: SnmpCollectorConfig,
        bridge_collectors: dict[IPv4Network, BridgeCollector] | None = None,
        community: str = "public",
        snmp_cost: SnmpCostModel | None = None,
    ) -> None:
        super().__init__(name, net)
        self.world = world
        self.client = SnmpClient(world, source_ip, community, snmp_cost)
        self.config = config
        self.bridges = dict(bridge_collectors or {})
        # -- caches ----------------------------------------------------
        self._route_tables: dict[str, PrefixTable[_RouteEntry]] = {}
        self._sys_names: dict[str, str] = {}
        self._if_speeds: dict[tuple[str, int], float] = {}
        self._if_macs: dict[tuple[str, int], MacAddress | None] = {}
        self._arp: dict[IPv4Network, dict[str, MacAddress | None]] = {}
        self._paths: dict[tuple[str, str], _PathRec] = {}
        self._unreachable_routers: set[str] = set()
        # -- monitoring ---------------------------------------------------
        self.monitors: dict[MonitorKey, LinkMonitor] = {}
        self._poll_timer = None
        self.polls_done = 0
        #: callbacks run after every polling sweep (streaming predictors)
        self.post_poll_hooks: list = []
        #: attached StreamingPredictionManager, if any (it lives above
        #: this layer, in repro.rps, so its type is not named here)
        self.streaming: Any = None

    # ------------------------------------------------------------------
    # Collector interface
    # ------------------------------------------------------------------

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        """Answer a topology query (latency recorded as a span)."""
        with obs.span("collectors.snmp.topology", collector=self.name):
            return self._topology(request)

    def _topology(self, request: TopologyRequest) -> TopologyResponse:
        """Discover (or replay from cache) the topology spanning the
        requested hosts and annotate it with current dynamics.

        Same-subnet pairs are answered by joining cached host-to-gateway
        paths at their meet point (the "path between a node and the edge
        router" service of §3.1.2) — the optimization the paper credits
        for taming the O(N²) cold-query cost at large N.  Monitors whose
        last sample is older than the polling interval are refreshed
        with one sample per link, so a warm query costs O(links) PDUs.
        """
        self.check_alive()
        self.queries_served += 1
        pdus_before = self.client.pdu_count
        ips = [IPv4Address(s) for s in request.node_ips]
        unresolved: list[str] = []
        anchors: dict[str, str] = {}
        graph = TopologyGraph()
        pairs: list[tuple[IPv4Address, IPv4Address, bool]] = [
            (ips[i], ips[j], False)
            for i in range(len(ips))
            for j in range(i + 1, len(ips))
        ]
        if request.anchor_ip is not None:
            a_ip = IPv4Address(request.anchor_ip)
            pairs.extend((ip, a_ip, True) for ip in ips if ip != a_ip)
            try:
                anchors[request.anchor_ip] = self._sys_name(request.anchor_ip)
            except SnmpError:
                pass
        if len(ips) == 1 and not pairs:
            # single-node query: still resolve the host itself
            try:
                self._add_host_only(graph, ips[0])
            except (SnmpError, TopologyError, QueryError):
                unresolved.append(str(ips[0]))

        recs: list[_PathRec] = []
        for src, dst, dst_is_router in pairs:
            self.net.engine.advance(self.config.cpu_per_pair_s)
            try:
                rec = self._route_pair(src, dst, dst_is_router)
            except (SnmpError, TopologyError, QueryError):
                # the anchor is the site gateway, not a requested node —
                # a failed anchor pair leaves only src uncovered
                failed = (src,) if dst_is_router else (src, dst)
                unresolved.extend(str(ip) for ip in failed)
                continue
            recs.append(rec)

        # Gather monitors: brand-new links need two bootstrap samples,
        # known-but-stale links one refresh sample.
        fresh_keys: set[MonitorKey] = set()
        stale_keys: set[MonitorKey] = set()
        if request.include_dynamics:
            seen_keys: set[MonitorKey] = set()
            for rec in recs:
                for er in rec.edges:
                    key = er.key
                    if key is None or key in seen_keys:
                        continue
                    seen_keys.add(key)
                    mon = self.monitors.get(key)
                    if mon is None:
                        self.monitors[key] = LinkMonitor(key, self.config.history_len)
                        fresh_keys.add(key)
                    elif (
                        not mon.samples
                        or self.net.now - mon.samples[-1][0]
                        > self.config.poll_interval_s
                    ):
                        stale_keys.add(key)
            if fresh_keys:
                self._bootstrap_monitors(fresh_keys)
            if stale_keys:
                self._sample_monitors(stale_keys)

        # Assemble the response graph, deduplicating shared node and
        # edge record objects (root paths are shared across pair joins,
        # so identity covers most repeats).
        seen_edges: set[int] = set()
        seen_nodes: set[int] = set()
        data_age_s = 0.0
        for rec in recs:
            for node in rec.nodes:
                if id(node) in seen_nodes:
                    continue
                seen_nodes.add(id(node))
                graph.add_node(node)
            for er in rec.edges:
                if id(er) in seen_edges:
                    continue
                seen_edges.add(id(er))
                util_ab = util_ba = jitter = 0.0
                if request.include_dynamics and er.key is not None:
                    mon = self.monitors.get(er.key)
                    if mon is not None and mon.ready:
                        in_bps, out_bps = mon.rates_bps()
                        # out-octets leave the owner's device
                        if er.owner_id == er.a:
                            util_ab, util_ba = out_bps, in_bps
                        else:
                            util_ab, util_ba = in_bps, out_bps
                        jitter = mon.jitter_estimate(er.capacity_bps, er.latency_s)
                        data_age_s = max(
                            data_age_s, self.net.now - mon.samples[-1][0]
                        )
                graph.add_edge(
                    TopoEdge(
                        er.a, er.b, er.capacity_bps, util_ab, util_ba,
                        er.latency_s, jitter,
                    )
                )
        # a host that failed one pair may have resolved through another
        unresolved = tuple(
            ip for ip in dict.fromkeys(unresolved) if not graph.has_node(ip)
        )
        return TopologyResponse(
            graph=graph,
            unresolved=unresolved,
            pdu_cost=self.client.pdu_count - pdus_before,
            anchors=anchors,
            status=self._status_of(request, unresolved, data_age_s),
            data_age_s=data_age_s,
        )

    def _status_of(
        self,
        request: TopologyRequest,
        unresolved: tuple[str, ...],
        data_age_s: float,
    ) -> QueryStatus:
        """Fragment quality: FAILED when nothing resolved, PARTIAL when
        some hosts dropped out, STALE when the served dynamics are
        meaningfully older than one polling interval."""
        missed = set(unresolved) & set(request.node_ips)
        if missed:
            if len(missed) == len(request.node_ips):
                return QueryStatus.FAILED
            return QueryStatus.PARTIAL
        if data_age_s > 1.5 * self.config.poll_interval_s:
            return QueryStatus.STALE
        return QueryStatus.OK

    def _route_pair(
        self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool
    ) -> _PathRec:
        """Path record for one pair, via the cheapest applicable route."""
        if dst_is_router:
            return self._path_record(src, dst, dst_is_router=True)
        src_loc = self.config.gateway_for(src)
        dst_loc = self.config.gateway_for(dst)
        if (
            src_loc is not None
            and dst_loc is not None
            and src_loc[0] == dst_loc[0]
            and src_loc[1] == dst_loc[1]
        ):
            return self._join_same_subnet(src, dst, src_loc[1])
        return self._path_record(src, dst)

    def _join_same_subnet(
        self, src: IPv4Address, dst: IPv4Address, gateway: IPv4Address
    ) -> _PathRec:
        """Join two cached host-to-gateway paths at their meet point.

        Only the per-host root paths are cached (O(hosts) memory); the
        joined pair path is rebuilt per query, sharing the underlying
        edge records so monitors and graph assembly deduplicate.
        """
        rec_a = self._path_record(src, gateway, dst_is_router=True)
        rec_b = self._path_record(dst, gateway, dst_is_router=True)
        na, nb = rec_a.nodes, rec_b.nodes
        i, j = len(na) - 1, len(nb) - 1
        while i > 0 and j > 0 and na[i - 1].id == nb[j - 1].id:
            i -= 1
            j -= 1
        nodes = na[: i + 1] + nb[:j][::-1]
        edges = rec_a.edges[:i] + rec_b.edges[:j][::-1]
        return _PathRec(nodes, edges)

    def history(self, request: HistoryRequest) -> HistoryResponse | None:
        """Utilization history of a discovered edge.

        The series is the per-polling-interval counter rate in the
        requested direction — what the paper's planned XML protocol
        ships to the RPS subsystem for prediction.
        """
        with obs.span("collectors.snmp.history", collector=self.name):
            self.check_alive()
            return self._history(request)

    def _history(self, request: HistoryRequest) -> HistoryResponse | None:
        for key, direction in self.edge_monitors(request):
            mon = self.monitors.get(key)
            if mon is None or not mon.ready:
                continue
            times, rates = mon.rate_history(direction)
            if times.size == 0:
                continue
            n = min(request.max_samples, times.size)
            return HistoryResponse(
                "utilization",
                tuple(float(t) for t in times[-n:]),
                tuple(float(r) for r in rates[-n:]),
            )
        return None

    def edge_monitors(self, request: HistoryRequest) -> Iterator[tuple[MonitorKey, str]]:
        """Where the counters of the requested edge are polled: the
        monitor key of every discovered link between its two ends, and
        the counter direction (``"out"`` / ``"in"``) that carries the
        traffic ``edge_a -> edge_b`` on the monitored interface."""
        ends = {request.edge_a, request.edge_b}
        for rec in self._paths.values():
            for er in rec.edges:
                if er.key is not None and {er.a, er.b} == ends:
                    yield er.key, "out" if er.owner_id == request.edge_a else "in"

    # ------------------------------------------------------------------
    # Cache control (experiment support)
    # ------------------------------------------------------------------

    def flush_caches(self, keep_fraction: float = 0.0) -> None:
        """Drop cached discovery state.

        ``keep_fraction`` keeps the first fraction of cached path
        records — the paper's "Mixed" scenario where the previous query
        left roughly 1/2 or 1/3 of the data cached.
        """
        obs.counter("collectors.snmp.cache_flush", collector=self.name).inc()
        log.debug(
            "%s: flushing caches (keep_fraction=%.2f, %d paths)",
            self.name, keep_fraction, len(self._paths),
        )
        if keep_fraction <= 0.0:
            self._paths.clear()
            self._route_tables.clear()
            self._arp.clear()
            self._if_speeds.clear()
            self._if_macs.clear()
            self._sys_names.clear()
            self.monitors.clear()
        else:
            items = sorted(self._paths.items())
            keep = int(len(items) * keep_fraction)
            self._paths = dict(items[:keep])
            kept_keys = {
                er.key for _, rec in items[:keep] for er in rec.edges if er.key
            }
            self.monitors = {
                k: m for k, m in self.monitors.items() if k in kept_keys
            }
            # Fine-grained caches follow the kept records, so the
            # dropped fraction genuinely pays rediscovery again.
            kept_srcs = {src for (src, _dst) in self._paths}
            self._arp = {
                subnet: {ip: mac for ip, mac in table.items() if ip in kept_srcs}
                for subnet, table in self._arp.items()
            }
            kept_pairs = {(k.agent_ip, k.ifindex) for k in kept_keys}
            self._if_speeds = {
                k: v for k, v in self._if_speeds.items() if k in kept_pairs
            }
            self._if_macs = {
                k: v for k, v in self._if_macs.items() if k in kept_pairs
            }

    def flush_dynamics(self) -> None:
        """Drop all counter history but keep discovered topology.

        The Fig. 3 "Warm-Bridge" scenario: static structure is cached
        (the bridge database did not change) but every link's dynamic
        data must be re-bootstrapped.
        """
        self.monitors.clear()

    # ------------------------------------------------------------------
    # Periodic polling
    # ------------------------------------------------------------------

    def start_monitoring(self) -> None:
        """Begin periodic polling of every monitored link."""
        if self._poll_timer is None:
            self._poll_timer = self.net.engine.every(
                self.config.poll_interval_s, self.poll_once
            )

    def stop_monitoring(self) -> None:
        if self._poll_timer is not None:
            self._poll_timer.cancel()
            self._poll_timer = None

    def poll_once(self) -> None:
        """Sample every monitor once (one polling sweep, batched)."""
        if self.crashed_until is not None and self.net.now < self.crashed_until:
            return  # a crashed collector's poller is down with it
        with obs.span("collectors.snmp.poll", collector=self.name):
            self._sample_monitors(self.monitors)
            self.polls_done += 1
            for hook in self.post_poll_hooks:
                hook()
        obs.counter("collectors.snmp.polls", collector=self.name).inc()
        obs.gauge("collectors.snmp.monitored_links", collector=self.name).set(
            len(self.monitors)
        )
        obs.gauge("collectors.snmp.poll.staleness_s", collector=self.name).set(
            self.staleness_s()
        )

    def staleness_s(self) -> float:
        """Age of the oldest monitor's newest sample (0 when idle).

        The paper's polling-staleness concern: how out-of-date is the
        most neglected link's dynamic data right now?
        """
        now = self.net.now
        ages = [
            now - mon.samples[-1][0]
            for mon in self.monitors.values()
            if mon.samples
        ]
        return max(ages) if ages else 0.0

    def supports_forecast(self) -> bool:
        """Whether :meth:`forecast_edge` could answer at all (lets the
        Master skip the RPC when there is no streaming predictor)."""
        return self.streaming is not None

    def forecast_edge(self, request: HistoryRequest, horizon: int) -> ForecastSeries | None:
        """Streaming forecast for an edge, if a prediction manager is
        attached and has seen enough samples (None otherwise).  Refused
        while crashed, like :meth:`history`: a dead collector's last
        samples are not a measurement."""
        self.check_alive()
        if self.streaming is None:
            return None
        return self.streaming.forecast_edge(request, horizon)

    def _sample_monitors(self, keys) -> None:
        """Sample the given monitors, one multi-varbind GET per agent.

        All links behind one agent coalesce into a single PDU per
        sweep (one round-trip for 2N counters) instead of one PDU per
        link.  A dead or refusing agent fails all of its monitors at
        the cost of one timeout; any other SNMP error (e.g. an
        interface that vanished after a MIB refresh) falls back to
        per-link sampling so one bad OID cannot starve its neighbours.
        """
        by_agent: dict[str, list[MonitorKey]] = defaultdict(list)
        for key in keys:
            by_agent[key.agent_ip].append(key)
        for agent_ip in sorted(by_agent):
            group = sorted(by_agent[agent_ip], key=lambda k: k.ifindex)
            obs.histogram("collectors.snmp.poll.batch_links").observe(len(group))
            oids = [
                oid
                for k in group
                for oid in (O.IF_IN_OCTETS + k.ifindex, O.IF_OUT_OCTETS + k.ifindex)
            ]
            try:
                values = self.client.get_many(agent_ip, oids)
            except (AgentUnreachableError, AuthorizationError):
                for k in group:
                    self.monitors[k].sample_failures += 1
                continue
            except SnmpError:
                for k in group:
                    self.monitors[k].sample(self.client, self.net.now)
                continue
            now = self.net.now
            for k, inb, outb in zip(group, values[0::2], values[1::2]):
                self.monitors[k].record(now, float(inb), float(outb))

    def _bootstrap_monitors(self, keys: set[MonitorKey]) -> None:
        """Cold links need two samples before they can report a rate."""
        obs.counter("collectors.snmp.monitors_bootstrapped").inc(len(keys))
        self._sample_monitors(keys)
        self.net.engine.advance(self.config.cold_sample_gap_s)
        self._sample_monitors(keys)

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------

    def _route_table(self, router_ip: str) -> PrefixTable[_RouteEntry]:
        """The router's full table, walked once and cached.

        Prefers the RFC 2096 ipCidrRouteTable (its index carries the
        mask, so overlapping prefixes survive); falls back to the
        classic ipRouteTable for old agents that never implemented it —
        the §6.2 "non-standard SNMP implementations" reality.
        """
        if router_ip in self._route_tables:
            obs.counter("collectors.snmp.route_cache", result="hit").inc()
            return self._route_tables[router_ip]
        if router_ip in self._unreachable_routers:
            raise QueryError(f"router {router_ip} known unreachable")
        obs.counter("collectors.snmp.route_cache", result="miss").inc()
        try:
            entries = self._walk_cidr_routes(router_ip)
            if not entries:
                entries = self._walk_legacy_routes(router_ip)
        except SnmpError:
            self._unreachable_routers.add(router_ip)
            log.debug("router %s unreachable during route walk", router_ip)
            raise
        table = self._route_tables[router_ip] = PrefixTable((e.prefix, e) for e in entries)
        return table

    def _walk_cidr_routes(self, router_ip: str) -> list[_RouteEntry]:
        ifidx = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_TYPE)
        entries: list[_RouteEntry] = []
        for suffix, idx in ifidx.items():
            # index = (dest, mask, tos, next hop), four octets each but tos
            try:
                if len(suffix) != 13:
                    raise ValueError(f"ipCidrRouteTable index of {len(suffix)} sub-ids")
                prefix = IPv4Network.from_netmask(
                    IPv4Address.from_octets(suffix[0:4]),
                    IPv4Address.from_octets(suffix[4:8]),
                )
                hop = IPv4Address.from_octets(suffix[9:13])
            except ValueError:
                # malformed row on a buggy agent: the rest still routes
                obs.counter("collectors.snmp.malformed_rows", table="cidr").inc()
                continue
            local = types.get(suffix) == O.CIDR_TYPE_LOCAL
            entries.append(
                _RouteEntry(prefix, None if local else hop, int(idx))
            )
        return entries

    def _walk_legacy_routes(self, router_ip: str) -> list[_RouteEntry]:
        hops = self.client.table_column(router_ip, O.IP_ROUTE_NEXT_HOP)
        masks = self.client.table_column(router_ip, O.IP_ROUTE_MASK)
        ifidx = self.client.table_column(router_ip, O.IP_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_ROUTE_TYPE)
        entries: list[_RouteEntry] = []
        for suffix, hop in hops.items():
            mask = masks.get(suffix)
            idx = ifidx.get(suffix)
            rtype = types.get(suffix)
            if mask is None or idx is None:
                continue
            try:
                prefix = IPv4Network.from_netmask(
                    IPv4Address.from_octets(suffix), IPv4Address(mask)
                )
                next_hop = None if rtype == O.ROUTE_TYPE_DIRECT else IPv4Address(hop)
            except ValueError:
                obs.counter("collectors.snmp.malformed_rows", table="legacy").inc()
                continue
            entries.append(_RouteEntry(prefix, next_hop, int(idx)))
        return entries

    def _lpm(self, router_ip: str, dst: IPv4Address) -> _RouteEntry:
        entry = self._route_table(router_ip).match(dst)
        if entry is None:
            raise QueryError(f"router {router_ip} has no route to {dst}")
        return entry

    def _sys_name(self, agent_ip: str) -> str:
        if agent_ip not in self._sys_names:
            self._sys_names[agent_ip] = str(self.client.get(agent_ip, O.SYS_NAME))
        return self._sys_names[agent_ip]

    def _if_speed(self, agent_ip: str, ifindex: int) -> float:
        key = (agent_ip, ifindex)
        if key not in self._if_speeds:
            self._if_speeds[key] = float(self.client.get(agent_ip, O.IF_SPEED + ifindex))
        return self._if_speeds[key]

    def _if_mac(self, agent_ip: str, ifindex: int) -> MacAddress | None:
        key = (agent_ip, ifindex)
        if key not in self._if_macs:
            try:
                self._if_macs[key] = MacAddress(
                    str(self.client.get(agent_ip, O.IF_PHYS_ADDRESS + ifindex))
                )
            except (SnmpError, ValueError):
                self._if_macs[key] = None
        return self._if_macs[key]

    def _station_mac(
        self, subnet: IPv4Network, gateway_ip: IPv4Address, ip: IPv4Address
    ) -> MacAddress | None:
        """One host's MAC from the gateway's ARP row (exact GET, cached).

        ipNetToMediaPhysAddress is indexed by (ifIndex, IP), and the
        collector already knows the gateway's interface on the subnet
        from its route table, so resolution is a single PDU per host.
        """
        cache = self._arp.setdefault(subnet, {})
        key = str(ip)
        if key not in cache:
            try:
                ifindex = self._iface_on_subnet(str(gateway_ip), subnet)
                mac_str = self.client.get(
                    str(gateway_ip),
                    O.IP_NET_TO_MEDIA_PHYS_ADDRESS + (ifindex,) + ip.octets(),
                )
                cache[key] = MacAddress(str(mac_str))
            except (SnmpError, ValueError, QueryError):
                cache[key] = None
        return cache[key]

    # ------------------------------------------------------------------
    # Path assembly
    # ------------------------------------------------------------------

    def _add_host_only(self, graph: TopologyGraph, ip: IPv4Address) -> None:
        loc = self.config.gateway_for(ip)
        if loc is None:
            raise UnknownHostError(str(ip))
        graph.add_node(TopoNode(str(ip), HOST, (str(ip),)))

    def _path_record(
        self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool = False
    ) -> _PathRec:
        cache_key = (str(src), str(dst))
        rev_key = (str(dst), str(src))
        if cache_key in self._paths:
            obs.counter("collectors.snmp.path_cache", result="hit").inc()
            return self._paths[cache_key]
        if not dst_is_router and rev_key in self._paths:
            obs.counter("collectors.snmp.path_cache", result="hit").inc()
            return self._paths[rev_key]
        obs.counter("collectors.snmp.path_cache", result="miss").inc()
        rec = self._discover(src, dst, dst_is_router)
        self._paths[cache_key] = rec
        return rec

    def _discover(
        self, src: IPv4Address, dst: IPv4Address, dst_is_router: bool = False
    ) -> _PathRec:
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
        edges: list[_EdgeRec] = []

        src_subnet, src_gw = src_loc

        if not dst_is_router and dst in src_subnet:
            # Same subnet: pure L2 path.
            self._expand_l2(
                nodes, edges, src_subnet, src_gw,
                a_id=str(src), a_mac=self._station_mac(src_subnet, src_gw, src),
                b_id=str(dst), b_mac=self._station_mac(src_subnet, src_gw, dst),
            )
            nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
            return _PathRec(nodes, edges)

        # First hop: src -> its gateway across the source subnet.
        gw_ip = str(src_gw)
        gw_name = self._sys_name(gw_ip)
        gw_entry_iface = self._iface_on_subnet(gw_ip, src_subnet)
        self._expand_l2(
            nodes, edges, src_subnet, src_gw,
            a_id=str(src), a_mac=self._station_mac(src_subnet, src_gw, src),
            b_id=gw_name, b_mac=self._if_mac(gw_ip, gw_entry_iface),
            b_agent=gw_ip, b_ifindex=gw_entry_iface,
        )
        nodes.append(TopoNode(gw_name, ROUTER, (gw_ip,)))

        # Where the walk ends: at the router named ``target_name``, or
        # (None, a host) at the router its subnet is attached to.
        target_name: str | None = None
        if dst_is_router:
            target_name = gw_name if dst == src_gw else self._sys_name(str(dst))
            if target_name == gw_name:
                return _PathRec(nodes, edges)

        current_ip = gw_ip
        current_name = gw_name
        for _ in range(MAX_L3_HOPS):
            entry = self._lpm(current_ip, dst)
            out_idx = entry.ifindex
            cap = self._if_speed(current_ip, out_idx)
            if entry.next_hop is None and target_name is None:
                # Directly attached destination subnet: final L2 leg.
                self._expand_l2(
                    nodes, edges, entry.prefix, IPv4Address(current_ip),
                    a_id=current_name, a_mac=self._if_mac(current_ip, out_idx),
                    b_id=str(dst), b_mac=self._station_mac(entry.prefix, IPv4Address(current_ip), dst),
                    a_agent=current_ip, a_ifindex=out_idx,
                )
                nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
                return _PathRec(nodes, edges)
            hop_ip = str(dst if entry.next_hop is None else entry.next_hop)
            try:
                hop_name = self._sys_name(hop_ip)
            except SnmpError:
                if target_name is not None:
                    raise
                # Inaccessible router: virtual switch stands in for
                # everything beyond, as the paper prescribes.
                vsw = f"vsw:{hop_ip}"
                nodes.append(TopoNode(vsw, VSWITCH))
                nodes.append(TopoNode(str(dst), HOST, (str(dst),)))
                edges.append(
                    _EdgeRec(current_name, vsw, MonitorKey(current_ip, out_idx),
                             current_name, cap)
                )
                edges.append(_EdgeRec(vsw, str(dst), None, vsw, math.inf))
                return _PathRec(nodes, edges)
            nodes.append(TopoNode(hop_name, ROUTER, (hop_ip,)))
            edges.append(
                _EdgeRec(current_name, hop_name, MonitorKey(current_ip, out_idx),
                         current_name, cap)
            )
            if hop_name == target_name:
                return _PathRec(nodes, edges)
            current_ip, current_name = hop_ip, hop_name
        raise QueryError(f"routing loop discovering {src} -> {dst}")

    def _iface_on_subnet(self, router_ip: str, subnet: IPv4Network) -> int:
        """The router's ifIndex on a directly attached subnet."""
        for e in self._route_table(router_ip):
            if e.next_hop is None and e.prefix == subnet:
                return e.ifindex
        raise QueryError(f"router {router_ip} not attached to {subnet}")

    # ------------------------------------------------------------------
    # L2 expansion
    # ------------------------------------------------------------------

    def _bridge_for(self, subnet: IPv4Network) -> BridgeCollector | None:
        best: tuple[int, BridgeCollector] | None = None
        for net_, bc in self.bridges.items():
            if net_.overlaps(subnet) and (best is None or net_.prefixlen > best[0]):
                best = (net_.prefixlen, bc)
        return best[1] if best else None

    def _expand_l2(
        self,
        nodes: list[TopoNode],
        edges: list[_EdgeRec],
        subnet: IPv4Network,
        gateway: IPv4Address,
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
                self._expand_via_bridge(nodes, edges, bridge, a_id, a_mac, b_id, b_mac,
                                        a_agent, a_ifindex)
                return
            except (TopologyError, SnmpError):
                pass  # fall through to virtual representation
        if subnet.prefixlen >= 30:
            # Point-to-point link: direct edge, polled at whichever
            # router side we can.
            key = None
            owner = a_id
            cap = math.inf
            if a_agent is not None and a_ifindex is not None:
                key = MonitorKey(a_agent, a_ifindex)
                cap = self._if_speed(a_agent, a_ifindex)
            elif b_agent is not None and b_ifindex is not None:
                key = MonitorKey(b_agent, b_ifindex)
                owner = b_id
                cap = self._if_speed(b_agent, b_ifindex)
            edges.append(_EdgeRec(a_id, b_id, key, owner, cap))
            return
        # Opaque multi-access subnet: one virtual switch.
        vsw = f"vsw:{subnet}"
        nodes.append(TopoNode(vsw, VSWITCH))
        key_a = MonitorKey(a_agent, a_ifindex) if a_agent and a_ifindex else None
        cap_a = self._if_speed(a_agent, a_ifindex) if key_a else math.inf
        key_b = MonitorKey(b_agent, b_ifindex) if b_agent and b_ifindex else None
        cap_b = self._if_speed(b_agent, b_ifindex) if key_b else math.inf
        edges.append(_EdgeRec(a_id, vsw, key_a, a_id, cap_a))
        edges.append(_EdgeRec(vsw, b_id, key_b, b_id, cap_b))

    def _expand_via_bridge(
        self,
        nodes: list[TopoNode],
        edges: list[_EdgeRec],
        bridge: BridgeCollector,
        a_id: str,
        a_mac: MacAddress,
        b_id: str,
        b_mac: MacAddress,
        a_agent: str | None,
        a_ifindex: int | None,
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
                agent_ip, port, owner = info
                key = MonitorKey(agent_ip, port)
                cap = self._if_speed(agent_ip, port)
                edges.append(_EdgeRec(xid, yid, key, owner, cap))
            else:
                edges.append(_EdgeRec(xid, yid, None, xid, math.inf))

    @staticmethod
    def _port_toward(db, switch_name: str, neighbor: tuple) -> int | None:
        """The switch's ifIndex on its graph edge toward ``neighbor``."""
        try:
            return db.graph.edges[("sw", switch_name), neighbor].get("port")
        except KeyError:
            return None
