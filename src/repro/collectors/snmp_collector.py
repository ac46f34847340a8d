"""SNMP Collector: L3 topology discovery and utilization monitoring.

The basic collector the whole system relies on (paper §3.1.1).  On a
query it:

1. **Discovers routes and L2 segments**, or replays them: that job and
   everything it remembers live in :mod:`repro.collectors.discovery`;
   this module asks it for one path record per host pair.
2. **Monitors utilization**: every discovered link joins the periodic
   polling set (default every 5 s) and keeps a counter history; a query
   that needs dynamics on an unmonitored link takes two samples one
   ``cold_sample_gap_s`` apart — part of the cold-query cost in Fig. 3.

All SNMP and CPU costs are charged to the simulation clock, so query
response time is measured the same way the paper measures it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any, cast

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
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.netsim.engine import Timer
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
from repro.collectors.discovery import Discovery, PathRec
from repro.collectors.monitor import LinkMonitor, MonitorKey
from repro.modeler.graph import HOST, TopoEdge, TopoNode, TopologyGraph

log = obs.get_logger(__name__)

#: local processing charged per node pair during topology assembly
CPU_PER_PAIR_S = 2e-6


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
    history_len: int = 720

    def __post_init__(self) -> None:
        # built once, not per call: ``gateways`` is configuration
        self._gateway_table = PrefixTable((pair[0], pair) for pair in self.gateways)

    def gateway_for(self, ip: IPv4Address) -> tuple[IPv4Network, IPv4Address] | None:
        return self._gateway_table.match(ip)


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
        #: static structure, and the only reader of it over SNMP
        self.discovery = Discovery(self.client, config, self.bridges)
        # -- monitoring ---------------------------------------------------
        self.monitors: dict[MonitorKey, LinkMonitor] = {}
        self._poll_timer: Timer | None = None
        self.polls_done = 0
        #: callbacks run after every polling sweep (streaming predictors)
        self.post_poll_hooks: list[Callable[[], None]] = []
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
                anchors[request.anchor_ip] = self.discovery.sys_name(request.anchor_ip)
            except SnmpError:
                pass
        if len(ips) == 1 and not pairs:
            # single-node query: still resolve the host itself
            try:
                self._add_host_only(graph, ips[0])
            except (SnmpError, TopologyError, QueryError):
                unresolved.append(str(ips[0]))

        recs: list[PathRec] = []
        for src, dst, dst_is_router in pairs:
            self.net.engine.advance(CPU_PER_PAIR_S)
            try:
                rec = self.discovery.route_pair(src, dst, dst_is_router)
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
        missing = tuple(ip for ip in dict.fromkeys(unresolved) if not graph.has_node(ip))
        return TopologyResponse(
            graph=graph,
            unresolved=missing,
            pdu_cost=self.client.pdu_count - pdus_before,
            anchors=anchors,
            status=self._status_of(request, missing, data_age_s),
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
        for er in self.discovery.state.edges():
            if er.key is not None and {er.a, er.b} == ends:
                yield er.key, "out" if er.owner_id == request.edge_a else "in"

    # ------------------------------------------------------------------
    # Cache control (experiment support)
    # ------------------------------------------------------------------

    def flush_caches(self, keep_fraction: float = 0.0) -> None:
        """Replace the discovery state by its first ``keep_fraction``
        (default: by an empty one — what a process restart leaves);
        monitors of links no kept path crosses go with it."""
        obs.counter("collectors.snmp.cache_flush", collector=self.name).inc()
        log.debug(
            "%s: flushing caches (keep_fraction=%.2f, %d paths)",
            self.name, keep_fraction, len(self.discovery.state.paths),
        )
        self.discovery.state = state = self.discovery.state.kept(keep_fraction)
        kept_keys = {er.key for er in state.edges()}
        self.monitors = {k: m for k, m in self.monitors.items() if k in kept_keys}

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
        forecast: ForecastSeries | None = self.streaming.forecast_edge(request, horizon)
        return forecast

    def _sample_monitors(self, keys: Iterable[MonitorKey]) -> None:
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
                self.monitors[k].record(now, float(cast(float, inb)), float(cast(float, outb)))

    def _bootstrap_monitors(self, keys: set[MonitorKey]) -> None:
        """Cold links need two samples before they can report a rate."""
        obs.counter("collectors.snmp.monitors_bootstrapped").inc(len(keys))
        self._sample_monitors(keys)
        self.net.engine.advance(self.config.cold_sample_gap_s)
        self._sample_monitors(keys)

    def _add_host_only(self, graph: TopologyGraph, ip: IPv4Address) -> None:
        if self.config.gateway_for(ip) is None:
            raise UnknownHostError(str(ip))
        graph.add_node(TopoNode(str(ip), HOST, (str(ip),)))
