"""Master Collector: query partitioning, delegation, and merging.

The Modeler submits one query; the Master identifies which networks —
and therefore which collectors — are involved, splits the query,
gathers the fragments, and returns a single merged topology "without
revealing that the response was obtained from multiple collectors"
(paper §2.1, §3.1.4).

* Every queried address is mapped to a registration in the
  :class:`~repro.collectors.directory.CollectorDirectory` (the SLP-like
  database).
* A site's fragment is requested from its topology collector with the
  site's border router as *anchor*, so the fragment reaches the site
  edge.
* Cross-site connectivity comes from Benchmark Collector measurements:
  each site pair the request asks about — every involved pair, unless
  the request names the host ``pairs`` it will read — contributes one
  logical edge between the two border routers whose capacity is the
  measured end-to-end throughput.
* Masters are themselves collectors, so they stack: a remote "Master"
  registered here answers for its whole site mesh (the paper's
  master-of-masters arrangement).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Iterator
from typing import Any

from repro import obs
from repro.common.errors import (
    CollectorTimeoutError,
    QueryError,
    RemosError,
    UnknownHostError,
)
from repro.common.status import QueryStatus, SiteStatus, combine
from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.topology import Network
from repro.collectors.base import (
    Collector,
    HistoryRequest,
    HistoryResponse,
    PairMeasurement,
    RpcCostModel,
    TopologyRequest,
    TopologyResponse,
)
from repro.collectors.directory import CollectorDirectory, Registration
from repro.modeler.graph import TopoEdge, TopoNode, TopologyGraph

log = obs.get_logger(__name__)

#: a registration's identity for survival state: (site, collector
#: name) — stable across re-registration, unlike ``id(reg)``, which the
#: allocator may hand to a later, unrelated Registration
RegKey = tuple[str, str]
#: last-known-good fragment cache shapes (see MasterCollector._lkg)
LkgKey = tuple[RegKey, tuple[str, ...]]
LkgEntry = tuple[TopologyGraph, float, dict[str, str], tuple[str, ...]]
#: (values, variances) series pair from a streaming predictor
ForecastSeries = tuple[Any, Any]


def _reg_key(reg: Registration) -> RegKey:
    return (reg.site, reg.collector.name)


class MasterCollector(Collector):
    """See module docstring."""

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        #: site border anchors: site -> border router address
        borders: dict[str, IPv4Address] | None = None,
        rpc_cost: RpcCostModel | None = None,
    ) -> None:
        super().__init__(name, net)
        self.directory = directory
        self.borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
        self.rpc = rpc_cost or RpcCostModel()
        #: anchor node id -> site, learned from past stitched queries,
        #: so history requests can recognise logical WAN edges
        self._anchor_sites: dict[str, str] = {}
        #: registration key -> sim time until which it is quarantined
        #: (delegation failed recently; skip it, re-probe after)
        self._quarantine: dict[RegKey, float] = {}
        #: last-known-good fragments: (registration key, requested ips) ->
        #: (graph copy, fetched_at, anchors, unresolved) — served,
        #: marked STALE, when a site stops answering
        self._lkg: dict[LkgKey, LkgEntry] = {}

    def covers(self, ip: IPv4Address) -> bool:
        try:
            self.directory.lookup(ip)
            return True
        except UnknownHostError:
            return False

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        """Answer a query (partition / delegate / merge, as a span)."""
        self.check_alive()
        with obs.span("collectors.master.topology", collector=self.name):
            return self._topology(request)

    def iter_masters(self) -> Iterator[MasterCollector]:
        """This master plus any subordinate masters (sharded planes)."""
        yield self

    def invalidate_sites(self, sites: Iterable[str] | None = None) -> None:
        """Drop survival state (LKG fragments, quarantine marks) for the
        named sites — e.g. after a known topology change — or all state
        when ``sites`` is None.  The next query re-probes live."""
        if sites is None:
            dropped = len(self._lkg)
            self._lkg.clear()
            self._quarantine.clear()
        else:
            wanted = set(sites)
            doomed = [k for k in self._lkg if k[0][0] in wanted]
            for key in doomed:
                del self._lkg[key]
            for rkey in [r for r in self._quarantine if r[0] in wanted]:
                del self._quarantine[rkey]
            dropped = len(doomed)
        if dropped:
            obs.counter("collectors.master.lkg_invalidated").inc(dropped)

    def health(self) -> dict[str, object]:
        """Backend-health snapshot for the service plane (``/v1/health``).

        Reports how much of the directory is currently answering: sites
        registered, registrations under quarantine right now, and
        last-known-good fragments held for sites that stopped
        answering.  The sharded plane extends this with per-shard
        detail.
        """
        now = float(self.net.engine.now)
        quarantined = sum(1 for until in self._quarantine.values() if until > now)
        return {
            "kind": "master",
            "name": self.name,
            "sites": len({reg.site for reg in self.directory.registrations()}),
            "quarantined": quarantined,
            "lkg_fragments": len(self._lkg),
        }

    def _topology(self, request: TopologyRequest) -> TopologyResponse:
        self.queries_served += 1
        # 1. Partition addresses by responsible registration.
        groups: dict[int, list[str]] = defaultdict(list)
        regs: dict[int, Registration] = {}
        site_of: dict[str, str] = {}
        unresolved: list[str] = []
        for ip_s in request.node_ips:
            try:
                reg = self.directory.lookup(ip_s)
            except UnknownHostError:
                unresolved.append(ip_s)
                continue
            groups[id(reg)].append(ip_s)
            regs[id(reg)] = reg
            site_of[ip_s] = reg.site

        obs.histogram("collectors.master.fanout").observe(len(groups))
        if unresolved:
            obs.counter("collectors.master.unresolved_ips").inc(len(unresolved))
        log.debug(
            "%s: partitioned %d addresses into %d site groups (%d unresolved)",
            self.name, len(request.node_ips), len(groups), len(unresolved),
        )

        merged = TopologyGraph()
        anchors: dict[str, str] = {}
        site_anchor_node: dict[str, str] = {}
        site_status: dict[str, SiteStatus] = {}
        pdu_cost = 0
        merge_wall_s = 0.0
        data_age_s = 0.0
        multi_site = len(groups) > 1 or request.anchor_sites

        # 2. Delegate each group to its collector.  Fragments go out
        # concurrently: the master pays a small serial dispatch cost per
        # fragment, then the makespan of the sub-queries on
        # ``rpc.max_parallel`` workers rather than their sum.  Each
        # delegation survives its collector: deadline, bounded retries,
        # quarantine of repeat offenders, and a None result instead of
        # an escaped exception (partial-merge semantics).
        order = sorted(groups, key=lambda k: regs[k].site)
        group_anchor: dict[int, str | None] = {}
        subs: dict[int, TopologyResponse | None] = {}
        # NB: the per-fragment dispatch cost is charged *after* the
        # fan-out (on the reply path), not before.  Charging it first
        # would shift every sub-collector's measurement instant by
        # ``dispatch_s * len(order)`` — a query-width-dependent skew
        # that makes counter windows (and thus utilization floats)
        # differ between delegation topologies serving the same query.
        # Totals are identical either way; measurement times are not.
        with self.net.engine.overlap(self.rpc.max_parallel) as ov:
            for key in order:
                reg = regs[key]
                anchor = None
                if multi_site and reg.site in self.borders:
                    anchor = str(self.borders[reg.site])
                group_anchor[key] = anchor
                with ov.task():
                    # one span per fragment delegation, labelled with
                    # the site so trace attribution can answer "which
                    # site consumed the budget"; parentage survives the
                    # overlap rewind because it is captured by span id,
                    # not reconstructed from timestamps
                    with obs.span("collectors.master.delegate", site=reg.site):
                        subs[key], site_status[reg.site] = self._delegate(
                            reg, groups[key], anchor, request
                        )
        self.net.engine.advance(self.rpc.dispatch_s * len(order))
        obs.histogram("collectors.master.overlap_saved_s").observe(ov.saved_s)

        for key in order:
            reg = regs[key]
            sub = subs[key]
            anchor = group_anchor[key]
            if sub is None:
                # delegation failed outright: the site's addresses drop
                # out of the answer, the rest of the query proceeds
                unresolved.extend(groups[key])
                continue
            t0 = obs.wall_now()
            merged.merge(sub.graph)
            merge_wall_s += obs.wall_now() - t0
            unresolved.extend(sub.unresolved)
            pdu_cost += sub.pdu_cost
            anchors.update(sub.anchors)
            data_age_s = max(data_age_s, sub.data_age_s)
            if anchor is not None and anchor in sub.anchors:
                site_anchor_node[reg.site] = sub.anchors[anchor]
                self._anchor_sites[sub.anchors[anchor]] = reg.site

        # 3. Stitch sites together with benchmark measurements (unless
        # a delegating master above claimed the stitching for itself).
        wan_age_s = 0.0
        if multi_site and request.stitch:
            wan_age_s = self._stitch(
                merged,
                site_anchor_node,
                self._wanted_site_pairs(request, site_of, site_anchor_node),
            )

        obs.histogram("collectors.master.merge_wall_s").observe(merge_wall_s)
        return self._respond(
            request, merged, unresolved, pdu_cost, anchors, site_status,
            data_age_s, wan_age_s,
        )

    def _respond(
        self,
        request: TopologyRequest,
        merged: TopologyGraph,
        unresolved: list[str],
        pdu_cost: int,
        anchors: dict[str, str],
        site_status: dict[str, SiteStatus],
        data_age_s: float,
        wan_age_s: float,
    ) -> TopologyResponse:
        """The merged response and its answer-level status: the site
        statuses combined, STALE at best when a WAN edge was built from
        a measurement past its TTL (``wan_age_s``, see :meth:`_stitch`),
        PARTIAL/FAILED when requested hosts dropped out."""
        obs.histogram("collectors.master.query_pdus").observe(pdu_cost)
        unresolved_t = tuple(dict.fromkeys(unresolved))
        status = combine(s.status for s in site_status.values())
        if wan_age_s > 0:
            status = combine([status, QueryStatus.STALE])
        missed = set(unresolved_t) & set(request.node_ips)
        if missed:
            if len(missed) == len(request.node_ips):
                status = QueryStatus.FAILED
            else:
                status = combine([status, QueryStatus.PARTIAL])
        return TopologyResponse(
            graph=merged,
            unresolved=unresolved_t,
            pdu_cost=pdu_cost,
            anchors=anchors,
            status=status,
            site_status=site_status,
            data_age_s=max(data_age_s, wan_age_s),
        )

    # -- delegation survival -------------------------------------------

    def _survival_on(self) -> bool:
        """Is any survival machinery armed?  When not (the default),
        delegation must behave — and cost — exactly as it always has."""
        return (
            self.rpc.fragment_timeout_s > 0
            or self.rpc.fragment_retries > 0
            or self.rpc.quarantine_s > 0
            or getattr(self.net, "faults", None) is not None
        )

    def _delegate(
        self,
        reg: Registration,
        ips: list[str],
        anchor: str | None,
        request: TopologyRequest,
    ) -> tuple[TopologyResponse | None, SiteStatus]:
        """One fragment delegation, with deadline / retries / quarantine.

        Returns ``(response, site status)``; the response is None when
        the collector could not answer and no last-known-good fragment
        exists — the caller merges what it got (partial semantics)
        instead of aborting the whole query.
        """
        engine = self.net.engine
        sub_request = TopologyRequest(
            tuple(ips),
            include_dynamics=request.include_dynamics,
            anchor_ip=anchor,
            pairs=request.pairs,
        )
        survival = self._survival_on()
        until = self._quarantine.get(_reg_key(reg), 0.0)
        if survival and engine.now < until:
            # known-dead collector: fail fast without an RPC, re-probe
            # only once the quarantine lapses
            obs.counter("collectors.master.quarantine_skips").inc()
            stat = SiteStatus(
                reg.site, QueryStatus.FAILED, detail="quarantined", attempts=0
            )
            return self._serve_lkg(reg, ips, stat)

        deadline = self.rpc.fragment_timeout_s
        attempts = 1 + (self.rpc.fragment_retries if survival else 0)
        last_err: Exception | None = None
        for attempt in range(attempts):
            if attempt > 0:
                obs.counter("collectors.master.fragment_retries").inc()
                engine.advance(self.rpc.fragment_backoff_s)
            t0 = engine.now
            engine.advance(self.rpc.remote_s if reg.remote else self.rpc.local_s)
            try:
                sub = reg.collector.topology(sub_request)
            except RemosError as exc:
                if deadline > 0:
                    # the master stopped waiting at the deadline even
                    # if the collector burned longer before failing
                    engine.cap_since(t0, deadline)
                last_err = exc
                continue
            except Exception as exc:  # collector bug: contain, don't abort
                log.warning("%s: collector %s raised %r", self.name, reg.collector, exc)
                last_err = exc
                continue
            if deadline > 0 and engine.cap_since(t0, deadline):
                # answer arrived after the master gave up: discard it
                obs.counter("master.fragment_timeouts").inc()
                last_err = CollectorTimeoutError(
                    f"fragment for site {reg.site} exceeded {deadline}s deadline"
                )
                continue
            if survival:
                self._lkg[(_reg_key(reg), tuple(sorted(ips)))] = (
                    sub.graph.copy(),
                    engine.now,
                    dict(sub.anchors),
                    tuple(sub.unresolved),
                )
            self._quarantine.pop(_reg_key(reg), None)
            return sub, SiteStatus(
                reg.site, sub.status,
                data_age_s=sub.data_age_s, attempts=attempt + 1,
            )

        if survival and self.rpc.quarantine_s > 0:
            self._quarantine[_reg_key(reg)] = engine.now + self.rpc.quarantine_s
        if isinstance(last_err, RemosError):
            detail = str(last_err)
        else:
            detail = f"collector error: {last_err!r}"
        log.debug("%s: site %s failed after %d attempts: %s",
                  self.name, reg.site, attempts, detail)
        stat = SiteStatus(
            reg.site, QueryStatus.FAILED, detail=detail, attempts=attempts
        )
        return self._serve_lkg(reg, ips, stat)

    def _serve_lkg(
        self, reg: Registration, ips: list[str], stat: SiteStatus
    ) -> tuple[TopologyResponse | None, SiteStatus]:
        """Fall back to the site's last-known-good fragment, if any.

        The stored graph is copied on the way out so callers mutating
        the merged answer (own-flow crediting) cannot corrupt the
        cache; status becomes STALE with the fragment's true age.
        """
        entry = self._lkg.get((_reg_key(reg), tuple(sorted(ips))))
        if entry is None:
            return None, stat
        graph, fetched_at, lkg_anchors, lkg_unresolved = entry
        obs.counter("collectors.master.lkg_served").inc()
        age = self.net.now - fetched_at
        stat.status = QueryStatus.STALE
        stat.data_age_s = age
        return (
            TopologyResponse(
                graph=graph.copy(),
                unresolved=lkg_unresolved,
                pdu_cost=0,
                anchors=dict(lkg_anchors),
                status=QueryStatus.STALE,
                data_age_s=age,
            ),
            stat,
        )

    # -- WAN stitching ---------------------------------------------------

    @staticmethod
    def _wanted_site_pairs(
        request: TopologyRequest,
        site_of: dict[str, str],
        site_anchor_node: dict[str, str],
    ) -> list[tuple[str, str]]:
        """The anchored site pairs ``request`` needs stitched, sorted.

        Every pair when the request does not say (``pairs`` is None);
        otherwise the unordered site pairs its host pairs span, through
        the directory lookups the partition step already made.
        """
        every = itertools.combinations(sorted(site_anchor_node), 2)
        if request.pairs is None:
            return list(every)
        asked: set[tuple[str, str]] = set()
        for a_ip, b_ip in request.pairs:
            a_site, b_site = site_of.get(a_ip), site_of.get(b_ip)
            if a_site is not None and b_site is not None:
                asked.add((a_site, b_site) if a_site < b_site else (b_site, a_site))
        return [pair for pair in every if pair in asked]

    def _stitch(
        self,
        merged: TopologyGraph,
        site_anchor_node: dict[str, str],
        wanted: list[tuple[str, str]],
    ) -> float:
        """Join site fragments with one logical WAN edge per wanted pair.

        Probes are real flows that SNMP counters see, so exactly one
        tier runs this (``TopologyRequest.stitch``), serially, in sorted
        pair order, on a monotonic clock.  The clock is read once, here:
        every cached measurement's age is judged at the instant the
        stitch started, so the time its own probes take cannot expire
        the measurements it is about to read.

        Returns the age of the oldest *stale* measurement an edge was
        built from (0.0 when every edge is within its TTL).
        """
        started = self.net.now
        n = len(site_anchor_node)
        skipped = n * (n - 1) // 2 - len(wanted)
        if skipped:
            obs.counter("collectors.master.stitch_pairs", result="skipped").inc(skipped)
        stale_age_s = 0.0
        for a_site, b_site in wanted:
            stale_age_s = max(
                stale_age_s,
                self._add_wan_edge(
                    merged,
                    a_site,
                    site_anchor_node[a_site],
                    b_site,
                    site_anchor_node[b_site],
                    started,
                ),
            )
        return stale_age_s

    def _measure_direction(
        self, src_site: str, dst_site: str, as_of: float
    ) -> PairMeasurement | None:
        """Benchmark measurement src -> dst, if a collector provides it."""
        bench = self.directory.benchmark_for(src_site)
        if bench is None or dst_site not in bench.peers:
            return None
        self.net.engine.advance(self.rpc.local_s)
        try:
            return bench.measurement(dst_site, as_of=as_of)
        except QueryError:
            return None

    def _add_wan_edge(
        self,
        graph: TopologyGraph,
        a_site: str,
        a_node: str,
        b_site: str,
        b_node: str,
        as_of: float,
    ) -> float:
        """One logical edge carrying the measured site-to-site bandwidth.

        Bandwidth is direction-specific (access links are loaded
        asymmetrically), so both directions are measured and encoded as
        directional utilization on the logical edge: the residual seen
        from each end equals that direction's measured throughput.

        Returns the age of the oldest stale measurement used (0.0 when
        both directions are within their TTL, or no edge was built).
        """
        if not graph.has_node(a_node) or not graph.has_node(b_node):
            # Either anchor failed to materialise in the merged graph,
            # so no edge could be attached: skip the measurements (and
            # their RPC cost) outright instead of probing first.
            log.debug("anchor missing for %s--%s, skipping probe", a_site, b_site)
            obs.counter("collectors.master.stitch_pairs", result="skipped").inc()
            return 0.0
        m_ab = self._measure_direction(a_site, b_site, as_of)
        m_ba = self._measure_direction(b_site, a_site, as_of)
        used = [m for m in (m_ab, m_ba) if m is not None]
        if not used:
            log.debug("no benchmark data between %s and %s", a_site, b_site)
            obs.counter("collectors.master.stitch_pairs", result="skipped").inc()
            return 0.0  # no measurement available: sites stay unstitched
        obs.counter("collectors.master.wan_edges").inc()
        probed = any(m.measured_at > as_of for m in used)
        obs.counter(
            "collectors.master.stitch_pairs", result="probed" if probed else "reused"
        ).inc()
        # a direction without a measurement borrows the other's
        ab = (m_ab or used[0]).throughput_bps
        ba = (m_ba or used[0]).throughput_bps
        rtts = [m.rtt_s for m in used if m.rtt_s > 0]
        latency = max(rtts) / 2.0 if rtts else 0.05
        cap = max(ab, ba)
        graph.add_edge(
            TopoEdge(
                a_node,
                b_node,
                capacity_bps=cap,
                util_ab_bps=cap - ab,
                util_ba_bps=cap - ba,
                latency_s=latency,
            )
        )
        return max((self.net.now - m.measured_at for m in used if m.stale), default=0.0)

    def history(self, request: HistoryRequest) -> HistoryResponse | None:
        """Measurement history for an edge: delegate to whichever
        collector monitors it, or serve benchmark history for logical
        WAN edges between site anchors."""
        with obs.span("collectors.master.history", collector=self.name):
            return self._history(request)

    def _history(self, request: HistoryRequest) -> HistoryResponse | None:
        # logical WAN edge between two known site anchors?
        a_site = self._anchor_sites.get(request.edge_a)
        b_site = self._anchor_sites.get(request.edge_b)
        if a_site and b_site and a_site != b_site:
            bench = self.directory.benchmark_for(a_site)
            if bench is not None and b_site in bench.peers:
                self.net.engine.advance(self.rpc.local_s)
                hist = bench.history.get(b_site)
                if hist:
                    n = min(request.max_samples, len(hist))
                    recent = list(hist)[-n:]
                    return HistoryResponse(
                        "available",
                        tuple(m.measured_at for m in recent),
                        tuple(m.throughput_bps for m in recent),
                    )
            return None
        # Fan the scan out: the probes are independent, so charge the
        # overlapped cost of the collectors asked, not their sum.
        found: HistoryResponse | None = None
        with self.net.engine.overlap(self.rpc.max_parallel) as ov:
            for reg in self.directory.registrations():
                with ov.task():
                    self.net.engine.advance(
                        self.rpc.remote_s if reg.remote else self.rpc.local_s
                    )
                    try:
                        found = reg.collector.history(request)
                    except RemosError:
                        found = None  # collector down: ask the others
                if found is not None:
                    break
        return found

    def supports_forecast(self) -> bool:
        """Cheap capability probe: can any downstream collector serve a
        streaming forecast right now?  Costs no simulated time — the
        master knows this from registration state."""
        for reg in self.directory.registrations():
            if getattr(reg.collector, "forecast_edge", None) is None:
                continue
            probe = getattr(reg.collector, "supports_forecast", None)
            if probe is None or probe():
                return True
        return False

    def forecast_edge(
        self, request: HistoryRequest, horizon: int
    ) -> ForecastSeries | None:
        """Streaming forecast from whichever collector predicts the
        edge (the §2.3 shared-prediction path); None when no streaming
        predictor covers it."""
        out: ForecastSeries | None = None
        with self.net.engine.overlap(self.rpc.max_parallel) as ov:
            for reg in self.directory.registrations():
                fn = getattr(reg.collector, "forecast_edge", None)
                if fn is None:
                    continue
                probe = getattr(reg.collector, "supports_forecast", None)
                if probe is not None and not probe():
                    # no streaming predictor behind this registration:
                    # there is no call to make, so charge no RPC
                    continue
                with ov.task():
                    self.net.engine.advance(
                        self.rpc.remote_s if reg.remote else self.rpc.local_s
                    )
                    try:
                        out = fn(request, horizon)
                    except RemosError:
                        out = None  # collector down: ask the others
                if out is not None:
                    break
        return out

    # -- site statistics (Table 1 support) ------------------------------

    def site_bandwidth_stats(self, from_site: str, to_site: str) -> tuple[float, float, int]:
        """(mean, stddev, n) of benchmark history between two sites."""
        bench = self.directory.benchmark_for(from_site)
        if bench is None:
            raise QueryError(f"no benchmark collector at {from_site}")
        return bench.statistics(to_site)
