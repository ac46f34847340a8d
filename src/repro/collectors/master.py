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
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TypeVar

from repro import obs
from repro.common.errors import (
    CollectorTimeoutError,
    QueryError,
    RemosError,
    UnknownHostError,
)
from repro.common.status import QueryStatus, SiteStatus, combine
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network
from repro.collectors.base import (
    Collector,
    ForecastSeries,
    HistoryRequest,
    HistoryResponse,
    PairMeasurement,
    RPC_LOCAL_S,
    RPC_REMOTE_S,
    TopologyRequest,
    TopologyResponse,
)
from repro.collectors.directory import CollectorDirectory, Registration
from repro.modeler.graph import TopoEdge, TopologyGraph

log = obs.get_logger(__name__)

#: a registration's identity for grouping and survival state: (site,
#: collector name) — stable across re-registration and across
#: directories that build a fresh ``Registration`` per lookup (SLP),
#: unlike ``id(reg)``, which the allocator may also hand to a later,
#: unrelated Registration
RegKey = tuple[str, str]
#: a delegate's quarantine key: a :data:`RegKey` for a registration,
#: the shard index for a shard
DelegateKey = RegKey | int
#: last-known-good fragment cache shapes (see MasterCollector._lkg): a
#: registration and the addresses asked of it -> (graph, fetched at,
#: anchors, unresolved)
LkgKey = tuple[RegKey, tuple[str, ...]]
LkgEntry = tuple[TopologyGraph, float, dict[str, str], tuple[str, ...]]

#: most last-known-good fragments one Master plane keeps; past it the
#: least recently stored-or-served one is evicted
LKG_MAX_FRAGMENTS = 1024

# The delegation survival policy (§6.2), always on: a delegated fragment
# that overruns FRAGMENT_TIMEOUT_S is abandoned, a failed chain is asked
# FRAGMENT_RETRIES more times after FRAGMENT_BACKOFF_S, and a chain that
# still fails is skipped for QUARANTINE_S before it is probed again.
#: deadline per delegated fragment (sim seconds)
FRAGMENT_TIMEOUT_S = 8.0
#: re-delegations of a chain after a failed or timed-out round
FRAGMENT_RETRIES = 1
#: wait before each re-delegation (charged on the sim clock)
FRAGMENT_BACKOFF_S = 0.1
#: how long a failed chain is skipped before a re-probe
QUARANTINE_S = 30.0

# Fan-out is overlapped (see repro.netsim.engine.Engine.overlap): a
# Master issuing N concurrent sub-queries pays the makespan of their
# latencies on MAX_PARALLEL workers, instead of their sum, plus
# DISPATCH_S per fragment serially (marshalling, socket writes).
#: per-fragment serialization, charged once the fan-out returns (sim seconds)
DISPATCH_S = 0.0001
#: concurrent sub-queries in flight (1 = strictly sequential, 0 = unbounded)
MAX_PARALLEL = 8

_T = TypeVar("_T")


def _reg_key(reg: Registration) -> RegKey:
    return (reg.site, reg.collector.name)


@dataclass(frozen=True)
class Delegate:
    """One unit of a Master's fan-out: part of a request, the chain of
    collectors that can answer it and — as data — everything in which
    delegating to a shard of Masters differs from delegating to a site
    collector (the defaults)."""

    key: DelegateKey
    #: how messages name it ("fragment for site cmu", "shard 3 fragment")
    what: str
    #: label of its delegation span
    label: dict[str, str]
    #: replica chain, tried in order; a registration is a chain of one
    chain: tuple[Collector, ...]
    request: TopologyRequest
    #: the registration fragments the answer is made of, as
    #: last-known-good keys; a registration is its own one part
    parts: tuple[LkgKey, ...]
    #: every site the chain answers for (invalidating one of them
    #: lifts the chain's quarantine)
    owns: tuple[str, ...]
    #: RPC cost of one call to a member of the chain ...
    hop_s: float
    #: ... charged on the reply path instead of before the call
    reply_path_hop: bool = False
    #: the chain is of Masters: per-site statuses are the answer's own
    #: ``site_status``, and the tier below stores the fragments
    passthrough: bool = False
    #: count an exhausted chain under ``collectors.sharded.shard_failures``
    counts_failures: bool = False
    #: ``SiteStatus.detail`` of a delegate skipped under quarantine
    quarantined: str = "quarantined"
    #: what a non-Remos exception from the chain is reported as
    error: str = "collector error"


class MasterCollector(Collector):
    """See module docstring."""

    #: prefix of this tier's own metric and span names
    OBS = "collectors.master"

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        #: site border anchors: site -> border router address
        borders: dict[str, IPv4Address] | None = None,
    ) -> None:
        super().__init__(name, net)
        self.directory = directory
        self.borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
        #: anchor node id -> site, learned from past stitched queries,
        #: so history requests can recognise logical WAN edges
        self._anchor_sites: dict[str, str] = {}
        # Survival state is the plane's: a ShardedMaster hands its own
        # to every Master it is built over (see sharding.ShardedMaster).
        #: delegate key -> (sim time until which it is quarantined —
        #: delegation failed recently; skip it, re-probe after —, the
        #: sites it answers for)
        self._quarantine: dict[DelegateKey, tuple[float, tuple[str, ...]]] = {}
        #: last-known-good registration fragments, least recently
        #: stored-or-served first — served, marked STALE, when a delegate
        #: stops answering
        self._lkg: OrderedDict[LkgKey, LkgEntry] = OrderedDict()
        #: the name the store is gauged under: the plane's root
        self._plane = name

    @property
    def fanout_parallel(self) -> int:
        """Overlap width of the fragment fan-out (0 = unbounded)."""
        return MAX_PARALLEL

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        """Answer a query (partition / delegate / merge, as a span)."""
        self.check_alive()
        with obs.span(f"{self.OBS}.topology", collector=self.name):
            return self._topology(request)

    def iter_masters(self) -> Iterator[MasterCollector]:
        """This master plus any subordinate masters (sharded planes)."""
        yield self

    def invalidate_sites(self, sites: Iterable[str] | None = None) -> None:
        """Drop the plane's survival state (LKG fragments, quarantine
        marks) for the named sites — e.g. after a known topology change —
        or all of it when ``sites`` is None.  The next query re-probes
        live."""
        wanted = None if sites is None else set(sites)

        def named(of: tuple[str, ...]) -> bool:
            return wanted is None or not wanted.isdisjoint(of)

        doomed = [key for key in self._lkg if named(key[0][:1])]
        for key in doomed:
            del self._lkg[key]
        for dkey in [k for k, (_, owns) in self._quarantine.items() if named(owns)]:
            del self._quarantine[dkey]
        if doomed:
            obs.counter("collectors.master.lkg_invalidated").inc(len(doomed))
            self._lkg_gauge()

    def health(self) -> dict[str, object]:
        """Backend-health snapshot for the service plane (``/v1/health``).

        Reports how much of the directory is currently answering: sites
        registered, delegates under quarantine right now, and
        last-known-good fragments held for sites that stopped
        answering (both counted over the plane's one survival state).
        The sharded plane extends this with per-shard detail.
        """
        now = float(self.net.engine.now)
        quarantined = sum(1 for until, _ in self._quarantine.values() if until > now)
        return {
            "kind": "master",
            "name": self.name,
            "sites": len({reg.site for reg in self.directory.registrations()}),
            "quarantined": quarantined,
            "lkg_fragments": len(self._lkg),
        }

    def _topology(self, request: TopologyRequest) -> TopologyResponse:
        self.queries_served += 1
        # 1. Find the registration responsible for each address and
        # group the addresses into delegates.
        located: list[tuple[str, Registration]] = []
        unresolved: list[str] = []
        for ip_s in request.node_ips:
            try:
                located.append((ip_s, self.directory.lookup(ip_s)))
            except UnknownHostError:
                unresolved.append(ip_s)
        site_of = {ip_s: reg.site for ip_s, reg in located}
        # fragments will have to be joined: anchor them at their borders
        multi_site = len({_reg_key(r) for _, r in located}) > 1 or request.anchor_sites
        delegates = list(self._delegates(request, located, multi_site))

        obs.histogram(f"{self.OBS}.fanout").observe(len(delegates))
        if unresolved:
            obs.counter("collectors.master.unresolved_ips").inc(len(unresolved))
        log.debug(
            "%s: partitioned %d addresses into %d delegates (%d unresolved)",
            self.name, len(request.node_ips), len(delegates), len(unresolved),
        )

        # 2. Delegate.  Fragments go out concurrently: the master pays a
        # small serial dispatch cost per fragment, then the makespan of
        # the sub-queries on ``fanout_parallel`` workers rather than
        # their sum.  Each delegation survives its chain: deadline,
        # bounded retries, quarantine of repeat offenders, and a None
        # result instead of an escaped exception (partial-merge
        # semantics).
        results: list[tuple[TopologyResponse | None, dict[str, SiteStatus]]] = []
        # NB: the per-fragment dispatch cost is charged *after* the
        # fan-out (on the reply path), not before.  Charging it first
        # would shift every sub-collector's measurement instant by
        # ``DISPATCH_S * len(delegates)`` — a query-width-dependent skew
        # that makes counter windows (and thus utilization floats)
        # differ between delegation topologies serving the same query.
        # Totals are identical either way; measurement times are not.
        with self.net.engine.overlap(self.fanout_parallel) as ov:
            for d in delegates:
                with ov.task():
                    # one span per delegation, labelled with the site or
                    # shard so trace attribution can answer "who
                    # consumed the budget"; parentage survives the
                    # overlap rewind because it is captured by span id,
                    # not reconstructed from timestamps
                    with obs.span(f"{self.OBS}.delegate", **d.label):
                        results.append(self._delegate(d))
        self.net.engine.advance(DISPATCH_S * len(delegates))
        obs.histogram(f"{self.OBS}.overlap_saved_s").observe(ov.saved_s)

        # 3. Merge the fragments (anchored, still unstitched).
        merged = TopologyGraph()
        anchors: dict[str, str] = {}
        site_status: dict[str, SiteStatus] = {}
        pdu_cost = 0
        merge_wall_s = 0.0
        data_age_s = 0.0
        for d, (sub, statuses) in zip(delegates, results):
            site_status.update(statuses)
            if sub is None:
                # delegation failed outright and nothing is held for
                # it: its addresses drop out of the answer, the rest of
                # the query proceeds
                unresolved.extend(d.request.node_ips)
                continue
            t0 = obs.wall_now()
            merged.merge(sub.graph)
            merge_wall_s += obs.wall_now() - t0
            unresolved.extend(sub.unresolved)
            pdu_cost += sub.pdu_cost
            anchors.update(sub.anchors)
            data_age_s = max(data_age_s, sub.data_age_s)

        # 4. Stitch sites together with benchmark measurements (unless
        # a delegating master above claimed the stitching for itself).
        site_anchor_node: dict[str, str] = {}
        wan_age_s = 0.0
        if multi_site:
            for site in set(site_of.values()) & self.borders.keys():
                node = anchors.get(str(self.borders[site]))
                if node is not None:
                    site_anchor_node[site] = node
                    self._anchor_sites[node] = site
            if request.stitch:
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

    def _delegates(
        self,
        request: TopologyRequest,
        located: list[tuple[str, Registration]],
        multi_site: bool,
    ) -> Iterator[Delegate]:
        """One delegate per registration, in site order: the site's
        fragment is asked of its collector with the site's border
        router as anchor, so the fragment reaches the site edge."""
        groups: dict[RegKey, tuple[Registration, list[str]]] = {}
        for ip_s, reg in located:
            groups.setdefault(_reg_key(reg), (reg, []))[1].append(ip_s)
        for key in sorted(groups, key=lambda k: k[0]):  # site order, ties as first seen
            reg, ips = groups[key]
            anchor = None
            if multi_site and reg.site in self.borders:
                anchor = str(self.borders[reg.site])
            yield Delegate(
                key=key,
                what=f"fragment for site {reg.site}",
                label={"site": reg.site},
                chain=(reg.collector,),
                request=TopologyRequest(
                    tuple(ips),
                    include_dynamics=request.include_dynamics,
                    anchor_ip=anchor,
                    pairs=request.pairs,
                ),
                parts=((key, tuple(sorted(ips))),),
                owns=(reg.site,),
                hop_s=RPC_REMOTE_S if reg.remote else RPC_LOCAL_S,
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

    def _delegate(
        self, d: Delegate
    ) -> tuple[TopologyResponse | None, dict[str, SiteStatus]]:
        """One delegation through its chain, with deadline / retry
        rounds / quarantine.

        Returns ``(response, per-site statuses)``; the response is None
        when no member of the chain could answer and no last-known-good
        fragment exists — the caller merges what it got (partial
        semantics) instead of aborting the whole query.
        """
        engine = self.net.engine
        if engine.now < self._quarantine.get(d.key, (0.0, ()))[0]:
            # known-dead chain: fail fast without an RPC, re-probe only
            # once the quarantine lapses
            obs.counter("collectors.master.quarantine_skips").inc()
            return self._serve_lkg(d, d.quarantined, 0)

        attempts = 0
        last_err: Exception | None = None
        for rnd in range(1 + FRAGMENT_RETRIES):
            if rnd > 0:
                obs.counter("collectors.master.fragment_retries").inc()
                engine.advance(FRAGMENT_BACKOFF_S)
            for k, collector in enumerate(d.chain):
                attempts += 1
                t0 = engine.now
                # A hop to a Master one tier down is charged on the
                # reply path, so its collectors measure at the same
                # instants the flat plane's would (see _topology).
                if not d.reply_path_hop:
                    engine.advance(d.hop_s)
                try:
                    try:
                        sub = collector.topology(d.request)
                    finally:
                        if d.reply_path_hop:
                            engine.advance(d.hop_s)
                except RemosError as exc:
                    # the master stopped waiting at the deadline even if
                    # the collector burned longer before failing
                    engine.cap_since(t0, FRAGMENT_TIMEOUT_S)
                    last_err = exc
                    continue
                except Exception as exc:  # collector bug: contain, don't abort
                    log.warning("%s: %s: %s raised %r", self.name, d.what, collector, exc)
                    last_err = exc
                    continue
                if engine.cap_since(t0, FRAGMENT_TIMEOUT_S):
                    # answer arrived after the master gave up: discard it
                    obs.counter("master.fragment_timeouts").inc()
                    last_err = CollectorTimeoutError(
                        f"{d.what} exceeded {FRAGMENT_TIMEOUT_S}s deadline"
                    )
                    continue
                if k > 0:
                    # a replica answered after the primary failed — the
                    # answer is *fresh* (the replica re-queried the site
                    # collectors), not a stale LKG serve
                    obs.counter(f"{self.OBS}.replica_promotions").inc()
                self._quarantine.pop(d.key, None)
                if d.passthrough:
                    return sub, dict(sub.site_status)
                self._store_lkg(d, sub)
                return sub, {
                    site: SiteStatus(
                        site, sub.status,
                        data_age_s=sub.data_age_s, attempts=attempts,
                    )
                    for (site, _), _ in d.parts
                }

        if d.counts_failures:
            obs.counter(f"{self.OBS}.shard_failures").inc()
        self._quarantine[d.key] = (engine.now + QUARANTINE_S, d.owns)
        if isinstance(last_err, RemosError):
            detail = str(last_err)
        else:
            detail = f"{d.error}: {last_err!r}"
        log.debug("%s: %s failed after %d attempts over %d replicas: %s",
                  self.name, d.what, attempts, len(d.chain), detail)
        return self._serve_lkg(d, detail, attempts)

    def _store_lkg(self, d: Delegate, sub: TopologyResponse) -> None:
        """Remember ``sub`` as the registration's last-known-good
        fragment for these addresses, evicting past
        :data:`LKG_MAX_FRAGMENTS`.

        The fragment is kept as handed over, frozen, not copied: nothing
        edits a collector's fragment once it is returned (the merge
        reads it, own-flow crediting replaces edges of its own graph
        instead of writing into shared ones), and :meth:`_serve_lkg`
        copies on the way out."""
        (key,) = d.parts
        self._lkg[key] = (
            sub.graph.freeze(), self.net.engine.now, dict(sub.anchors), tuple(sub.unresolved)
        )
        self._lkg.move_to_end(key)
        while len(self._lkg) > LKG_MAX_FRAGMENTS:
            self._lkg.popitem(last=False)
        self._lkg_gauge()

    def _lkg_gauge(self) -> None:
        obs.gauge("collectors.master.lkg_fragments", collector=self._plane).set(
            len(self._lkg)
        )

    def _serve_lkg(
        self, d: Delegate, detail: str, attempts: int
    ) -> tuple[TopologyResponse | None, dict[str, SiteStatus]]:
        """Fall back to the last-known-good fragments of the delegate's
        registrations: each site held is STALE with its fragment's true
        age, each site not held FAILED with its addresses unresolved.

        Stored graphs are copied on the way out so callers mutating the
        merged answer (own-flow crediting) cannot corrupt the cache.
        """
        graph = TopologyGraph()
        anchors: dict[str, str] = {}
        unresolved: list[str] = []
        statuses: dict[str, SiteStatus] = {}
        served, age = 0, 0.0
        for key in d.parts:
            (site, _), ips = key
            entry = self._lkg.get(key)
            if entry is None:
                statuses[site] = SiteStatus(
                    site, QueryStatus.FAILED, detail=detail, attempts=attempts
                )
                unresolved.extend(ips)
                continue
            self._lkg.move_to_end(key)
            held, fetched_at, held_anchors, held_unresolved = entry
            graph.merge(held.copy())
            anchors.update(held_anchors)
            unresolved.extend(held_unresolved)
            served += 1
            site_age = self.net.now - fetched_at
            age = max(age, site_age)
            statuses[site] = SiteStatus(
                site, QueryStatus.STALE, data_age_s=site_age, detail=detail, attempts=attempts
            )
        if not served:
            return None, statuses
        obs.counter(f"{self.OBS}.lkg_served").inc()
        return (
            TopologyResponse(
                graph=graph,
                unresolved=tuple(unresolved),
                pdu_cost=0,
                anchors=anchors,
                status=QueryStatus.STALE,
                data_age_s=age,
            ),
            statuses,
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
        self.net.engine.advance(RPC_LOCAL_S)
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
                self.net.engine.advance(RPC_LOCAL_S)
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
        return self._first_answer(
            self.directory.registrations(), lambda c: c.history(request)
        )

    def supports_forecast(self) -> bool:
        """Cheap capability probe: can any downstream collector serve a
        streaming forecast right now?  Costs no simulated time — the
        master knows this from registration state."""
        return any(
            reg.collector.supports_forecast() for reg in self.directory.registrations()
        )

    def forecast_edge(
        self, request: HistoryRequest, horizon: int
    ) -> ForecastSeries | None:
        """Streaming forecast from whichever collector predicts the
        edge (the §2.3 shared-prediction path); None when no streaming
        predictor covers it."""
        # no streaming predictor behind a registration: there is no call
        # to make, so it is not asked and charged no RPC
        return self._first_answer(
            (r for r in self.directory.registrations() if r.collector.supports_forecast()),
            lambda c: c.forecast_edge(request, horizon),
        )

    def _first_answer(
        self, regs: Iterable[Registration], ask: Callable[[Collector], _T | None]
    ) -> _T | None:
        """Fan a question out over ``regs`` in order and return the first
        non-None answer.  The asks are independent, so each is charged
        its RPC hop under one overlap: the cost is that of the
        collectors asked, overlapped, not their sum."""
        found: _T | None = None
        with self.net.engine.overlap(MAX_PARALLEL) as ov:
            for reg in regs:
                with ov.task():
                    self.net.engine.advance(
                        RPC_REMOTE_S if reg.remote else RPC_LOCAL_S
                    )
                    try:
                        found = ask(reg.collector)
                    except RemosError:
                        found = None  # collector down: ask the others
                if found is not None:
                    break
        return found
