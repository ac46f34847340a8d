"""Sharded Master plane: a consistent-hash hierarchy of Masters.

The paper's Master is one aggregation point over per-site collectors
(§2.1); ``BENCH_master_scalability.json`` shows where that stops
scaling.  This module breaks the Master plane apart while keeping the
paper's *interface* intact — a :class:`ShardedMaster` is itself a
:class:`~repro.collectors.master.MasterCollector`, so the Modeler (and
any master-of-masters above it) cannot tell it is talking to a
hierarchy, exactly the "without revealing that the response was
obtained from multiple collectors" contract.

Structure:

* A deterministic :class:`ConsistentHashRing` assigns every site to one
  of ``n_shards`` shards (virtual nodes keep the split even and
  minimise movement when the shard count changes).
* Each shard gets its own sub-:class:`CollectorDirectory` (same
  collector and benchmark objects, re-registered) and one or more
  ``MasterCollector`` replicas over it.  Replicas are full masters:
  promotion after a primary crash keeps answers **fresh**, not stale,
  because the replica re-queries the still-alive site collectors.
* The ShardedMaster delegates each query's shard groups concurrently
  (``Engine.overlap`` makespan charging, same as flat fan-out), merges
  the shard fragments, and stitches the site pairs itself.  Shard
  masters see ``TopologyRequest.anchor_sites`` (anchor fragments even
  for single-site sub-queries) and ``stitch=False`` (return fragments
  unstitched): benchmark probes inject real traffic, so exactly one
  tier runs them, serially and on a monotonic clock, keeping probe
  byte-accounting — and therefore every later counter window —
  identical to the flat plane's.
* Whole-shard failure generalises the PR 4 survival machinery one tier
  up: replica chains with per-fragment deadlines and retries, shard
  quarantine, and a shard-level last-known-good cache served STALE with
  its true age when every replica is down.
* ``depth > 1`` inserts master-of-masters tiers: shards are grouped
  under intermediate ``ShardedMaster`` s; fragments pass through the
  tiers unstitched and the root stitches once.

Answers are byte-identical to the flat Master on fault-free runs (the
differential suite in ``tests/collectors/test_sharding_equivalence.py``
enforces this); under faults they are equal or better, because the
shard tier adds failover paths the flat Master does not have.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro import obs
from repro.common.errors import CollectorTimeoutError, RemosError, UnknownHostError
from repro.common.status import QueryStatus, SiteStatus
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network
from repro.collectors.base import RpcCostModel, TopologyRequest, TopologyResponse
from repro.collectors.directory import CollectorDirectory, Registration
from repro.collectors.master import MasterCollector
from repro.modeler.graph import TopologyGraph

log = obs.get_logger(__name__)

#: shard-level last-known-good shapes: (shard index, requested ips) ->
#: (graph copy, fetched_at, anchors, unresolved, involved sites)
ShardLkgKey = tuple[int, tuple[str, ...]]
ShardLkgEntry = tuple[TopologyGraph, float, dict[str, str], tuple[str, ...], tuple[str, ...]]


def _hash64(key: str) -> int:
    """Deterministic 64-bit hash (stable across processes, unlike
    ``hash()``; no RNG involved)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Consistent hashing of site names onto shard indices.

    ``vnodes`` virtual points per shard keep the partition balanced;
    adding or removing one shard moves only ~1/n of the sites, the
    property that lets a grown directory rebalance without a full
    re-registration storm.
    """

    def __init__(self, shard_ids: Sequence[int], vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        points: list[tuple[int, int]] = []
        for sid in shard_ids:
            for v in range(vnodes):
                points.append((_hash64(f"shard-{sid}#{v}"), sid))
        points.sort()
        self._points = points
        self._keys = [p[0] for p in points]

    def assign(self, site: str) -> int:
        """The shard index owning ``site`` (clockwise successor)."""
        i = bisect_right(self._keys, _hash64(site)) % len(self._points)
        return self._points[i][1]


@dataclass(frozen=True)
class ShardingConfig:
    """Shape of the sharded Master plane."""

    n_shards: int = 4
    #: extra replica masters per shard beyond the primary
    replicas: int = 0
    #: virtual ring points per shard
    vnodes: int = 64
    #: hierarchy depth: 1 = shards under one root; >1 inserts
    #: master-of-masters tiers grouping ``group_fanout`` children each
    depth: int = 1
    group_fanout: int = 8
    #: overlap width for shard fan-out and cross-shard stitching
    #: (0 = unbounded — shards are independent servers)
    shard_parallel: int = 0


@dataclass(frozen=True)
class Shard:
    """One child of a ShardedMaster tier."""

    index: int
    sites: tuple[str, ...]
    #: replica chain, primary first; tried in order on failure
    masters: tuple[MasterCollector, ...]


class ShardedMaster(MasterCollector):
    """A Master whose delegation targets are shards of Masters.

    Inherits everything interface-level from :class:`MasterCollector`
    (history, forecasts, site statistics run against the full top-level
    directory exactly as the flat Master would) and overrides only the
    topology path: partition by shard, delegate concurrently through
    each shard's replica chain, merge, stitch the site pairs.
    """

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        borders: dict[str, IPv4Address] | None,
        rpc_cost: RpcCostModel | None,
        shards: Sequence[Shard],
        ring: ConsistentHashRing,
        shard_parallel: int = 0,
    ) -> None:
        super().__init__(name, net, directory, borders, rpc_cost)
        if not shards:
            raise ValueError("sharded master needs at least one shard")
        if [s.index for s in shards] != list(range(len(shards))):
            raise ValueError("shard indices must be 0..n-1 in order")
        self.shards = tuple(shards)
        self.ring = ring
        self.shard_parallel = shard_parallel
        self._site_shard: dict[str, int] = {
            site: shard.index for shard in shards for site in shard.sites
        }
        self._shard_quarantine: dict[int, float] = {}
        self._shard_lkg: dict[ShardLkgKey, ShardLkgEntry] = {}

    # -- plumbing ------------------------------------------------------

    def iter_masters(self) -> Iterator[MasterCollector]:
        yield self
        for shard in self.shards:
            for m in shard.masters:
                yield from m.iter_masters()

    def shard_for_site(self, site: str) -> Shard:
        """The shard entry owning ``site`` (ring fallback for unknowns)."""
        idx = self._site_shard.get(site)
        if idx is None:
            idx = self.ring.assign(site) % len(self.shards)
        return self.shards[idx]

    def invalidate_sites(self, sites: Iterable[str] | None = None) -> None:
        """Site-scoped invalidation, propagated down the hierarchy."""
        wanted = None if sites is None else set(sites)
        super().invalidate_sites(wanted)
        doomed = [
            key
            for key, entry in self._shard_lkg.items()
            if wanted is None or wanted & set(entry[4])
        ]
        for key in doomed:
            del self._shard_lkg[key]
        if doomed:
            obs.counter("collectors.master.lkg_invalidated").inc(len(doomed))
        for shard in self.shards:
            if wanted is None or wanted & set(shard.sites):
                self._shard_quarantine.pop(shard.index, None)
            for m in shard.masters:
                m.invalidate_sites(wanted)

    def health(self) -> dict[str, object]:
        """Per-shard backend health (``/v1/health`` through the service)."""
        base = super().health()
        now = float(self.net.engine.now)
        base["kind"] = "sharded-master"
        base["shard_lkg_fragments"] = len(self._shard_lkg)
        base["shards"] = [
            {
                "index": shard.index,
                "sites": len(shard.sites),
                "masters": len(shard.masters),
                "down": sum(
                    1
                    for m in shard.masters
                    if m.crashed_until is not None and float(m.net.now) < m.crashed_until
                ),
                "quarantined_until": self._shard_quarantine.get(shard.index, 0.0) > now,
            }
            for shard in self.shards
        ]
        return base

    # -- the sharded topology path -------------------------------------

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        self.check_alive()
        with obs.span("collectors.sharded.topology", collector=self.name):
            return self._topology(request)

    def _topology(self, request: TopologyRequest) -> TopologyResponse:
        self.queries_served += 1
        # 1. Partition addresses by owning shard (via the directory's
        # longest-prefix site resolution, then the hash assignment).
        groups: dict[int, list[str]] = defaultdict(list)
        shard_sites: dict[int, set[str]] = defaultdict(set)
        site_of: dict[str, str] = {}
        unresolved: list[str] = []
        for ip_s in request.node_ips:
            try:
                reg = self.directory.lookup(ip_s)
            except UnknownHostError:
                unresolved.append(ip_s)
                continue
            idx = self._site_shard.get(reg.site)
            if idx is None:
                idx = self.ring.assign(reg.site) % len(self.shards)
            groups[idx].append(ip_s)
            shard_sites[idx].add(reg.site)
            site_of[ip_s] = reg.site
        involved_sites = set(site_of.values())

        obs.histogram("collectors.sharded.fanout").observe(len(groups))
        if unresolved:
            obs.counter("collectors.master.unresolved_ips").inc(len(unresolved))
        multi_site = len(involved_sites) > 1 or request.anchor_sites
        log.debug(
            "%s: partitioned %d addresses into %d shard groups (%d sites)",
            self.name, len(request.node_ips), len(groups), len(involved_sites),
        )

        # 2. Delegate each group through its shard's replica chain,
        # concurrently across shards (the shards are independent
        # servers; the root pays per-fragment dispatch plus makespan).
        order = sorted(groups)
        subs: dict[int, TopologyResponse | None] = {}
        stats: dict[int, dict[str, SiteStatus]] = {}
        # dispatch charged after the fan-out, mirroring the flat Master:
        # measurement instants must not depend on how many shards this
        # tier happens to fan out to (see MasterCollector._topology)
        with self.net.engine.overlap(self.shard_parallel) as ov:
            for idx in order:
                with ov.task():
                    with obs.span("collectors.sharded.delegate", shard=str(idx)):
                        subs[idx], stats[idx] = self._delegate_shard(
                            self.shards[idx],
                            groups[idx],
                            sorted(shard_sites[idx]),
                            multi_site,
                            request,
                        )
        self.net.engine.advance(self.rpc.dispatch_s * len(order))
        obs.histogram("collectors.sharded.overlap_saved_s").observe(ov.saved_s)

        # 3. Merge the shard fragments (anchored, still unstitched).
        merged = TopologyGraph()
        anchors: dict[str, str] = {}
        site_status: dict[str, SiteStatus] = {}
        pdu_cost = 0
        merge_wall_s = 0.0
        data_age_s = 0.0
        for idx in order:
            site_status.update(stats[idx])
            sub = subs[idx]
            if sub is None:
                # whole shard dark and no LKG: its addresses drop out,
                # the rest of the query proceeds (partial semantics)
                unresolved.extend(groups[idx])
                continue
            t0 = obs.wall_now()
            merged.merge(sub.graph)
            merge_wall_s += obs.wall_now() - t0
            unresolved.extend(sub.unresolved)
            pdu_cost += sub.pdu_cost
            anchors.update(sub.anchors)
            data_age_s = max(data_age_s, sub.data_age_s)

        # 4. Stitch the wanted site pairs through the flat Master's own
        # routine.  Shard masters returned *unstitched* fragments
        # (``stitch=False``) because benchmark probes inject real
        # traffic — running them inside rewound overlap tasks would
        # account probe bytes into SNMP counters differently than the
        # flat plane and break byte-identity.  Only the outermost tier
        # (``request.stitch``) measures; intermediate master-of-masters
        # tiers pass through.
        site_anchor_node: dict[str, str] = {}
        wan_age_s = 0.0
        if multi_site:
            for site in involved_sites:
                border = self.borders.get(site)
                node = anchors.get(str(border)) if border is not None else None
                if node is not None:
                    site_anchor_node[site] = node
                    self._anchor_sites[node] = site
            if request.stitch:
                wanted = self._wanted_site_pairs(request, site_of, site_anchor_node)
                cross = sum(
                    1
                    for a_site, b_site in wanted
                    if self._site_shard.get(a_site) != self._site_shard.get(b_site)
                )
                if cross:
                    obs.counter("collectors.sharded.cross_edges").inc(cross)
                with obs.span("collectors.sharded.stitch", collector=self.name):
                    wan_age_s = self._stitch(merged, site_anchor_node, wanted)

        obs.histogram("collectors.master.merge_wall_s").observe(merge_wall_s)
        return self._respond(
            request, merged, unresolved, pdu_cost, anchors, site_status,
            data_age_s, wan_age_s,
        )

    # -- shard delegation survival -------------------------------------

    def _delegate_shard(
        self,
        shard: Shard,
        ips: list[str],
        sites: list[str],
        multi_site: bool,
        request: TopologyRequest,
    ) -> tuple[TopologyResponse | None, dict[str, SiteStatus]]:
        """One shard delegation through its replica chain.

        Mirrors :meth:`MasterCollector._delegate` one tier up: deadline
        per attempt, replica promotion on failure, bounded retry rounds,
        shard quarantine, shard-level LKG as the last resort.  Returns
        ``(response, per-site statuses)``.
        """
        engine = self.net.engine
        sub_request = TopologyRequest(
            tuple(ips),
            include_dynamics=request.include_dynamics,
            anchor_sites=multi_site,
            stitch=False,
        )
        survival = self._survival_on()
        until = self._shard_quarantine.get(shard.index, 0.0)
        if survival and engine.now < until:
            obs.counter("collectors.master.quarantine_skips").inc()
            return self._serve_shard_lkg(shard, ips, sites, "shard quarantined", 0)

        deadline = self.rpc.fragment_timeout_s
        rounds = 1 + (self.rpc.fragment_retries if survival else 0)
        last_err: Exception | None = None
        for rnd in range(rounds):
            if rnd > 0:
                obs.counter("collectors.master.fragment_retries").inc()
                engine.advance(self.rpc.fragment_backoff_s)
            for k, master in enumerate(shard.masters):
                t0 = engine.now
                # the shard-hop RPC cost is charged on the reply path
                # so sub-masters measure at the same instants the flat
                # plane would (see MasterCollector._topology)
                try:
                    sub = master.topology(sub_request)
                except RemosError as exc:
                    engine.advance(self.rpc.local_s)
                    if deadline > 0:
                        engine.cap_since(t0, deadline)
                    last_err = exc
                    continue
                except Exception as exc:  # master bug: contain, don't abort
                    engine.advance(self.rpc.local_s)
                    log.warning("%s: shard master %s raised %r", self.name, master, exc)
                    last_err = exc
                    continue
                engine.advance(self.rpc.local_s)
                if deadline > 0 and engine.cap_since(t0, deadline):
                    obs.counter("master.fragment_timeouts").inc()
                    last_err = CollectorTimeoutError(
                        f"shard {shard.index} fragment exceeded {deadline}s deadline"
                    )
                    continue
                if k > 0:
                    # a replica answered after the primary failed — the
                    # answer is *fresh* (the replica re-queried the site
                    # collectors), not a stale LKG serve
                    obs.counter("collectors.sharded.replica_promotions").inc()
                if survival:
                    self._shard_lkg[(shard.index, tuple(sorted(ips)))] = (
                        sub.graph.copy(),
                        engine.now,
                        dict(sub.anchors),
                        tuple(sub.unresolved),
                        tuple(sites),
                    )
                self._shard_quarantine.pop(shard.index, None)
                return sub, dict(sub.site_status)

        obs.counter("collectors.sharded.shard_failures").inc()
        if survival and self.rpc.quarantine_s > 0:
            self._shard_quarantine[shard.index] = engine.now + self.rpc.quarantine_s
        if isinstance(last_err, RemosError):
            detail = str(last_err)
        else:
            detail = f"shard master error: {last_err!r}"
        log.debug(
            "%s: shard %d failed after %d attempts over %d replicas: %s",
            self.name, shard.index, rounds * len(shard.masters), len(shard.masters), detail,
        )
        return self._serve_shard_lkg(
            shard, ips, sites, detail, rounds * len(shard.masters)
        )

    def _serve_shard_lkg(
        self,
        shard: Shard,
        ips: list[str],
        sites: list[str],
        detail: str,
        attempts: int,
    ) -> tuple[TopologyResponse | None, dict[str, SiteStatus]]:
        """Last resort: the shard's last-known-good merged fragment."""
        entry = self._shard_lkg.get((shard.index, tuple(sorted(ips))))
        if entry is None:
            return None, {
                site: SiteStatus(
                    site, QueryStatus.FAILED, detail=detail, attempts=attempts
                )
                for site in sites
            }
        graph, fetched_at, lkg_anchors, lkg_unresolved, lkg_sites = entry
        obs.counter("collectors.sharded.lkg_served").inc()
        age = self.net.now - fetched_at
        statuses = {
            site: SiteStatus(
                site, QueryStatus.STALE, data_age_s=age,
                detail="shard last-known-good", attempts=attempts,
            )
            for site in lkg_sites
        }
        return (
            TopologyResponse(
                graph=graph.copy(),
                unresolved=lkg_unresolved,
                pdu_cost=0,
                anchors=dict(lkg_anchors),
                status=QueryStatus.STALE,
                data_age_s=age,
            ),
            statuses,
        )


def build_sharded_master(
    name: str,
    net: Network,
    directory: CollectorDirectory,
    borders: dict[str, IPv4Address] | None = None,
    rpc_cost: RpcCostModel | None = None,
    config: ShardingConfig | None = None,
) -> ShardedMaster:
    """Construct a sharded Master plane over an existing directory.

    Every site currently registered is hashed onto a shard; each shard
    gets a sub-directory re-registering the same collector and
    benchmark objects, and ``1 + config.replicas`` MasterCollector
    replicas over it.  All masters share one :class:`RpcCostModel`
    instance, so a survival policy armed by :func:`repro.faults.install`
    applies to every tier at once.  ``config.depth > 1`` groups shards
    under intermediate ShardedMasters (master-of-masters).
    """
    cfg = config or ShardingConfig()
    if cfg.n_shards < 1:
        raise ValueError("need at least one shard")
    if cfg.replicas < 0:
        raise ValueError("replicas must be >= 0")
    if cfg.depth < 1:
        raise ValueError("depth must be >= 1")
    if cfg.group_fanout < 2:
        raise ValueError("group_fanout must be >= 2")
    rpc = rpc_cost or RpcCostModel()
    all_borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
    ring = ConsistentHashRing(list(range(cfg.n_shards)), cfg.vnodes)
    assignment: dict[int, list[str]] = {i: [] for i in range(cfg.n_shards)}
    for site in directory.sites():
        assignment[ring.assign(site)].append(site)

    regs_by_site: dict[str, list[Registration]] = defaultdict(list)
    for reg in directory.registrations():
        regs_by_site[reg.site].append(reg)

    def subdirectory(site_list: Sequence[str]) -> CollectorDirectory:
        sub = CollectorDirectory()
        for site in site_list:
            for reg in regs_by_site.get(site, []):
                sub.register(reg.collector, list(reg.prefixes), site, reg.remote)
            bench = directory.benchmark_for(site)
            if bench is not None:
                sub.register_benchmark(bench)
        return sub

    def site_borders(site_list: Sequence[str]) -> dict[str, IPv4Address]:
        return {s: all_borders[s] for s in site_list if s in all_borders}

    shards: list[Shard] = []
    for idx in range(cfg.n_shards):
        site_list = assignment[idx]
        sub = subdirectory(site_list)
        masters = tuple(
            MasterCollector(
                f"{name}-s{idx}" + (f"-r{k}" if k else ""),
                net, sub, site_borders(site_list), rpc,
            )
            for k in range(1 + cfg.replicas)
        )
        shards.append(Shard(idx, tuple(site_list), masters))

    # master-of-masters tiers: group children, one intermediate
    # ShardedMaster per group, repeat until one tier fits the root
    tier: list[Shard] = shards
    for level in range(cfg.depth - 1):
        if len(tier) <= cfg.group_fanout:
            break
        grouped: list[Shard] = []
        for g, start in enumerate(range(0, len(tier), cfg.group_fanout)):
            group = tier[start:start + cfg.group_fanout]
            re_indexed = [
                Shard(j, sh.sites, sh.masters) for j, sh in enumerate(group)
            ]
            g_sites = [s for sh in group for s in sh.sites]
            mid = ShardedMaster(
                f"{name}-t{level}g{g}",
                net,
                subdirectory(g_sites),
                site_borders(g_sites),
                rpc,
                re_indexed,
                ring,
                cfg.shard_parallel,
            )
            grouped.append(Shard(g, tuple(g_sites), (mid,)))
        tier = grouped

    return ShardedMaster(
        name, net, directory, all_borders, rpc, tier, ring, cfg.shard_parallel
    )
