"""Sharded Master plane: a consistent-hash hierarchy of Masters.

The paper's Master is one aggregation point over per-site collectors
(§2.1); ``tests/collectors/test_master_fanout_cost.py`` pins what an
all-sites query costs it as sites grow.  This module breaks the Master
plane apart while keeping the paper's *interface* intact — a
:class:`ShardedMaster` is itself a
:class:`~repro.collectors.master.MasterCollector`, so the Modeler
cannot tell it is talking to a hierarchy, exactly the "without
revealing that the response was obtained from multiple collectors"
contract.

Structure:

* A deterministic :class:`ConsistentHashRing` assigns every site to one
  of ``n_shards`` shards (virtual nodes keep the split even and
  minimise movement when the shard count changes).
* Each shard gets its own sub-:class:`CollectorDirectory`, in its own
  directory agent (same collector and benchmark objects,
  re-registered), and one or more ``MasterCollector`` replicas over it.
  Replicas are full masters: promotion after a primary crash keeps
  answers **fresh**, not stale, because the replica re-queries the
  still-alive site collectors.
* The ShardedMaster delegates each query's shard groups concurrently
  (``Engine.overlap`` makespan charging, same as flat fan-out), merges
  the shard fragments, and stitches the site pairs itself.  Shard
  masters see ``TopologyRequest.anchor_sites`` (anchor fragments even
  for single-site sub-queries) and ``stitch=False`` (return fragments
  unstitched): benchmark probes inject real traffic, so exactly one
  tier runs them, serially and on a monotonic clock, keeping probe
  byte-accounting — and therefore every later counter window —
  identical to the flat plane's.
* The plane has one survival state: the ShardedMaster hands its
  last-known-good store and quarantine table to every shard master and
  replica, and only the tier that delegates to a registration stores a
  fragment, under the registration's key.  A promoted replica therefore
  serves what its primary stored.
* Whole-shard failure is survived by the Master's one delegation
  routine (:meth:`MasterCollector._delegate`): a shard is a delegate
  whose replica chain is longer than one, with per-fragment deadlines
  and retries and quarantine.  When every replica is down, the root
  serves each of the shard's sites from its registration's fragment,
  STALE with that fragment's true age, or FAILED when none is held.

Answers are byte-identical to the flat Master on fault-free runs (the
differential suite in ``tests/collectors/test_sharding_equivalence.py``
enforces this); under faults they are equal or better, because the
shard tier adds failover paths the flat Master does not have.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro import obs
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network
from repro.collectors.base import RPC_LOCAL_S, TopologyRequest
from repro.collectors.directory import CollectorDirectory, Registration
from repro.collectors.master import Delegate, MasterCollector, RegKey, _reg_key
from repro.collectors.slp import DirectoryAgent
from repro.modeler.graph import TopologyGraph


def _hash64(key: str) -> int:
    """Deterministic 64-bit hash (stable across processes, unlike
    ``hash()``; no RNG involved)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


#: virtual ring points per shard
RING_VNODES = 64


class ConsistentHashRing:
    """Consistent hashing of site names onto shard indices.

    :data:`RING_VNODES` virtual points per shard keep the partition
    balanced; adding or removing one shard moves only ~1/n of the sites, the
    property that lets a grown directory rebalance without a full
    re-registration storm.
    """

    def __init__(self, shard_ids: Sequence[int]) -> None:
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        points: list[tuple[int, int]] = []
        for sid in shard_ids:
            for v in range(RING_VNODES):
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


@dataclass(frozen=True)
class Shard:
    """One shard of a ShardedMaster."""

    index: int
    sites: tuple[str, ...]
    #: replica chain, primary first; tried in order on failure
    masters: tuple[MasterCollector, ...]


class ShardedMaster(MasterCollector):
    """A Master whose delegation targets are shards of Masters.

    Inherits the whole query path from :class:`MasterCollector`
    (history and forecasts run against the full top-level
    directory exactly as the flat Master would) and overrides one step
    of it: a request's addresses are grouped by shard, and each group's
    delegate is the shard's replica chain of Masters, asked for anchored
    but unstitched fragments.
    """

    OBS = "collectors.sharded"

    def __init__(
        self,
        name: str,
        net: Network,
        directory: CollectorDirectory,
        borders: dict[str, IPv4Address] | None,
        shards: Sequence[Shard],
        ring: ConsistentHashRing,
    ) -> None:
        super().__init__(name, net, directory, borders)
        if not shards:
            raise ValueError("sharded master needs at least one shard")
        if [s.index for s in shards] != list(range(len(shards))):
            raise ValueError("shard indices must be 0..n-1 in order")
        self.shards = tuple(shards)
        self.ring = ring
        self._site_shard: dict[str, int] = {
            site: shard.index for shard in shards for site in shard.sites
        }
        # one survival state for the plane, gauged under the root's name
        for m in self.iter_masters():
            m._lkg, m._quarantine, m._plane = self._lkg, self._quarantine, name

    # -- plumbing ------------------------------------------------------

    def iter_masters(self) -> Iterator[MasterCollector]:
        yield self
        for shard in self.shards:
            yield from shard.masters

    def shard_for_site(self, site: str) -> Shard:
        """The shard entry owning ``site`` (ring fallback for unknowns)."""
        idx = self._site_shard.get(site)
        if idx is None:
            idx = self.ring.assign(site) % len(self.shards)
        return self.shards[idx]

    def health(self) -> dict[str, object]:
        """Per-shard backend health (``/v1/health`` through the service)."""
        base = super().health()
        now = float(self.net.engine.now)
        base["kind"] = "sharded-master"
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
                "quarantined_until": self._quarantine.get(shard.index, (0.0, ()))[0] > now,
            }
            for shard in self.shards
        ]
        return base

    # -- the sharded topology path -------------------------------------

    @property
    def fanout_parallel(self) -> int:
        """Unbounded: shards are independent servers."""
        return 0

    def _delegates(
        self,
        request: TopologyRequest,
        located: list[tuple[str, Registration]],
        multi_site: bool,
    ) -> Iterator[Delegate]:
        """One delegate per owning shard (the directory's longest-prefix
        site resolution, then the hash assignment), in shard order.

        Shard masters return *unstitched* fragments (``stitch=False``)
        anchored at every border (``anchor_sites``): benchmark probes
        inject real traffic — running them inside rewound overlap tasks
        would account probe bytes into SNMP counters differently than
        the flat plane and break byte-identity.  Only this tier
        measures.  A delegate's parts are the registrations its shard
        master will ask, so this tier can serve them from the plane's
        store when the whole replica chain is down.
        """
        groups: dict[int, tuple[list[str], dict[RegKey, list[str]]]] = {}
        for ip_s, reg in located:
            ips, regs = groups.setdefault(self.shard_for_site(reg.site).index, ([], {}))
            ips.append(ip_s)
            regs.setdefault(_reg_key(reg), []).append(ip_s)
        for idx in sorted(groups):
            ips, regs = groups[idx]
            yield Delegate(
                key=idx,
                what=f"shard {idx} fragment",
                label={"shard": str(idx)},
                chain=self.shards[idx].masters,
                request=TopologyRequest(
                    tuple(ips),
                    include_dynamics=request.include_dynamics,
                    anchor_sites=multi_site,
                    stitch=False,
                ),
                parts=tuple((key, tuple(sorted(regs[key]))) for key in sorted(regs)),
                owns=self.shards[idx].sites,
                hop_s=RPC_LOCAL_S,
                reply_path_hop=True,
                passthrough=True,
                counts_failures=True,
                quarantined="shard quarantined",
                error="shard master error",
            )

    def _stitch(
        self,
        merged: TopologyGraph,
        site_anchor_node: dict[str, str],
        wanted: list[tuple[str, str]],
    ) -> float:
        cross = sum(
            1
            for a_site, b_site in wanted
            if self._site_shard.get(a_site) != self._site_shard.get(b_site)
        )
        if cross:
            obs.counter("collectors.sharded.cross_edges").inc(cross)
        with obs.span("collectors.sharded.stitch", collector=self.name):
            return super()._stitch(merged, site_anchor_node, wanted)


def build_sharded_master(
    name: str,
    net: Network,
    directory: CollectorDirectory,
    borders: dict[str, IPv4Address] | None = None,
    config: ShardingConfig | None = None,
) -> ShardedMaster:
    """Construct a sharded Master plane over an existing directory.

    Every site currently registered is hashed onto a shard; each shard
    gets a sub-directory, in a directory agent of its own, re-registering
    the same collector and benchmark objects, and ``1 + config.replicas``
    MasterCollector replicas over it.  Every master charges the same RPC
    costs (the constants of :mod:`repro.collectors.base` and
    :mod:`repro.collectors.master`) and runs the one survival policy of
    :mod:`repro.collectors.master`; the root hands them its survival
    state (see :class:`ShardedMaster`).
    """
    cfg = config or ShardingConfig()
    if cfg.n_shards < 1:
        raise ValueError("need at least one shard")
    if cfg.replicas < 0:
        raise ValueError("replicas must be >= 0")
    all_borders = {k: IPv4Address(v) for k, v in (borders or {}).items()}
    ring = ConsistentHashRing(list(range(cfg.n_shards)))
    assignment: dict[int, list[str]] = {i: [] for i in range(cfg.n_shards)}
    for site in directory.sites():
        assignment[ring.assign(site)].append(site)

    shards: list[Shard] = []
    for idx in range(cfg.n_shards):
        site_list = assignment[idx]
        sub = CollectorDirectory(DirectoryAgent(net))
        # in the top directory's registration order: first-wins holds
        for reg in directory.registrations():
            if reg.site in site_list:
                sub.register(reg.collector, list(reg.prefixes), reg.site, reg.remote)
        for site in site_list:
            bench = directory.benchmark_for(site)
            if bench is not None:
                sub.register_benchmark(bench)
        sub_borders = {s: all_borders[s] for s in site_list if s in all_borders}
        masters = tuple(
            MasterCollector(f"{name}-s{idx}" + (f"-r{k}" if k else ""), net, sub, sub_borders)
            for k in range(1 + cfg.replicas)
        )
        shards.append(Shard(idx, tuple(site_list), masters))

    return ShardedMaster(name, net, directory, all_borders, shards, ring)
