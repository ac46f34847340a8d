"""Differential suite: ShardedMaster answers == flat Master answers.

Sharding is a *scalability* refactor, not a semantic one: for every
fault-free query the sharded plane must return the same topology, the
same per-site statuses, the same provenance, and spend the same SNMP
PDUs as the flat Master it replaces.  These tests run seeded random
topologies and query workloads through both planes and compare.

Two comparison rules keep the contract honest:

* **Aligned query times.**  Each query is issued at the same simulated
  instant in both planes (both engines run to a common time first).
  The two planes charge different amounts of RPC time per query, so
  without alignment the clocks drift apart and time-averaged dynamics
  (counter windows, data ages) measure genuinely different intervals —
  that is clock skew between two separate simulations, not a semantic
  difference in the answers.
* **Canonical floats.**  Flat and sharded runs reach the same
  benchmark probes at different absolute times, so durations computed
  as ``end - start`` can differ in the last ulp (e.g. a utilization of
  9.3e-10 bps against 0.0).  Equality is defined over a serialization
  that quantizes floats to 9 significant digits and snaps |x| < 1e-6
  to zero — one part in 1e9, far below anything the measurement
  semantics distinguish.  Structure, statuses, anchors, and PDU counts
  must match exactly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.common.rng import make_rng
from repro.common.status import QueryStatus
from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan

N_SITES = 16

_RANK = {
    QueryStatus.OK: 0,
    QueryStatus.STALE: 1,
    QueryStatus.PARTIAL: 2,
    QueryStatus.FAILED: 3,
}


def _deploy(seed: int, sharding: ShardingConfig | None = None):
    world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=600.0),
        sharding=sharding,
    )
    return world, dep


def _workload(world, seed: int) -> list[TopologyRequest]:
    """A seeded mix of query scopes: single-site, few-site, all-site."""
    rng = make_rng(seed)
    names = sorted(world.sites)

    def ips(site_names, per_site=2):
        out = []
        for n in site_names:
            hosts = world.sites[n].hosts
            out.extend(str(h.interfaces[0].ip) for h in hosts[:per_site])
        return out

    reqs = [TopologyRequest.of(ips([names[int(rng.integers(len(names)))]]))]
    for width in (2, 5, 8):
        chosen = list(rng.choice(len(names), size=width, replace=False))
        reqs.append(TopologyRequest.of(ips([names[i] for i in chosen])))
    reqs.append(TopologyRequest.of(ips(names, per_site=1)))
    # repeat the widest mixed query: exercises the warm path
    reqs.append(reqs[2])
    return reqs


def _aligned(req, world_a, dep_a, world_b, dep_b):
    """Issue ``req`` on both planes at the same simulated instant and
    return both responses (see module docstring on alignment)."""
    t = max(world_a.net.now, world_b.net.now) + 1.0
    world_a.net.engine.run_until(t)
    world_b.net.engine.run_until(t)
    return dep_a.master.topology(req), dep_b.master.topology(req)


def _q(x: float) -> float | str:
    """Quantize one float for canonical comparison (see module doc)."""
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    return 0.0 if abs(x) < 1e-6 else float(f"{x:.9g}")


def canonical(resp) -> tuple:
    """Order- and ulp-insensitive serialization of a TopologyResponse."""
    nodes = tuple(
        sorted((n.id, n.kind, tuple(sorted(n.ips))) for n in resp.graph.nodes())
    )
    edges = []
    for e in resp.graph.edges():
        if e.a <= e.b:
            row = (e.a, e.b, _q(e.util_ab_bps), _q(e.util_ba_bps))
        else:
            row = (e.b, e.a, _q(e.util_ba_bps), _q(e.util_ab_bps))
        edges.append(row + (_q(e.capacity_bps), _q(e.latency_s), _q(e.jitter_s)))
    sites = tuple(
        sorted(
            (s, st.status.name, st.detail, _q(st.data_age_s), st.attempts)
            for s, st in resp.site_status.items()
        )
    )
    return (
        nodes,
        tuple(sorted(edges)),
        resp.status.name,
        tuple(sorted(resp.unresolved)),
        tuple(sorted(resp.anchors.items())),
        sites,
        resp.pdu_cost,
        _q(resp.data_age_s),
    )


class TestFaultFreeByteIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_answers_identical_across_shard_counts(self, n_shards):
        world_f, flat = _deploy(seed=11)
        world_s, sharded = _deploy(
            seed=11, sharding=ShardingConfig(n_shards=n_shards)
        )
        for i, req in enumerate(_workload(world_s, seed=23)):
            a, b = _aligned(req, world_f, flat, world_s, sharded)
            assert canonical(a) == canonical(b), (
                f"query {i} diverged with n_shards={n_shards}"
            )

    def test_replicas_identical(self):
        """Replicas are failover capacity; fault-free they must be
        invisible in the answers."""
        world_f, flat = _deploy(seed=5)
        world_s, sharded = _deploy(
            seed=5, sharding=ShardingConfig(n_shards=4, replicas=1)
        )
        for i, req in enumerate(_workload(world_s, seed=41)):
            a, b = _aligned(req, world_f, flat, world_s, sharded)
            assert canonical(a) == canonical(b), (
                f"query {i} diverged with replicas"
            )

    def test_identical_under_background_traffic(self):
        world_f, flat = _deploy(seed=29)
        world_s, sharded = _deploy(seed=29, sharding=ShardingConfig(n_shards=4))
        for w in (world_f, world_s):
            names = sorted(w.sites)
            w.net.flows.start_flow(
                w.host(names[0]), w.host(names[9]), demand_bps=2_000_000
            )
            w.net.engine.run_until(w.net.now + 3.0)
        for i, req in enumerate(_workload(world_s, seed=17)):
            a, b = _aligned(req, world_f, flat, world_s, sharded)
            assert canonical(a) == canonical(b), (
                f"query {i} diverged under background traffic"
            )

    def test_modeler_flow_answers_identical(self):
        """End to end through the Modeler: flow answers match too."""
        world_f, flat = _deploy(seed=13)
        world_s, sharded = _deploy(seed=13, sharding=ShardingConfig(n_shards=4))
        names = sorted(world_f.sites)
        pairs = [(names[0], names[11]), (names[3], names[14])]
        flat_session, sharded_session = flat.session(), sharded.session()
        for src, dst in pairs:
            fa = flat_session.flow_info(world_f.host(src), world_f.host(dst))
            sa = sharded_session.flow_info(world_s.host(src), world_s.host(dst))
            assert _q(fa.available_bps) == _q(sa.available_bps)
            assert _q(fa.latency_s) == _q(sa.latency_s)
            assert fa.status == sa.status


@st.composite
def _scoped_query(draw):
    """(world seed, shard count, non-empty (site, host) index pairs)."""
    host = st.tuples(st.integers(0, N_SITES - 1), st.integers(0, 1))
    pair = st.tuples(host, host).filter(lambda p: p[0] != p[1])
    return (
        draw(st.integers(0, 2**16)),
        draw(st.sampled_from([2, 4, 8])),
        draw(st.lists(pair, min_size=1, max_size=12)),
    )


def _scoped_request(world, index_pairs) -> TopologyRequest:
    """A request naming the host pairs ``((site, host), (site, host))``."""
    names = sorted(world.sites)

    def ip(site_idx, host_idx):
        return str(world.sites[names[site_idx]].hosts[host_idx].interfaces[0].ip)

    pairs = frozenset((ip(*a), ip(*b)) for a, b in index_pairs)
    return TopologyRequest(
        tuple(sorted({h for pair in pairs for h in pair})), pairs=pairs
    )


def _probes_run(dep) -> int:
    return sum(b.probes_run for b in dep.benchmarks.values())


class TestScopedStitchByteIdentity:
    """A request that names the pairs it will read is stitched by the
    same routine on both planes: same edges, same probes, same bytes."""

    @given(_scoped_query())
    @settings(max_examples=15, deadline=None)
    def test_scoped_requests_identical_to_flat(self, spec):
        seed, n_shards, index_pairs = spec
        world_f, flat = _deploy(seed=seed)
        world_s, sharded = _deploy(seed=seed, sharding=ShardingConfig(n_shards=n_shards))
        req = _scoped_request(world_f, index_pairs)
        site_pairs = {frozenset((a, b)) for (a, _), (b, _) in index_pairs if a != b}
        # cold, then warm: the second answer reuses the first's
        # measurements and reads its probe bytes in the SNMP counters
        for turn in ("cold", "warm"):
            a, b = _aligned(req, world_f, flat, world_s, sharded)
            assert canonical(a) == canonical(b), f"{turn} answers diverged"
            assert _probes_run(flat) == _probes_run(sharded) == 2 * len(site_pairs)


class TestFaultedNoWorse:
    """Under identical scripted faults the sharded plane's answers are
    equal-or-better: same healthy-site payloads, overall status never
    ranked worse than the flat Master's."""

    PLAN = faults.FaultPlan()

    def _faulted_answer(self, sharding):
        world, dep = _deploy(seed=37, sharding=sharding)
        faults.install(dep, self.PLAN)
        names = sorted(world.sites)
        victim = names[2]
        req = TopologyRequest.of(
            [str(world.sites[n].hosts[0].interfaces[0].ip) for n in names[:6]]
        )
        dep.master.topology(req)  # warm: populates LKG for the victim
        faults.crash_collector(dep.snmp_collectors[victim], 60.0)
        resp = dep.master.topology(req)
        return names, victim, resp

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_site_crash_degrades_no_worse_than_flat(self, n_shards):
        names, victim, flat_resp = self._faulted_answer(None)
        _, _, shard_resp = self._faulted_answer(ShardingConfig(n_shards=n_shards))
        assert _RANK[shard_resp.status] <= _RANK[flat_resp.status]
        for site in names[:6]:
            f, s = flat_resp.site_status[site], shard_resp.site_status[site]
            if site == victim:
                # both planes served the quarantined site from LKG
                assert f.status == s.status == QueryStatus.STALE
                assert _RANK[s.status] <= _RANK[f.status]
            else:
                assert (s.site, s.status, s.detail) == (f.site, f.status, f.detail)
