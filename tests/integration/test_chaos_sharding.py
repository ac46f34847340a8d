"""Chaos for the sharded Master plane: crashes, promotion, one store.

Extends the flat-plane chaos contracts (``test_chaos.py``) one tier up:

* a crashed shard *primary* is invisible — a replica is promoted and
  answers **fresh**, because it re-queries the still-alive site
  collectors, and it holds what its primary stored, because the plane
  has one last-known-good store;
* with every replica of a shard down, each of the shard's sites is
  served STALE from its registration's fragment, with a truthful,
  monotonically growing ``data_age_s``, or FAILED and unresolved when
  no fragment is held — never STALE without one;
* the whole circus is deterministic: same seeds, same fault script,
  same answers.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.collectors import master as master_mod
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardedMaster, ShardingConfig
from repro.common.status import QueryStatus
from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan

N_SITES = 12
PLAN = faults.FaultPlan()


def _stack(replicas: int = 1, seed: int = 19):
    world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=ShardingConfig(n_shards=4, replicas=replicas),
    )
    faults.install(dep, PLAN)
    return world, dep


def _request(world, dep):
    """A query spanning every shard, so one shard's fate is visible
    against healthy neighbours."""
    names = sorted(world.sites)
    ips = [str(world.sites[n].hosts[0].interfaces[0].ip) for n in names]
    return names, TopologyRequest.of(ips)


def _victim_shard(dep):
    """The shard with the most sites (always non-empty)."""
    return max(dep.master.shards, key=lambda s: len(s.sites))


class TestReplicaPromotion:
    def test_primary_crash_is_invisible(self):
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        with obs.scoped_registry() as reg:
            assert dep.master.topology(req).status == QueryStatus.OK

            faults.crash_shard(dep.master, victim.index, 60.0,
                               include_replicas=False)
            resp = dep.master.topology(req)

            # the replica re-queried the live site collectors: the
            # answer is fresh and complete, not a stale LKG serve
            assert resp.status == QueryStatus.OK
            assert all(
                resp.site_status[s].status == QueryStatus.OK for s in names
            )
            assert reg.counter("collectors.sharded.replica_promotions").value >= 1
            assert reg.counter("collectors.sharded.lkg_served").value == 0

    def test_primary_recovers_after_downtime(self):
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        victim = _victim_shard(dep)
        faults.crash_shard(dep.master, victim.index, 60.0,
                           include_replicas=False)
        assert dep.master.topology(req).status == QueryStatus.OK
        world.net.engine.run_until(world.net.now + 120.0)
        assert victim.masters[0].crashed_until is None
        with obs.scoped_registry() as reg:
            assert dep.master.topology(req).status == QueryStatus.OK
            assert reg.counter("collectors.sharded.replica_promotions").value == 0


class TestShardLkgFailover:
    def test_whole_shard_down_serves_stale_with_growing_age(self):
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        assert dep.master.topology(req).status == QueryStatus.OK  # fills LKG

        faults.crash_shard(dep.master, victim.index, 600.0)
        ages = []
        with obs.scoped_registry() as reg:
            for _ in range(3):
                world.net.engine.run_until(world.net.now + 20.0)
                resp = dep.master.topology(req)
                # degraded, never FAILED: the other shards still answer
                assert resp.status == QueryStatus.STALE
                for site in names:
                    st = resp.site_status[site]
                    if site in victim.sites:
                        # served from its own registration's fragment,
                        # with the shard's failure as the reason
                        assert st.status == QueryStatus.STALE
                        assert st.detail == "shard quarantined" or "is down" in st.detail
                        assert st.data_age_s > 0.0
                    else:
                        assert st.status == QueryStatus.OK
                ages.append(
                    max(resp.site_status[s].data_age_s for s in victim.sites)
                )
            assert reg.counter("collectors.sharded.lkg_served").value == 3
            # once quarantined, later queries skip the dead replica chain
            assert reg.counter("collectors.master.quarantine_skips").value >= 1
        assert ages == sorted(ages) and ages[0] < ages[-1]

    def test_shard_recovers_fresh_after_restart(self):
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        victim = _victim_shard(dep)
        dep.master.topology(req)
        faults.crash_shard(dep.master, victim.index, 60.0)
        world.net.engine.run_until(world.net.now + 10.0)
        assert dep.master.topology(req).status == QueryStatus.STALE
        # outlive both the crash and the quarantine window
        world.net.engine.run_until(world.net.now + 120.0)
        resp = dep.master.topology(req)
        assert resp.status == QueryStatus.OK
        assert all(s.status == QueryStatus.OK for s in resp.site_status.values())

    def test_no_lkg_means_partial_not_failed(self):
        world, dep = _stack(replicas=0)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        # cold crash: no prior query, so no LKG to fall back on
        faults.crash_shard(dep.master, victim.index, 600.0)
        resp = dep.master.topology(req)
        assert resp.status == QueryStatus.PARTIAL
        for site in names:
            if site in victim.sites:
                assert site not in resp.site_status or (
                    resp.site_status[site].status == QueryStatus.FAILED
                )
            else:
                assert resp.site_status[site].status == QueryStatus.OK
        # the healthy sites' fragments are all present in the answer
        healthy_switches = {f"{s}-sw" for s in names if s not in victim.sites}
        node_ids = {n.id for n in resp.graph.nodes()}
        assert healthy_switches <= node_ids


class TestDeterministicReplay:
    @staticmethod
    def _scenario():
        world, dep = _stack(replicas=1)
        names, req = _request(world, dep)
        victim = _victim_shard(dep)
        trace = []
        with obs.scoped_registry() as reg:
            for step in range(4):
                if step == 1:
                    faults.crash_shard(dep.master, victim.index, 45.0,
                                       include_replicas=False)
                if step == 2:
                    faults.crash_shard(dep.master, victim.index, 90.0)
                resp = dep.master.topology(req)
                trace.append(
                    (
                        round(world.net.now, 9),
                        resp.status.name,
                        tuple(
                            (s, st.status.name, round(st.data_age_s, 9), st.attempts)
                            for s, st in sorted(resp.site_status.items())
                        ),
                        len(resp.graph.nodes()),
                        len(resp.graph.edges()),
                    )
                )
                world.net.engine.run_until(world.net.now + 15.0)
            injected = reg.counter("faults.injected", kind="shard_crash").value
        return trace, injected

    def test_same_seed_same_fault_script_same_answers(self):
        first = self._scenario()
        second = self._scenario()
        assert first == second
        assert first[1] == 2.0  # both scripted crashes fired, exactly once


@pytest.mark.parametrize("depth", [1])
def test_hierarchy_depth_survives_primary_crash(depth):
    """Promotion works at every tier of the plane; the plane has one."""
    world = build_random_wan(N_SITES, seed=23, hosts_per_site=(2, 3))
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=ShardingConfig(n_shards=4, replicas=1),
    )
    faults.install(dep, PLAN)
    names, req = _request(world, dep)
    assert dep.master.topology(req).status == QueryStatus.OK
    # `depth` tiers of shards under the root: none of them shards again
    leaves = [m for m in dep.master.iter_masters() if m is not dep.master]
    assert depth == 1 and not any(isinstance(m, ShardedMaster) for m in leaves)
    leaf = next(m for m in leaves if m.name.endswith("-s0"))
    leaf.crashed_until = world.net.engine.now + 60.0
    resp = dep.master.topology(req)
    assert resp.status == QueryStatus.OK
    assert all(st.status == QueryStatus.OK for st in resp.site_status.values())


def _six_sites(replicas: int | None):
    """The 6-site seed-0 world, flat (``replicas`` None) or on 3 shards."""
    world = build_random_wan(6, seed=0)
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
        sharding=None if replicas is None else ShardingConfig(n_shards=3, replicas=replicas),
    )
    faults.install(dep, PLAN)
    return world, dep


class TestOneStorePerPlane:
    def test_every_master_holds_the_roots_state(self):
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        root = dep.master
        assert root.topology(req).status == QueryStatus.OK
        assert len(list(root.iter_masters())) == 1 + 4 * 2
        for m in root.iter_masters():
            assert m._lkg is root._lkg and m._quarantine is root._quarantine
        # one fragment per registration, none per shard
        assert len(root._lkg) == root.health()["lkg_fragments"] == N_SITES
        assert all(isinstance(reg_key, tuple) for reg_key, _ in root._lkg)

    def test_the_plane_is_bounded_in_total(self, monkeypatch):
        monkeypatch.setattr(master_mod, "LKG_MAX_FRAGMENTS", 3)
        world, dep = _stack(replicas=1)
        _, req = _request(world, dep)
        with obs.scoped_registry() as reg:
            dep.master.topology(req)
            gauges = obs.export.snapshot(reg)["gauges"]
        assert dep.master.health()["lkg_fragments"] == 3
        # one gauge, under the root's name
        assert {k: v for k, v in gauges.items() if "lkg_fragments" in k} == {
            f"collectors.master.lkg_fragments{{collector={dep.master.name}}}": 3
        }

    def test_promoted_replica_answers_as_the_flat_master(self):
        """A site that is down when its shard's primary crashes is STALE
        through the replica, as it is on the flat Master."""
        planes = [_six_sites(None), _six_sites(replicas=1)]
        names, req = _request(*planes[0])
        for _, dep in planes:
            assert dep.master.topology(req).status == QueryStatus.OK
        victim = names[0]
        t = max(world.net.now for world, _ in planes) + 10.0
        for world, dep in planes:
            world.net.engine.run_until(t)
            faults.crash_collector(dep.snmp_collectors[victim], 600.0)
        sharded = planes[1][1].master
        faults.crash_shard(
            sharded, sharded.shard_for_site(victim).index, 600.0, include_replicas=False
        )
        flat_resp, sharded_resp = (dep.master.topology(req) for _, dep in planes)
        assert flat_resp.site_status[victim].status == QueryStatus.STALE
        assert sharded_resp.status == flat_resp.status == QueryStatus.STALE
        assert {s: st.status for s, st in sharded_resp.site_status.items()} == {
            s: st.status for s, st in flat_resp.site_status.items()
        }

    def test_whole_shard_down_is_never_stale_without_a_fragment(self):
        world, dep = _six_sites(replicas=0)
        names, req = _request(world, dep)
        victim = names[0]
        host = req.node_ips[0]
        faults.crash_collector(dep.snmp_collectors[victim], 600.0)
        assert dep.master.topology(req).site_status[victim].status == QueryStatus.FAILED
        shard = dep.master.shard_for_site(victim)
        faults.crash_shard(dep.master, shard.index, 600.0)
        world.net.engine.run_until(world.net.now + 10.0)
        resp = dep.master.topology(req)
        assert resp.site_status[victim].status == QueryStatus.FAILED
        assert host in resp.unresolved
        assert all(host not in n.ips for n in resp.graph.nodes())
        # the shard's other sites are served from their own fragments
        for site in shard.sites:
            if site != victim:
                assert resp.site_status[site].status == QueryStatus.STALE
                assert resp.site_status[site].data_age_s >= 10.0
