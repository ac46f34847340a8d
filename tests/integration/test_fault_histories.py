"""Generated fault *histories* against the one survivable delegation.

``MasterCollector._delegate`` serves both tiers — a registration is a
replica chain of one, a shard a longer one — so what the scripted chaos
suites check for one hand-written crash is checked here for generated
sequences of steps on a seeded ``build_random_wan`` world, run
against a flat and a sharded plane:

* crash / recover a site collector (both planes),
* crash a shard's primary, or the whole shard (sharded plane),
* let the clock run, past ``QUARANTINE_S`` and past the crashes,

each followed by a query.  The plane has one last-known-good store, so
a crashed shard primary is invisible: site by site, the sharded plane
answers what the flat Master answers, except for a shard whose whole
replica chain has been down (the flat Master kept asking its collectors
meanwhile).  Steps happen on a grid of ``SLOT`` seconds.
Both simulations are run to the same grid instant before every step,
crashes last and quarantine lapses an odd number of half slots, and a
query takes a fraction of a slot — so no decision in either plane sits
at a boundary that the small clock skew between two separate
simulations could tip.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.collectors import master as master_mod
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.common.status import _RANK, QueryStatus
from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan

N_SITES, N_SHARDS = 6, 3
SLOT = 60.0
_site = st.integers(0, N_SITES - 1)
_steps = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("crash_site"), _site, st.sampled_from([1.5, 2.5, 4.5])),
            st.tuples(st.just("recover_site"), _site),
            st.tuples(st.just("crash_primary"), st.integers(0, N_SHARDS - 1)),
            st.tuples(st.just("crash_shard"), st.integers(0, N_SHARDS - 1)),
            st.tuples(st.just("advance"), st.integers(0, 3)),
        ),
        st.integers(0, 2),  # which of _Plane.requests() to ask afterwards
    ),
    min_size=3,
    max_size=9,
)


@pytest.fixture(scope="module", autouse=True)
def _quarantine_of_one_and_a_half_slots():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master_mod, "QUARANTINE_S", 1.5 * SLOT)
        yield


class _Plane:
    """One deployed plane with every delegation of every tier watched."""

    def __init__(self, seed: int, sharding: ShardingConfig | None) -> None:
        self.world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 2))
        self.dep = deploy_wan(
            self.world,
            bench_config=BenchmarkConfig(probe_bytes=50_000, max_age_s=3600.0),
            sharding=sharding,
        )
        self.names = sorted(self.world.sites)
        #: (master, delegate, its parts' LKG entries before and after,
        #: clock before, response, statuses)
        self.delegations: list[tuple] = []
        for master in self.dep.master.iter_masters():
            self._watch(master)

    def _watch(self, master) -> None:
        inner = master._delegate

        def watched(d):
            held = [master._lkg.get(key) for key in d.parts]
            before = master.net.now
            sub, statuses = inner(d)
            after = [master._lkg.get(key) for key in d.parts]
            self.delegations.append((master, d, held, after, before, sub, statuses))
            return sub, statuses

        master._delegate = watched

    def collector(self, site_index: int):
        return self.dep.snmp_collectors[self.names[site_index]]

    def requests(self) -> list[TopologyRequest]:
        def first_hosts(names):
            return TopologyRequest.of(
                [str(self.world.sites[n].hosts[0].interfaces[0].ip) for n in names]
            )

        return [
            first_hosts(self.names),
            first_hosts(self.names[:2]),
            first_hosts(self.names[3:4]),
        ]

    def check_delegations(self) -> None:
        """The delegation contract, at every tier that delegated: a site
        is STALE exactly when it is served from the fragment held for
        its registration, and then exactly as old as that fragment; no
        site is FAILED while a fragment is held for it."""
        for master, d, held, after, before, sub, statuses in self.delegations:
            for ((site, _), _), was_held, entry in zip(d.parts, held, after):
                status = statuses[site]
                if was_held is not None:
                    assert sub is not None, (master, d.what)
                    assert status.status != QueryStatus.FAILED, (master, d.what, status)
                if status.status == QueryStatus.STALE:
                    assert entry is not None, (master, d.what, status)
                    since = master.net.now - entry[1]
                    assert before - entry[1] - 1e-9 <= status.data_age_s <= since + 1e-9
        self.delegations.clear()


@given(st.integers(0, 3), st.integers(0, 1), _steps)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sharded_plane_is_no_worse_under_fault_histories(seed, replicas, steps):
    flat = _Plane(seed, None)
    sharded = _Plane(seed, ShardingConfig(n_shards=N_SHARDS, replicas=replicas))
    #: sites of every shard whose whole replica chain has been down
    chain_down: set[str] = set()
    slot = 0
    for step, asked in steps:
        slot += 1
        if step[0] == "advance":
            slot += step[1]
        for plane in (flat, sharded):
            assert plane.world.net.now < slot * SLOT  # a query fits its slot
            plane.world.net.engine.run_until(slot * SLOT)
        if step[0] == "crash_site":
            for plane in (flat, sharded):
                faults.crash_collector(plane.collector(step[1]), step[2] * SLOT)
        elif step[0] == "recover_site":
            for plane in (flat, sharded):
                coll = plane.collector(step[1])
                if coll.crashed_until is not None:  # what its restart does
                    coll.crashed_until = None
                    coll.flush_caches()
        elif step[0] in ("crash_primary", "crash_shard"):
            faults.crash_shard(
                sharded.dep.master, step[1], 2.5 * SLOT,
                include_replicas=step[0] == "crash_shard",
            )
            if step[0] == "crash_shard" or replicas == 0:
                chain_down.update(sharded.dep.master.shards[step[1]].sites)
        f = flat.dep.master.topology(flat.requests()[asked])
        s = sharded.dep.master.topology(sharded.requests()[asked])
        flat.check_delegations()
        sharded.check_delegations()
        # the shard tier adds failover paths and takes none away: a
        # promoted replica holds what its primary stored, so outside a
        # shard whose whole chain has been down the sharded plane answers
        # what the flat Master answers, site by site
        assert {k: v.status for k, v in s.site_status.items() if k not in chain_down} == {
            k: v.status for k, v in f.site_status.items() if k not in chain_down
        }
        if not chain_down:
            assert _RANK[s.status] <= _RANK[f.status]
