"""Survival state follows a registration's (site, collector name), not
the ``Registration`` object's ``id()``.

``MasterCollector._lkg`` and ``_quarantine`` used to be keyed on
``id(reg)``: once a directory replaced a site's Registration the old
fragment could no longer be reached by ``invalidate_sites`` (stranded
for the life of the Master), the same collector registered again lost
the fragment it had earned, and a later, unrelated Registration could
be handed the freed id and inherit somebody else's state.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.collectors import master as master_mod
from repro.collectors.base import Collector, TopologyRequest, TopologyResponse
from repro.collectors.directory import CollectorDirectory
from repro.collectors.sharding import ShardingConfig
from repro.collectors.slp import DirectoryAgent
from repro.common.errors import CollectorUnavailableError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan

SITES = ("a", "b", "c", "d")
VICTIM = "b"


class _DeadCollector(Collector):
    """A replacement that never manages to answer."""

    def covers(self, ip) -> bool:
        return True

    def topology(self, request: TopologyRequest) -> TopologyResponse:
        raise CollectorUnavailableError(f"collector {self.name} is down", agent=self.name)


@pytest.fixture(autouse=True)
def _short_quarantine(monkeypatch):
    monkeypatch.setattr(master_mod, "QUARANTINE_S", 5.0)


def _stack(sharded: bool):
    world = build_multisite_wan(
        [SiteSpec(name, access_bps=10 * MBPS, n_hosts=2) for name in SITES]
    )
    dep = deploy_wan(
        world, sharding=ShardingConfig(n_shards=2) if sharded else None
    )
    request = TopologyRequest.of([str(world.host(s, 0).ip) for s in SITES])
    return world, dep, request


def _reregister(master, site: str, collector: Collector) -> None:
    """Replace ``site``'s Registration in every directory of the plane
    (a fresh object each time, everything else in its old order)."""
    for m in master.iter_masters():
        old = m.directory
        new = CollectorDirectory(DirectoryAgent(master.net))
        for reg in old.registrations():
            new.register(
                collector if reg.site == site else reg.collector,
                list(reg.prefixes), reg.site, reg.remote,
            )
        for name in old.sites():
            bench = old.benchmark_for(name)
            if bench is not None:
                new.register_benchmark(bench)
        m.directory = new


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
class TestReRegistration:
    def test_same_collector_keeps_its_fragment(self, sharded):
        world, dep, request = _stack(sharded)
        assert dep.master.topology(request).status == QueryStatus.OK
        collector = dep.snmp_collectors[VICTIM]
        _reregister(dep.master, VICTIM, collector)
        faults.crash_collector(collector, 600.0)
        resp = dep.master.topology(request)
        assert resp.status == QueryStatus.STALE
        assert resp.site_status[VICTIM].status == QueryStatus.STALE
        assert resp.site_status[VICTIM].data_age_s > 0

    def test_replacement_does_not_inherit_the_old_fragment(self, sharded):
        world, dep, request = _stack(sharded)
        assert dep.master.topology(request).status == QueryStatus.OK
        _reregister(dep.master, VICTIM, _DeadCollector(f"snmp-{VICTIM}-v2", world.net))
        resp = dep.master.topology(request)
        # its predecessor's data is not this collector's last-known-good
        assert resp.status == QueryStatus.PARTIAL
        assert resp.site_status[VICTIM].status == QueryStatus.FAILED
        for site in SITES:
            if site != VICTIM:
                assert resp.site_status[site].status == QueryStatus.OK

    def test_old_fragment_is_not_stranded(self, sharded):
        world, dep, request = _stack(sharded)
        dep.master.topology(request)
        # one store per plane: the root reports all of it
        before = dep.master.health()["lkg_fragments"]
        assert before == len(SITES)
        _reregister(dep.master, VICTIM, _DeadCollector(f"snmp-{VICTIM}-v2", world.net))
        dep.master.topology(request)  # quarantines the replacement
        with obs.scoped_registry() as reg:
            dep.master.invalidate_sites([VICTIM])
        # the fragment fetched through the old Registration is gone ...
        assert dep.master.health()["lkg_fragments"] == before - 1
        assert reg.counter("collectors.master.lkg_invalidated").value >= 1
        # ... and so is the quarantine mark: the next query re-probes
        assert all(
            m.health()["quarantined"] == 0 for m in dep.master.iter_masters()
        )


class TestBoundedLastKnownGood:
    def test_lru_cap_and_a_served_entry_is_recent(self, monkeypatch):
        monkeypatch.setattr(master_mod, "LKG_MAX_FRAGMENTS", 3)
        world, dep, _ = _stack(sharded=False)

        def ask(site: str, i: int):
            return dep.master.topology(TopologyRequest.of([str(world.host(site, i).ip)]))

        with obs.scoped_registry() as reg:
            for site in SITES:  # eight distinct host sets, each its own fragment
                for i in range(2):
                    assert ask(site, i).status == QueryStatus.OK
            assert dep.master.health()["lkg_fragments"] == 3
            # held, oldest first: (c, 1), (d, 0), (d, 1)
            faults.crash_collector(dep.snmp_collectors["d"], 600.0)
            assert ask("d", 0).status == QueryStatus.STALE  # served: now the newest
            ask("a", 0)  # evicts (c, 1)
            ask("a", 1)  # evicts (d, 1), not the just-served (d, 0)
            assert ask("d", 0).status == QueryStatus.STALE
            assert ask("d", 1).status == QueryStatus.FAILED
            gauges = obs.export.snapshot(reg)["gauges"]
        assert dep.master.health()["lkg_fragments"] == 3
        assert gauges[f"collectors.master.lkg_fragments{{collector={dep.master.name}}}"] == 3
