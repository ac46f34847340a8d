"""Tests for the mini-SLP directory and its Master integration."""

import pytest

from repro.common.errors import UnknownHostError
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.collectors.base import TopologyRequest
from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.slp import SERVICE_BENCHMARK, SERVICE_TOPOLOGY, DirectoryAgent
from repro.deploy import deploy_wan


@pytest.fixture
def wan():
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=5 * MBPS, n_hosts=3),
        ]
    )
    return w, deploy_wan(w)


class TestDirectoryAgent:
    def test_register_and_find(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "service:remos-topology://x", object())
        assert len(da.find(SERVICE_TOPOLOGY)) == 1
        assert da.find(SERVICE_BENCHMARK) == []

    def test_scope_filtering(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object(), scopes=("campus",))
        assert da.find(SERVICE_TOPOLOGY, "default") == []
        assert len(da.find(SERVICE_TOPOLOGY, "campus")) == 1

    def test_lifetime_expiry(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object(), lifetime_s=100.0)
        assert len(da) == 1
        w.net.engine.run_until(w.net.now + 200.0)
        assert len(da) == 0
        assert da.find(SERVICE_TOPOLOGY) == []

    def test_refresh_extends_lease(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object(), lifetime_s=100.0)
        w.net.engine.run_until(w.net.now + 80.0)
        assert da.refresh("u1", lifetime_s=100.0)
        w.net.engine.run_until(w.net.now + 80.0)
        assert len(da) == 1

    def test_refresh_after_expiry_fails(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object(), lifetime_s=10.0)
        w.net.engine.run_until(w.net.now + 20.0)
        assert not da.refresh("u1")

    def test_reregister_replaces(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", "first")
        da.register(SERVICE_TOPOLOGY, "u1", "second")
        assert len(da) == 1
        assert da.find(SERVICE_TOPOLOGY)[0].provider == "second"

    def test_attributes(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object(), attributes={"k": 1})
        assert da.attributes("u1") == {"k": 1}
        with pytest.raises(UnknownHostError):
            da.attributes("nope")

    def test_deregister(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        da.register(SERVICE_TOPOLOGY, "u1", object())
        da.deregister("u1")
        da.deregister("u1")  # idempotent
        assert len(da) == 0


class TestSlpBackedMaster:
    def _slp_master(self, w, dep):
        da = DirectoryAgent(w.net)
        slp_dir = CollectorDirectory(da)
        for site, coll in dep.snmp_collectors.items():
            slp_dir.register(coll, [str(p) for p in coll.config.domains], site)
        for bench in dep.benchmarks.values():
            slp_dir.register_benchmark(bench)
        borders = {s: dep.master.borders[s] for s in dep.master.borders}
        return da, MasterCollector("slp-master", w.net, slp_dir, borders)

    def test_lookup_via_slp(self, wan):
        w, dep = wan
        da, master = self._slp_master(w, dep)
        resp = master.topology(
            TopologyRequest.of([w.host("a", 0).ip, w.host("b", 0).ip])
        )
        path = resp.graph.path(str(w.host("a", 0).ip), str(w.host("b", 0).ip))
        assert "a-gw" in path and "b-gw" in path

    def test_expired_collector_disappears(self, wan):
        w, dep = wan
        da = DirectoryAgent(w.net)
        slp_dir = CollectorDirectory(da)
        slp_dir.register(
            dep.snmp_collectors["a"],
            [str(p) for p in dep.snmp_collectors["a"].config.domains],
            "a",
            lifetime_s=50.0,
        )
        master = MasterCollector("m", w.net, slp_dir)
        ok = master.topology(TopologyRequest.of([w.host("a", 0).ip]))
        assert not ok.unresolved
        w.net.engine.run_until(w.net.now + 100.0)  # lease expires
        gone = master.topology(TopologyRequest.of([w.host("a", 0).ip]))
        assert str(w.host("a", 0).ip) in gone.unresolved

    def test_single_site_query_is_one_unanchored_delegation(self):
        """SLP lookups build a fresh Registration per call; the Master
        must still see one registration, not one per address."""
        sites = [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=5 * MBPS, n_hosts=3),
        ]
        w_flat, w_slp = build_multisite_wan(sites), build_multisite_wan(sites)
        flat = deploy_wan(w_flat).master
        dep = deploy_wan(w_slp)
        da, master = self._slp_master(w_slp, dep)

        seen = []
        collector = dep.snmp_collectors["a"]
        answer = collector.topology
        collector.topology = lambda request: seen.append(request) or answer(request)

        def ask(m, w):
            return m.topology(TopologyRequest.of([w.host("a", i).ip for i in range(3)]))

        resp = ask(master, w_slp)
        assert len(seen) == 1 and seen[0].anchor_ip is None
        assert len(seen[0].node_ips) == 3
        assert resp.graph.to_dict() == ask(flat, w_flat).graph.to_dict()
