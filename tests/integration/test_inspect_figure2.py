"""Tests for deployment inspection and the Figure-2 multi-master shape."""

import pytest

from repro.common.units import MBPS
from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.slp import DirectoryAgent
from repro.deploy import deploy_lan, deploy_wan
from repro.inspect import deployment_report, deployment_stats
from repro.modeler.api import Modeler
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.session import RemosSession


class TestInspection:
    def test_stats_reflect_activity(self):
        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan)
        dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 30.0)
        s = deployment_stats(dep)
        [coll] = s.collectors
        assert coll.queries_served >= 1
        assert coll.pdu_count > 0
        assert coll.monitors_ready == coll.monitors > 0
        assert coll.polls_done >= 5
        # stations = hosts + router iface (a single switch's own mgmt
        # MAC is a self entry, not a tracked station)
        assert s.bridge_stations["lan"] == 8 + 1
        assert s.modeler_queries == 1

    def test_report_renders(self):
        w = build_multisite_wan(
            [SiteSpec("a", access_bps=10 * MBPS, n_hosts=2),
             SiteSpec("b", access_bps=5 * MBPS, n_hosts=2)]
        )
        dep = deploy_wan(w)
        dep.session().flow_info(w.host("a", 0), w.host("b", 0))
        text = deployment_report(dep)
        assert "SNMP collectors" in text
        assert "benchmark collectors" in text
        assert "snmp-a" in text and "snmp-b" in text
        assert "MB injected" in text
        # a WAN site's paths end at its gateway: no route table walked,
        # the gateway's interface read from its ipAddrTable row
        assert "0 route tables, 1 gateway interfaces" in text
        for coll in deployment_stats(dep).collectors:
            assert (coll.cached_route_tables, coll.cached_gateway_ifaces) == (0, 1)


class TestFigure2Shape:
    def test_two_masters_share_collectors(self):
        """Per the paper's Fig. 2: independent masters at the two
        application sites, one set of collectors underneath."""
        world = build_multisite_wan(
            [
                SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
                SiteSpec("eth", access_bps=8 * MBPS, n_hosts=3),
                SiteSpec("bbn", access_bps=5 * MBPS, n_hosts=3),
            ]
        )
        base = deploy_wan(world)

        def session_for(site):
            directory = CollectorDirectory(DirectoryAgent(world.net))
            for reg in base.directory.registrations():
                directory.register(
                    reg.collector, [str(p) for p in reg.prefixes], reg.site,
                    remote=(reg.site != site),
                )
            for bench in base.benchmarks.values():
                directory.register_benchmark(bench)
            master = MasterCollector(f"master-{site}", world.net, directory, base.master.borders)
            return RemosSession(Modeler(master, world.net))

        cmu, eth = session_for("cmu"), session_for("eth")
        a1 = cmu.flow_info(world.host("cmu", 0), world.host("bbn", 0))
        a2 = eth.flow_info(world.host("eth", 0), world.host("bbn", 1))
        assert a1.available_bps == pytest.approx(5 * MBPS, rel=0.05)
        assert a2.available_bps == pytest.approx(5 * MBPS, rel=0.05)
        # the shared BBN collector served both masters
        assert base.snmp_collectors["bbn"].queries_served == 2
        # benchmark measurements were shared, not duplicated per master
        total_probes = sum(b.probes_run for b in base.benchmarks.values())
        assert total_probes <= 4
