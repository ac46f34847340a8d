"""Tests for the jitter metric (§6.2 extension)."""

import pytest

from repro.common.units import MBPS
from repro.collectors.monitor import LinkMonitor, MonitorKey
from repro.modeler.graph import HOST, SWITCH, TopoEdge, TopoNode, TopologyGraph
from repro.modeler.maxmin import predict_flows
from repro.modeler.simplify import simplify
from repro.netsim.builders import build_switched_lan
from repro.netsim.traffic import RandomWalkTraffic
from repro.deploy import deploy_lan


class TestMonitorJitter:
    def _monitor_with_rates(self, rates, capacity):
        mon = LinkMonitor(MonitorKey("10.0.0.1", 1))
        total = 0.0
        for i, r in enumerate(rates):
            total += r / 8.0  # 1-second intervals
            mon.record(float(i), 0.0, total)
        return mon

    def test_steady_load_no_jitter(self):
        mon = self._monitor_with_rates([5e6] * 20, 10e6)
        assert mon.jitter_estimate(10e6, 0.001) == pytest.approx(0.0, abs=1e-9)

    def test_fluctuating_load_has_jitter(self):
        rates = [1e6, 9e6] * 10
        mon = self._monitor_with_rates(rates, 10e6)
        assert mon.jitter_estimate(10e6, 0.001) > 1e-4

    def test_heavier_fluctuation_more_jitter(self):
        mild = self._monitor_with_rates([4e6, 6e6] * 10, 10e6)
        wild = self._monitor_with_rates([0.5e6, 9.5e6] * 10, 10e6)
        assert wild.jitter_estimate(10e6, 0.001) > mild.jitter_estimate(10e6, 0.001)

    def test_infinite_capacity_no_jitter(self):
        mon = self._monitor_with_rates([1e6] * 10, 10e6)
        assert mon.jitter_estimate(float("inf"), 0.001) == 0.0

    def test_too_little_history(self):
        mon = LinkMonitor(MonitorKey("x", 1))
        assert mon.jitter_estimate(10e6, 0.001) == 0.0


class TestPathJitterComposition:
    def _graph(self, jitters):
        g = TopologyGraph()
        g.add_node(TopoNode("h1", HOST))
        g.add_node(TopoNode("h2", HOST))
        prev = "h1"
        for i, j in enumerate(jitters):
            sid = f"s{i}"
            g.add_node(TopoNode(sid, SWITCH))
            g.add_edge(TopoEdge(prev, sid, 10e6, jitter_s=j))
            prev = sid
        g.add_edge(TopoEdge(prev, "h2", 10e6))
        return g

    def test_rss_composition(self):
        g = self._graph([0.003, 0.004])
        [p] = predict_flows(g, [("h1", "h2")])
        assert p.jitter_s == pytest.approx(0.005)  # 3-4-5 triangle

    def test_simplify_preserves_path_jitter(self):
        g = self._graph([0.003, 0.004, 0.002])
        [before] = predict_flows(g, [("h1", "h2")])
        s = simplify(g, protect={"h1", "h2"})
        [after] = predict_flows(s, [("h1", "h2")])
        assert after.jitter_s == pytest.approx(before.jitter_s)


class TestEndToEndJitter:
    def test_loaded_fluctuating_path_reports_jitter(self):
        lan = build_switched_lan(4, fanout=4)
        dep = deploy_lan(lan)
        # steady path first
        dep.session().flow_info(lan.hosts[0], lan.hosts[3])
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 60.0)
        calm = dep.session().flow_info(lan.hosts[0], lan.hosts[3])
        # now make the path's load fluctuate hard
        gen = RandomWalkTraffic(
            lan.net, lan.hosts[0], lan.hosts[3],
            lo_bps=1 * MBPS, hi_bps=95 * MBPS, sigma_bps=40 * MBPS,
            step_s=1.0, seed=5,
        )
        gen.start()
        lan.net.engine.run_until(lan.net.now + 120.0)
        busy = dep.session().flow_info(lan.hosts[0], lan.hosts[3])
        gen.stop()
        assert busy.jitter_s > calm.jitter_s
        assert busy.jitter_s > 0
