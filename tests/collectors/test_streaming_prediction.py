"""Tests for collector-attached streaming predictors (§2.3)."""

import pytest

from repro import faults, obs
from repro.collectors.base import HistoryRequest
from repro.common.errors import CollectorUnavailableError
from repro.common.units import MBPS
from repro.deploy import deploy_lan, deploy_wan
from repro.netsim.builders import build_random_wan, build_switched_lan
from repro.rps.service import RpsPredictionService


@pytest.fixture
def streaming_lan():
    lan = build_switched_lan(8, fanout=8)
    dep = deploy_lan(lan, poll_interval_s=2.0)
    dep.modeler.prediction_service = RpsPredictionService("AR(8)")
    lan.net.flows.start_flow(lan.hosts[0], lan.hosts[7], demand_bps=30 * MBPS)
    dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # discover
    managers = dep.enable_streaming_prediction("AR(8)", min_history=16)
    dep.start_monitoring()
    lan.net.engine.run_until(lan.net.now + 120.0)
    return lan, dep, managers


class TestStreamingManagers:
    def test_predictors_materialize_from_polling(self, streaming_lan):
        lan, dep, managers = streaming_lan
        [mgr] = managers
        assert mgr.predictors, "polling must have built predictors"
        assert mgr.samples_fed > 0
        fed = mgr.samples_fed
        with obs.scoped_registry() as reg:
            lan.net.engine.run_until(lan.net.now + 10.0)
        assert reg.counter("collectors.streaming.samples_fed").value == mgr.samples_fed - fed > 0

    def test_forecast_edge_answers(self, streaming_lan):
        lan, dep, managers = streaming_lan
        coll = dep.snmp_collectors["lan"]
        out = coll.forecast_edge(
            HistoryRequest(str(lan.hosts[0].ip), "sw0"), horizon=5
        )
        assert out is not None
        preds, variances = out
        assert preds.shape == (5,)
        # the link carries ~30 Mbps: the forecast must be in that zone
        assert preds[-1] == pytest.approx(30 * MBPS, rel=0.2)

    def test_predictive_query_uses_streaming_not_fit(self, streaming_lan):
        lan, dep, managers = streaming_lan
        server = dep.modeler.prediction_service.server
        before = server.requests_served
        ans = dep.session().flow_info(
            lan.hosts[0], lan.hosts[7], predict=True
        )
        assert ans.predicted_bps is not None
        assert ans.predicted_bps == pytest.approx(70 * MBPS, rel=0.15)
        # no client-server fit was paid: the streaming path answered
        assert server.requests_served == before

    def test_fallback_without_streaming(self):
        lan = build_switched_lan(4, fanout=4)
        dep = deploy_lan(lan, poll_interval_s=2.0)
        dep.modeler.prediction_service = RpsPredictionService("AR(8)")
        dep.session().flow_info(lan.hosts[0], lan.hosts[3])
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 120.0)
        server = dep.modeler.prediction_service.server
        before = server.requests_served
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[3], predict=True)
        assert ans.predicted_bps is not None
        # the client-server path (fit per query) answered instead
        assert server.requests_served == before + 1

    def test_enable_idempotent(self, streaming_lan):
        lan, dep, managers = streaming_lan
        again = dep.enable_streaming_prediction("AR(8)")
        assert again == []  # already attached


class TestFeedingPastHistoryLen:
    """Once a monitor's ring is full its rate series stops growing; the
    manager must keep feeding by samples appended, not by series length."""

    HISTORY_LEN = 64

    def _deployment(self):
        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan, poll_interval_s=2.0)
        coll = dep.snmp_collectors["lan"]
        coll.config.history_len = self.HISTORY_LEN
        flow = lan.net.flows.start_flow(
            lan.hosts[0], lan.hosts[7], demand_bps=30 * MBPS
        )
        dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # discover
        [mgr] = dep.enable_streaming_prediction("AR(8)", min_history=16)
        return lan, coll, mgr, flow

    def test_samples_keep_flowing_once_the_ring_is_full(self):
        lan, coll, mgr, _ = self._deployment()
        for _ in range(self.HISTORY_LEN + 8):
            coll.poll_once()
            lan.net.engine.advance(2.0)
        ready = [m for m in coll.monitors.values() if m.ready]
        assert ready and all(len(m.samples) == self.HISTORY_LEN for m in ready)
        for _ in range(40):
            before = mgr.samples_fed
            coll.poll_once()
            lan.net.engine.advance(2.0)
            # one new interval per direction per ready monitor
            assert mgr.samples_fed - before == 2 * len(ready)

    def test_forecast_tracks_a_step_change_after_the_ring_filled(self):
        lan, coll, mgr, flow = self._deployment()
        dep_request = HistoryRequest(str(lan.hosts[0].ip), "sw0")
        for _ in range(self.HISTORY_LEN + 8):
            coll.poll_once()
            lan.net.engine.advance(2.0)
        preds, _ = coll.forecast_edge(dep_request, horizon=5)
        assert preds[0] == pytest.approx(30 * MBPS, rel=0.2)
        lan.net.flows.set_demand(flow, 60 * MBPS)
        for _ in range(40):
            coll.poll_once()
            lan.net.engine.advance(2.0)
        preds, _ = coll.forecast_edge(dep_request, horizon=5)
        assert preds[0] == pytest.approx(60 * MBPS, rel=0.2)


class TestCrashedCollectorPredictsNothing:
    """One liveness rule for both reads of a collector's history: what
    ``history()`` refuses while crashed, ``forecast_edge()`` refuses."""

    def test_forecast_edge_is_refused_like_history(self, streaming_lan):
        lan, dep, _ = streaming_lan
        coll = dep.snmp_collectors["lan"]
        request = HistoryRequest(str(lan.hosts[0].ip), "sw0")
        assert dep.master.forecast_edge(request, 5) is not None
        faults.crash_collector(coll, 600.0)
        with pytest.raises(CollectorUnavailableError):
            coll.history(request)
        with pytest.raises(CollectorUnavailableError):
            coll.forecast_edge(request, 5)
        # the Master asks the others, and nobody else watches this edge
        assert dep.master.forecast_edge(request, 5) is None
        assert dep.master.history(request) is None

    def test_a_memoized_topology_does_not_keep_a_dead_sites_prediction(self):
        world = build_random_wan(4, seed=3, hosts_per_site=(2, 2))
        dep = deploy_wan(world)
        dep.modeler.prediction_service = RpsPredictionService("AR(8)")
        site = sorted(world.sites)[0]
        src, dst = world.sites[site].hosts[:2]
        session = dep.session()
        session.flow_info(src, dst)  # discover
        dep.start_monitoring()
        world.net.engine.run_until(world.net.now + 120.0)
        dep.modeler.query_cache_ttl_s = 3600.0
        assert session.flow_info(src, dst, predict=True).predicted_bps is not None
        faults.crash_collector(dep.snmp_collectors[site], 600.0)
        # the topology is still served from the memo, and says so ...
        ans = session.flow_info(src, dst, predict=True)
        assert ans.ok and ans.available_bps > 0
        # ... but nobody alive can vouch for the edge's history
        assert ans.predicted_bps is None and ans.predicted_var is None


class TestMasterForecastFanout:
    def test_a_collector_that_declares_no_forecast_is_charged_no_rpc(self):
        """The base-class defaults answer what the Master used to probe
        for with ``getattr``: nothing to ask, so no RPC to charge."""
        from repro.collectors.base import Collector
        from repro.collectors.directory import CollectorDirectory
        from repro.collectors.master import MasterCollector
        from repro.netsim.address import IPv4Network
        from repro.netsim.topology import Network

        class Plain(Collector):
            def covers(self, ip):
                return True

            def topology(self, request):
                raise NotImplementedError

        assert "forecast_edge" not in vars(Plain) and "supports_forecast" not in vars(Plain)
        net = Network()
        directory = CollectorDirectory()
        directory.register(Plain("plain", net), [IPv4Network("10.0.0.0/8")], "lan", remote=True)
        master = MasterCollector("master", net, directory)
        t0 = net.now
        assert not master.supports_forecast()
        assert master.forecast_edge(HistoryRequest("a", "b"), 5) is None
        assert net.now == t0
        # history has no capability probe: the one collector is asked
        assert master.history(HistoryRequest("a", "b")) is None
        assert net.now - t0 == pytest.approx(master.rpc.remote_s)
