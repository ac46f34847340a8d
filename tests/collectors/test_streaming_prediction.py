"""Tests for collector-attached streaming predictors (§2.3)."""

import pytest

from repro.common.units import MBPS
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan
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

    def test_forecast_edge_answers(self, streaming_lan):
        lan, dep, managers = streaming_lan
        from repro.collectors.base import HistoryRequest

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
        from repro.collectors.base import HistoryRequest

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
