"""Tests for evaluator, predictors, host-load generation, and sensors."""

import numpy as np
import pytest

from repro import faults, obs
from repro.common.errors import PredictionError
from repro.common.units import MBPS
from repro.netsim.agents import attach_trace
from repro.netsim.builders import build_switched_lan
from repro.rps.evaluator import Evaluator
from repro.rps.hostload import ar_trace, fgn, host_load_trace
from repro.rps.models import parse_model
from repro.rps.predictor import ClientServerPredictor, StreamingPredictor
from repro.rps.sensors import FlowBandwidthSensor, HostLoadSensor
from repro.rps.service import RpsPredictionService
from repro.deploy import deploy_lan


class TestEvaluator:
    def test_errors_tracked_out_of_sample(self):
        x = ar_trace(2000, [0.7], seed=20)
        f = parse_model("AR(4)").fit(x[:1000])
        ev = Evaluator(f)
        for v in x[1000:1500]:
            ev.observe(v)
        rep = ev.report()
        assert rep.n == 128  # window
        assert 0 < rep.mse < np.var(x)
        # claimed variance should be roughly honest on stationary data
        assert 0.5 < rep.calibration_ratio < 2.0

    def test_no_refit_when_calibrated(self):
        x = ar_trace(3000, [0.6], seed=21)
        f = parse_model("AR(4)").fit(x[:1500])
        ev = Evaluator(f)
        for v in x[1500:2500]:
            ev.observe(v)
        assert not ev.needs_refit()

    def test_refit_flagged_on_regime_change(self):
        x = ar_trace(1500, [0.6], seed=22)
        f = parse_model("AR(4)").fit(x)
        ev = Evaluator(f, min_samples=16)
        shifted = ar_trace(100, [0.6], seed=23) * 6.0 + 10.0
        for v in shifted:
            ev.observe(v)
        assert ev.needs_refit()

    def test_min_samples_respected(self):
        x = ar_trace(1000, [0.6], seed=24)
        f = parse_model("AR(4)").fit(x)
        ev = Evaluator(f, min_samples=50)
        for v in (x[:30] * 100 + 100):
            ev.observe(v)
        assert not ev.needs_refit()


class TestClientServerPredictor:
    def test_stateless_requests(self):
        x = ar_trace(1000, [0.7], seed=25)
        server = ClientServerPredictor()
        with obs.scoped_registry() as reg:
            r1 = server.request(x, 5)
            r2 = server.request(x, 5)
        assert np.allclose(r1.forecast.values, r2.forecast.values)
        assert server.requests_served == 2
        assert reg.counter("rps.requests", mode="client_server").value == 2

    def test_spec_override(self):
        x = ar_trace(1000, [0.7], seed=26)
        server = ClientServerPredictor("AR(16)")
        r = server.request(x, 3, spec="LAST")
        assert r.spec == "LAST"
        assert np.all(r.forecast.values == x[-1])


class TestStreamingPredictor:
    def test_streams_and_forecasts(self):
        x = ar_trace(2000, [0.7], seed=27)
        sp = StreamingPredictor("AR(8)", x[:1000], horizon=3)
        fc = None
        for v in x[1000:1200]:
            fc = sp.observe(v)
        assert fc is not None and fc.values.shape == (3,)
        assert sp.samples_seen == 200

    def test_refits_when_miscalibrated(self):
        x = ar_trace(1200, [0.6], seed=28)
        sp = StreamingPredictor("AR(8)", x, refit_tolerance=1.5)
        # jump the level hard: evaluator must trigger at least one refit
        for v in ar_trace(600, [0.6], seed=29) + 30.0:
            sp.observe(v)
        assert sp.refits >= 1
        assert sp.forecast().values[0] == pytest.approx(30.0, abs=5.0)

    def test_needs_history(self):
        with pytest.raises(PredictionError):
            StreamingPredictor("AR(4)", np.array([1.0]))


class TestHostLoad:
    def test_fgn_variance_and_persistence(self):
        x = fgn(4096, 0.8, seed=30)
        assert np.var(x) == pytest.approx(1.0, rel=0.2)
        # persistent: lag-1 autocorrelation = 2^(2H-1) - 1 ≈ 0.52
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho1 == pytest.approx(2 ** (2 * 0.8 - 1) - 1, abs=0.08)

    def test_fgn_h_half_is_white(self):
        x = fgn(4096, 0.5, seed=31)
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho1) < 0.06

    def test_fgn_validation(self):
        with pytest.raises(ValueError):
            fgn(10, 1.5)
        with pytest.raises(ValueError):
            fgn(0, 0.5)

    def test_host_load_positive_and_reproducible(self):
        a = host_load_trace(500, seed=7)
        b = host_load_trace(500, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a >= 0)

    def test_ar_trace_stationary(self):
        x = ar_trace(5000, [0.9], seed=32)
        # variance of AR(1): sigma2/(1-phi^2) ≈ 5.26
        assert np.var(x) == pytest.approx(1 / (1 - 0.81), rel=0.25)


class TestSensors:
    def test_host_load_sensor_streams(self):
        lan = build_switched_lan(2)
        h = lan.hosts[0]
        trace = host_load_trace(2000, seed=33)
        attach_trace(h, trace, dt=1.0)
        sp = StreamingPredictor("AR(8)", trace[:600])
        sensor = HostLoadSensor(lan.net, h, sp, rate_hz=1.0)
        sensor.start()
        lan.net.engine.run_until(100.0)
        sensor.stop()
        assert sensor.stats.samples == 100
        assert sensor.stats.cpu_seconds > 0
        assert 0 <= sensor.cpu_fraction() < 1.0

    def test_flow_bandwidth_sensor_is_remos_app(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        sensor = FlowBandwidthSensor(
            dep.session(), lan.hosts[0], lan.hosts[3], period_s=10.0
        )
        sensor.start()
        lan.net.engine.run_until(lan.net.now + 60.0)
        sensor.stop()
        assert sensor.stats.samples >= 5
        series = sensor.series()
        assert np.all(series == pytest.approx(100 * MBPS, rel=0.05))

    def test_flow_bandwidth_sensor_records_no_failed_answer(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        faults.crash_collector(dep.snmp_collectors["lan"], 1000.0)
        sensor = FlowBandwidthSensor(
            dep.session(), lan.hosts[0], lan.hosts[3], period_s=10.0
        )
        sensor.start()
        lan.net.engine.run_until(lan.net.now + 30.0)
        sensor.stop()
        assert sensor.samples == [] and sensor.stats.samples == 0

    def test_flow_bandwidth_sensor_rejects_non_session(self):
        # the sensor takes the session facade, not a Modeler or a
        # deployment — the error must say where to get one
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        with pytest.raises(TypeError, match="session"):
            FlowBandwidthSensor(dep.modeler, lan.hosts[0], lan.hosts[3])

    def test_flow_bandwidth_sensor_uses_session_api(self):
        # the sensor was migrated off the deprecated Modeler.flow_query
        # shim; its ticks must be DeprecationWarning-free
        import warnings

        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        sensor = FlowBandwidthSensor(
            dep.session(), lan.hosts[0], lan.hosts[3], period_s=10.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sensor.start()
            lan.net.engine.run_until(lan.net.now + 30.0)
            sensor.stop()
        assert sensor.stats.samples >= 2

    def test_bad_rate(self):
        lan = build_switched_lan(2)
        sp = StreamingPredictor("LAST", np.arange(10, dtype=float))
        with pytest.raises(ValueError):
            HostLoadSensor(lan.net, lan.hosts[0], sp, rate_hz=0)


class TestPredictionService:
    def test_predicts_with_preferred_model(self):
        x = ar_trace(1000, [0.7], seed=34)
        svc = RpsPredictionService("AR(16)")
        with obs.scoped_registry() as reg:
            preds, variances = svc.predict_series(x, 3)
        assert preds.shape == (3,)
        assert np.all(variances >= 0)
        assert reg.counter("rps.service.requests").value == 1

    def test_falls_back_on_short_history(self):
        svc = RpsPredictionService("AR(16)")
        with obs.scoped_registry() as reg:
            preds, _ = svc.predict_series(np.array([5.0, 5.0, 5.0]), 2)
        assert preds == pytest.approx([5.0, 5.0])
        assert reg.counter("rps.service.fallbacks", failed_spec="AR(16)").value == 1

    def test_last_resort_constant(self):
        svc = RpsPredictionService("AR(16)", fallbacks=())
        with obs.scoped_registry() as reg:
            preds, variances = svc.predict_series(np.array([2.0]), 2)
        assert np.all(preds == 2.0)
        assert np.all(variances == 0.0)
        assert reg.counter("rps.service.last_resort").value == 1


class TestModelerPredictionIntegration:
    def test_predictive_flow_query(self):
        lan = build_switched_lan(4)
        dep = deploy_lan(lan)
        dep.modeler.prediction_service = RpsPredictionService("AR(4)")
        # build up utilization history via periodic polling
        lan.net.flows.start_flow(lan.hosts[0], lan.hosts[3], demand_bps=40 * MBPS)
        session = dep.session()
        session.flow_info(lan.hosts[0], lan.hosts[3])  # discover + monitor
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 120.0)
        ans = session.flow_info(
            lan.hosts[0], lan.hosts[3], predict=True, horizon_steps=1
        )
        assert ans.predicted_bps is not None
        assert ans.predicted_bps == pytest.approx(60 * MBPS, rel=0.1)
