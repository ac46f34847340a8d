"""Tests for the RPS model family: fit, stream, forecast semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import ModelFitError, PredictionError
from repro.rps.hostload import ar_trace, host_load_trace
from repro.rps.models import (
    ArimaModel,
    ArmaModel,
    ArModel,
    FarimaModel,
    LastModel,
    MaModel,
    MeanModel,
    RefittingModel,
    WindowModel,
    parse_model,
)

ALL_SPECS = [
    "MEAN", "LAST", "BM(8)", "AR(16)", "MA(8)",
    "ARMA(4,4)", "ARIMA(2,1,2)", "ARFIMA(2,0)", "REFIT(AR(8),64)",
]


@pytest.fixture(scope="module")
def load():
    return host_load_trace(3000, seed=42)


class TestParseModel:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_roundtrip_spec(self, spec):
        m = parse_model(spec)
        assert m.spec.replace(" ", "") == spec.replace(" ", "")

    def test_case_insensitive(self):
        assert parse_model("ar(4)").spec == "AR(4)"

    @pytest.mark.parametrize("bad", ["XX", "AR", "AR(1,2)", "ARIMA(1,1)", "REFIT(AR(4))"])
    def test_bad_specs(self, bad):
        with pytest.raises(PredictionError):
            parse_model(bad)


class TestCommonContract:
    """Every model family must honour the same fit/step/forecast contract."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_forecast_shape_and_finiteness(self, spec, load):
        f = parse_model(spec).fit(load[:800])
        fc = f.forecast(10)
        assert fc.values.shape == (10,)
        assert fc.variances.shape == (10,)
        assert np.all(np.isfinite(fc.values))
        assert np.all(fc.variances >= 0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_streaming_updates_forecast(self, spec, load):
        f = parse_model(spec).fit(load[:800])
        before = f.forecast(1).values[0]
        # feed a large excursion; the forecast must respond (except MEAN,
        # which moves slowly by design)
        for _ in range(50):
            f.step(10.0)
        after = f.forecast(1).values[0]
        if spec != "MEAN":
            assert abs(after - before) > 0.5
        else:
            assert after > before

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_variances_nondecreasing_short_horizon(self, spec, load):
        """Forecast uncertainty must not shrink with the horizon."""
        f = parse_model(spec).fit(load[:800])
        fc = f.forecast(8)
        assert all(
            fc.variances[i + 1] >= fc.variances[i] - 1e-9 for i in range(7)
        )

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_step_many(self, spec, load):
        f = parse_model(spec).fit(load[:500])
        f.step_many(load[500:600])
        assert np.isfinite(f.forecast(1).values[0])


class TestMeanLast:
    def test_mean_tracks_average(self):
        f = MeanModel().fit(np.array([1.0, 2.0, 3.0]))
        assert f.forecast(1).values[0] == pytest.approx(2.0)
        f.step(6.0)
        assert f.forecast(1).values[0] == pytest.approx(3.0)

    def test_last_is_last(self):
        f = LastModel().fit(np.array([1.0, 5.0]))
        assert f.forecast(3).values[2] == 5.0
        f.step(7.0)
        assert f.forecast(1).values[0] == 7.0

    def test_last_variance_grows_linearly(self):
        f = LastModel().fit(np.array([0.0, 1.0, 0.0, 1.0]))
        v = f.forecast(4).variances
        assert v[3] == pytest.approx(4 * v[0])

    def test_empty_fit_rejected(self):
        with pytest.raises(ModelFitError):
            MeanModel().fit(np.array([]))


class TestWindow:
    def test_window_mean(self):
        f = WindowModel(2).fit(np.array([1.0, 2.0, 3.0, 4.0]))
        assert f.forecast(1).values[0] == pytest.approx(3.5)
        f.step(10.0)
        assert f.forecast(1).values[0] == pytest.approx(7.0)

    def test_bad_window(self):
        with pytest.raises(ModelFitError):
            WindowModel(0)


class TestAr:
    def test_ar_beats_mean_on_ar_data(self):
        x = ar_trace(4000, [0.8], seed=11)
        ar = ArModel(1).fit(x[:2000])
        mean = MeanModel().fit(x[:2000])
        ar_se = mean_se = 0.0
        for v in x[2000:3000]:
            ar_se += (v - ar.forecast(1).values[0]) ** 2
            mean_se += (v - mean.forecast(1).values[0]) ** 2
            ar.step(v)
            mean.step(v)
        assert ar_se < 0.55 * mean_se  # theory: (1-phi^2) = 0.36 ratio

    def test_ar_long_horizon_reverts_to_mean(self):
        x = ar_trace(3000, [0.5], seed=12) + 5.0
        f = ArModel(1).fit(x)
        fc = f.forecast(50)
        assert fc.values[-1] == pytest.approx(np.mean(x), abs=0.2)

    def test_variance_approaches_signal_variance(self):
        x = ar_trace(6000, [0.7], seed=13)
        f = ArModel(1).fit(x)
        fc = f.forecast(60)
        assert fc.variances[-1] == pytest.approx(np.var(x), rel=0.15)

    def test_order_too_large_for_data(self):
        with pytest.raises(ModelFitError):
            ArModel(50).fit(np.arange(20, dtype=float))

    def test_bad_order(self):
        with pytest.raises(ModelFitError):
            ArModel(0)


class TestArima:
    def test_tracks_trend(self):
        rng = np.random.default_rng(14)
        x = np.cumsum(1.0 + rng.normal(0, 0.1, 1000))  # slope-1 random walk
        f = ArimaModel(1, 1, 0).fit(x)
        fc = f.forecast(10)
        # forecast keeps climbing roughly 1/step
        assert fc.values[9] - x[-1] == pytest.approx(10.0, rel=0.3)

    def test_d0_equals_arma(self, load):
        a = ArimaModel(2, 0, 0).fit(load[:900])
        b = ArmaModel(2, 0).fit(load[:900])
        assert a.forecast(3).values == pytest.approx(b.forecast(3).values, rel=1e-9)

    def test_negative_d_rejected(self):
        with pytest.raises(ModelFitError):
            ArimaModel(1, -1, 0)


class TestFarima:
    def test_needs_data(self):
        with pytest.raises(ModelFitError):
            FarimaModel(1, 0).fit(np.arange(32, dtype=float))

    def test_captures_long_memory(self):
        from repro.rps.hostload import fgn

        x = fgn(4096, 0.85, seed=15)
        f = FarimaModel(1, 0).fit(x[:3000])
        assert 0.1 < f.d < 0.49  # d estimated in the persistent range


class TestRefitting:
    def test_refits_on_schedule(self, load):
        f = RefittingModel(ArModel(4), refit_interval=50).fit(load[:500])
        with obs.scoped_registry() as reg:
            for v in load[500:700]:
                f.step(v)
        assert f.refits == 4
        assert reg.counter("rps.refit.events", spec="AR(4)").value == 4

    def test_adapts_to_regime_change(self):
        x1 = ar_trace(800, [0.5], seed=16) + 1.0
        x2 = ar_trace(800, [0.5], seed=17) + 25.0
        f = RefittingModel(ArModel(4), refit_interval=100, window=200).fit(x1)
        for v in x2:
            f.step(v)
        assert f.forecast(1).values[0] == pytest.approx(25.0, abs=3.0)

    def test_bad_interval(self):
        with pytest.raises(ModelFitError):
            RefittingModel(ArModel(1), 0)
