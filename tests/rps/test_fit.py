"""Tests for fitting algorithms: Levinson-Durbin, innovations,
Hannan-Rissanen, GPH, and psi weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz

from repro.common.errors import ModelFitError
from repro.rps.acf import (
    acf,
    acvf,
    difference_levels,
    fractional_diff_weights,
    fractional_difference,
    undifference_forecasts,
)
from repro.rps.fit import (
    fit_ma_innovations,
    gph_estimate,
    hannan_rissanen,
    innovations,
    levinson_durbin,
    psi_weights,
    yule_walker,
)
from repro.rps.hostload import ar_trace, fgn


class TestAcvf:
    def test_lag_zero_is_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        g = acvf(x, 10)
        assert g[0] == pytest.approx(np.var(x), rel=1e-9)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        g = acvf(x, 5)
        xc = x - x.mean()
        for k in range(6):
            direct = np.dot(xc[: 200 - k], xc[k:]) / 200
            assert g[k] == pytest.approx(direct, abs=1e-10)

    def test_white_noise_acf_small(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20000)
        rho = acf(x, 5)
        assert rho[0] == 1.0
        assert np.abs(rho[1:]).max() < 0.05

    def test_too_short_series(self):
        with pytest.raises(ModelFitError):
            acvf(np.array([1.0]), 0)
        with pytest.raises(ModelFitError):
            acvf(np.array([1.0, 2.0]), 5)


class TestDifferencing:
    def test_difference_roundtrip(self):
        x = np.array([1.0, 3.0, 6.0, 10.0, 15.0])
        d1, lasts = difference_levels(x, 1)
        assert list(d1) == [2.0, 3.0, 4.0, 5.0]
        assert list(lasts) == [15.0]
        d2, lasts = difference_levels(x, 2)
        assert list(d2) == [1.0, 1.0, 1.0]
        assert list(lasts) == [15.0, 5.0]

    def test_difference_levels_and_integrate(self):
        x = np.cumsum(np.cumsum(np.arange(10, dtype=float)))
        w, lasts = difference_levels(x, 2)
        # forecast "the next 3 second differences" as the true ones
        true_next = np.array([10.0, 11.0, 12.0])
        integrated = undifference_forecasts(true_next, lasts, 2)
        # reconstruct ground truth by extending the original recursion
        full = np.cumsum(np.cumsum(np.arange(13, dtype=float)))
        assert np.allclose(integrated, full[10:])

    def test_fractional_weights_d1_matches_first_difference(self):
        w = fractional_diff_weights(1.0, 5)
        assert np.allclose(w, [1.0, -1.0, 0.0, 0.0, 0.0])

    def test_fractional_weights_d0_identity(self):
        w = fractional_diff_weights(0.0, 4)
        assert np.allclose(w, [1.0, 0.0, 0.0, 0.0])

    def test_fractional_difference_invertible(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        d = 0.3
        y = fractional_difference(x, d)
        x_back = fractional_difference(y, -d)
        # truncation makes this approximate at the tail, exact early
        assert np.allclose(x_back[:50], x[:50], atol=1e-8)


class TestLevinsonDurbin:
    def test_matches_toeplitz_solve(self):
        x = ar_trace(3000, [0.5, -0.3, 0.1], seed=4)
        g = acvf(x, 8)
        phi, sigma2 = levinson_durbin(g)
        direct = solve_toeplitz(g[:8], g[1:9])
        assert np.allclose(phi, direct, atol=1e-10)
        assert sigma2 > 0

    @given(st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_direct_solve(self, p, seed):
        x = np.random.default_rng(seed).normal(size=400)
        g = acvf(x, p)
        phi, sigma2 = levinson_durbin(g)
        direct = solve_toeplitz(g[:p], g[1 : p + 1])
        assert np.allclose(phi, direct, atol=1e-8)
        assert 0 <= sigma2 <= g[0] + 1e-12

    def test_recovers_ar_coefficients(self):
        true_phi = [0.6, -0.25]
        x = ar_trace(50000, true_phi, seed=5)
        phi, _, _ = yule_walker(x, 2)
        assert np.allclose(phi, true_phi, atol=0.03)

    def test_degenerate_input(self):
        with pytest.raises(ModelFitError):
            levinson_durbin(np.array([0.0, 0.0]))
        with pytest.raises(ModelFitError):
            levinson_durbin(np.array([1.0]))

    def test_constant_series(self):
        phi, sigma2, mu = yule_walker(np.full(100, 3.0), 4)
        assert np.allclose(phi, 0.0)
        assert sigma2 == 0.0
        assert mu == 3.0


class TestInnovations:
    def test_ma1_theta_recovered(self):
        rng = np.random.default_rng(6)
        e = rng.normal(size=50000)
        theta_true = 0.6
        x = e[1:] + theta_true * e[:-1]
        theta, sigma2, mu = fit_ma_innovations(x, 1)
        assert theta[0] == pytest.approx(theta_true, abs=0.05)
        assert sigma2 == pytest.approx(1.0, abs=0.08)

    def test_innovations_variances_decreasing(self):
        x = ar_trace(2000, [0.7], seed=7)
        g = acvf(x, 20)
        _, v = innovations(g, 20)
        assert v[0] == pytest.approx(g[0])
        assert all(v[i + 1] <= v[i] + 1e-12 for i in range(20))


class TestHannanRissanen:
    def test_arma11_recovered(self):
        rng = np.random.default_rng(8)
        n = 60000
        e = rng.normal(size=n + 1)
        x = np.zeros(n)
        phi_t, theta_t = 0.7, 0.4
        for t in range(1, n):
            x[t] = phi_t * x[t - 1] + e[t] + theta_t * e[t - 1]
        phi, theta, sigma2, mu = hannan_rissanen(x, 1, 1)
        assert phi[0] == pytest.approx(phi_t, abs=0.05)
        assert theta[0] == pytest.approx(theta_t, abs=0.07)
        assert sigma2 == pytest.approx(1.0, rel=0.1)

    def test_too_short_raises(self):
        with pytest.raises(ModelFitError):
            hannan_rissanen(np.arange(10, dtype=float), 2, 2)


class TestGph:
    def test_long_memory_detected(self):
        x = fgn(8192, 0.8, seed=9)
        d = gph_estimate(x)
        # fGn with H=0.8 has d = H - 0.5 = 0.3
        assert d == pytest.approx(0.3, abs=0.12)

    def test_white_noise_d_zero(self):
        x = np.random.default_rng(10).normal(size=8192)
        assert abs(gph_estimate(x)) < 0.1

    def test_short_series_raises(self):
        with pytest.raises(ModelFitError):
            gph_estimate(np.arange(10, dtype=float))


class TestPsiWeights:
    def test_ar1_psi_geometric(self):
        psi = psi_weights(np.array([0.5]), np.zeros(0), 6)
        assert np.allclose(psi, 0.5 ** np.arange(6))

    def test_ma_psi_is_theta(self):
        theta = np.array([0.3, -0.2])
        psi = psi_weights(np.zeros(0), theta, 5)
        assert np.allclose(psi, [1.0, 0.3, -0.2, 0.0, 0.0])

    def test_arma11_recursion(self):
        psi = psi_weights(np.array([0.5]), np.array([0.2]), 4)
        # psi_1 = theta_1 + phi_1 = 0.7; psi_2 = phi*psi_1 = 0.35
        assert np.allclose(psi, [1.0, 0.7, 0.35, 0.175])
