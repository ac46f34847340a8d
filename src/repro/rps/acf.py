"""Autocovariance and differencing utilities for RPS models."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ModelFitError


def acvf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocovariances gamma(0..max_lag) (biased, 1/n norm).

    Computed via FFT so fitting AR(16) on long histories stays cheap —
    the divisor ``n`` (not ``n-k``) keeps the covariance sequence
    non-negative definite, which Levinson-Durbin and the innovations
    algorithm require.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ModelFitError("need at least 2 observations for autocovariance")
    if max_lag >= n:
        raise ModelFitError(f"max_lag {max_lag} >= series length {n}")
    xc = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n - 1)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1] / n
    return acov


def acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations rho(0..max_lag)."""
    g = acvf(x, max_lag)
    if g[0] <= 0:
        raise ModelFitError("zero-variance series has no autocorrelation")
    return g / g[0]


def undifference_forecasts(
    forecasts: np.ndarray, last_values: np.ndarray, d: int
) -> np.ndarray:
    """Integrate forecasts of a d-times differenced series back to the
    original scale.  ``last_values`` are the final ``d`` observations of
    each intermediate differencing level, outermost first (as returned
    by :func:`difference_levels`)."""
    f = np.asarray(forecasts, dtype=float)
    for level in range(d - 1, -1, -1):
        f = last_values[level] + np.cumsum(f)
    return f


def difference_levels(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Difference d times, also returning the last value of each level.

    Returns (differenced series, last_values) where ``last_values[k]``
    is the final observation after ``k`` rounds of differencing — what
    :func:`undifference_forecasts` needs to integrate back.
    """
    x = np.asarray(x, dtype=float)
    lasts = np.empty(d)
    for k in range(d):
        if x.size < 2:
            raise ModelFitError("series too short to difference")
        lasts[k] = x[-1]
        x = np.diff(x)
    return x, lasts


def fractional_diff_weights(d: float, n: int) -> np.ndarray:
    """Coefficients pi_0..pi_{n-1} of (1-B)^d (pi_0 = 1).

    pi_j = pi_{j-1} * (j - 1 - d) / j — the binomial expansion used for
    fractional differencing in ARFIMA models.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    w = np.empty(n)
    w[0] = 1.0
    for j in range(1, n):
        w[j] = w[j - 1] * (j - 1 - d) / j
    return w


def fractional_difference(x: np.ndarray, d: float) -> np.ndarray:
    """Apply the truncated fractional differencing filter (1-B)^d."""
    x = np.asarray(x, dtype=float)
    w = fractional_diff_weights(d, x.size)
    # y_t = sum_{j<=t} pi_j x_{t-j}: a causal convolution
    return np.convolve(x, w)[: x.size]
