"""ARIMA(p, d, q): ARMA on a d-times differenced series."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ModelFitError
from repro.rps.acf import difference_levels, undifference_forecasts
from repro.rps.fit import psi_weights
from repro.rps.models.arma import ArmaModel, FittedArma
from repro.rps.models.base import FittedModel, Forecast, Model


class FittedArima(FittedModel):
    """Streaming state: the inner fitted ARMA plus the last value at
    each differencing level (to difference new samples incrementally
    and to integrate forecasts back)."""

    def __init__(self, inner: FittedArma, d: int, level_lasts: np.ndarray) -> None:
        p, q = inner.phi.size, inner.theta.size
        self.spec = f"ARIMA({p},{d},{q})"
        self.inner = inner
        self.d = d
        #: last observed value after k rounds of differencing, k = 0..d-1
        self._lasts = np.array(level_lasts, dtype=float)

    def step(self, value: float) -> None:
        w = float(value)
        for k in range(self.d):
            w, self._lasts[k] = w - self._lasts[k], w
        self.inner.step(w)

    def forecast(self, horizon: int) -> Forecast:
        preds = undifference_forecasts(
            self.inner.forecast(horizon).values, self._lasts, self.d
        )
        # psi weights of the integrated process: cumulative-sum the
        # ARMA psi weights d times.
        psi = psi_weights(self.inner.phi, self.inner.theta, horizon)
        for _ in range(self.d):
            psi = np.cumsum(psi)
        variances = self.inner.sigma2 * np.cumsum(psi**2)
        return Forecast(preds, variances)


class ArimaModel(Model):
    """ARIMA(p, d, q) via differencing + Hannan-Rissanen."""

    def __init__(self, p: int, d: int, q: int) -> None:
        if d < 0:
            raise ModelFitError("d must be >= 0")
        self.p, self.d, self.q = p, d, q
        self._arma = ArmaModel(p, q)

    @property
    def spec(self) -> str:
        return f"ARIMA({self.p},{self.d},{self.q})"

    def fit(self, data: np.ndarray) -> FittedArima:
        data = np.asarray(data, dtype=float)
        diffed, lasts = difference_levels(data, self.d)
        inner = self._arma.fit(diffed)
        return FittedArima(inner, self.d, lasts)
