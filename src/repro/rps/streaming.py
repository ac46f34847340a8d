"""Streaming predictors attached to collectors.

Paper §2.3: "For environments where predictions can be shared,
streaming predictors offer the ability to amortize the cost of
prediction over several consumers.  Streaming predictors operate in
tandem with collectors … As each sample became available, it would be
fed to a directly attached streaming predictor.  The collector would
then make these predictions available to modelers that were
interested."

:class:`StreamingPredictionManager` attaches to an
:class:`~repro.collectors.snmp_collector.SnmpCollector`: after every
polling sweep it feeds each monitored link's fresh rate sample into a
per-(link, direction) :class:`~repro.rps.predictor.StreamingPredictor`.
Modelers then read forecasts without paying a model fit per query —
the other side of the client-server/streaming trade-off Fig. 7 prices.

This lives in ``repro.rps`` (not ``repro.collectors``) because the
dependency points *up* the stack: the manager consumes a collector's
poll hooks and drives RPS predictors, so placing it beside the
predictors keeps the collectors layer free of any knowledge of
prediction (the layer contract of ``tests/invariants/test_layers.py``).
The metric names keep their historical ``collectors.streaming.*``
prefix — they describe where the samples are observed, and renaming
them would orphan dashboards.
"""

from __future__ import annotations

from repro import obs
from repro.common.errors import PredictionError
from repro.collectors.base import HistoryRequest
from repro.collectors.monitor import MonitorKey, Series
from repro.collectors.snmp_collector import SnmpCollector
from repro.rps.predictor import StreamingPredictor


class StreamingPredictionManager:
    """Per-link streaming predictors fed by a collector's poll loop."""

    def __init__(
        self,
        collector: SnmpCollector,
        spec: str = "AR(16)",
        horizon: int = 10,
        min_history: int = 32,
    ) -> None:
        self.collector = collector
        self.spec = spec
        self.horizon = horizon
        self.min_history = min_history
        #: (MonitorKey, direction) -> StreamingPredictor
        self.predictors: dict[tuple[MonitorKey, str], StreamingPredictor] = {}
        #: (MonitorKey, direction) -> the monitor's ``samples_appended``
        #: when the predictor was last fed.  Not an index into the rate
        #: series: that stops growing once the monitor's ring is full.
        self._fed: dict[tuple[MonitorKey, str], int] = {}
        self.samples_fed = 0
        collector.post_poll_hooks.append(self.on_poll)
        collector.streaming = self

    def on_poll(self) -> None:
        """Feed every ready monitor's samples since the last poll."""
        for key, mon in self.collector.monitors.items():
            if not mon.ready:
                continue
            for direction in ("in", "out"):
                pkey = (key, direction)
                _, rates = mon.rate_history(direction)
                sp = self.predictors.get(pkey)
                if sp is None:
                    if rates.size < self.min_history:
                        continue
                    try:
                        sp = StreamingPredictor(
                            self.spec, rates[:-1], horizon=self.horizon
                        )
                    except PredictionError:
                        continue
                    self.predictors[pkey] = sp
                    self._fed[pkey] = mon.samples_appended - 1
                new = min(mon.samples_appended - self._fed[pkey], rates.size)
                for value in rates[rates.size - new :]:
                    sp.observe(float(value))
                    self.samples_fed += 1
                    obs.counter("collectors.streaming.samples_fed").inc()
                self._fed[pkey] = mon.samples_appended
        obs.gauge("collectors.streaming.predictors").set(len(self.predictors))

    def forecast_edge(
        self, request: HistoryRequest, horizon: int
    ) -> tuple[Series, Series] | None:
        """Forecast utilization for an edge (request direction), using
        the already-fitted streaming predictor — no fit at query time."""
        for pkey in self.collector.edge_monitors(request):
            sp = self.predictors.get(pkey)
            if sp is None:
                continue
            fc = sp.forecast()
            k = min(horizon, fc.values.size)
            if k < 1:
                continue
            return fc.values[:k], fc.variances[:k]
        return None
