"""RPS sensors: periodic measurement sources feeding predictors.

"In the current implementation, Remos relies on RPS collecting data
itself ... through a host load sensor and a network flow bandwidth
sensor (the latter is itself a Remos application)" (paper §3.3).

* :class:`HostLoadSensor` samples a simulated host's load average at a
  fixed rate and feeds an attached :class:`StreamingPredictor`.
* :class:`FlowBandwidthSensor` periodically issues a Remos flow query
  through a Modeler and streams the available-bandwidth answers — the
  "Remos application" flavour of sensor.

Both track the cumulative *CPU cost* of measurement + prediction so the
Fig. 6 experiment (CPU usage vs measurement rate) can be reproduced: the
cost of each step is measured with a real process-time clock and then
charged against the sampling period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.common.status import QueryStatus
from repro.netsim.topology import Host, Network
from repro.rps.predictor import StreamingPredictor


@dataclass
class SensorStats:
    samples: int = 0
    #: real CPU seconds spent in measurement + prediction
    cpu_seconds: float = 0.0
    #: last forecast values
    last_forecast: np.ndarray | None = None


class HostLoadSensor:
    """Samples ``host.load`` periodically into a streaming predictor."""

    def __init__(
        self,
        net: Network,
        host: Host,
        predictor: StreamingPredictor,
        rate_hz: float = 1.0,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        self.net = net
        self.host = host
        self.predictor = predictor
        self.period_s = 1.0 / rate_hz
        self.stats = SensorStats()
        self._timer = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.net.engine.every(self.period_s, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        """One measurement -> prediction step (callable directly in tests)."""
        value = self.host.load(self.net.now)
        t0 = obs.cpu_now()
        fc = self.predictor.observe(value)
        self.stats.cpu_seconds += obs.cpu_now() - t0
        self.stats.samples += 1
        self.stats.last_forecast = fc.values

    def cpu_fraction(self) -> float:
        """Fraction of one CPU consumed at the configured rate."""
        if self.stats.samples == 0:
            return 0.0
        per_sample = self.stats.cpu_seconds / self.stats.samples
        return per_sample / self.period_s


class SnmpHostLoadSensor:
    """Host-load sensing over SNMP (hrProcessorLoad).

    The alternative to the local :class:`HostLoadSensor`: a *remote*
    monitor polls the host's Host Resources MIB, paying SNMP PDUs per
    sample and seeing the load quantised to integer percent.  Useful
    when the monitoring system cannot run code on the measured node.
    """

    def __init__(
        self,
        client,
        host_ip,
        predictor: StreamingPredictor | None = None,
        rate_hz: float = 1.0,
        engine=None,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        from repro.snmp import oid as O

        self._oid = O.HR_PROCESSOR_LOAD + 1
        self.client = client
        self.host_ip = str(host_ip)
        self.predictor = predictor
        self.period_s = 1.0 / rate_hz
        self.engine = engine if engine is not None else client.world.net.engine
        self.stats = SensorStats()
        self.samples: list[tuple[float, float]] = []
        self._timer = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.engine.every(self.period_s, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        from repro.common.errors import SnmpError

        try:
            pct = float(self.client.get(self.host_ip, self._oid))
        except SnmpError:
            return  # unreachable this round: skip the sample
        load = pct / 100.0
        self.samples.append((self.engine.now, load))
        self.stats.samples += 1
        if self.predictor is not None:
            t0 = obs.cpu_now()
            fc = self.predictor.observe(load)
            self.stats.cpu_seconds += obs.cpu_now() - t0
            self.stats.last_forecast = fc.values


class FlowBandwidthSensor:
    """Periodically issues flow queries and streams the answers.

    This sensor *is* a Remos application: it exercises the full
    Modeler -> Master -> collectors path on every sample.  Being an
    application, it consumes the session API from *above* — callers
    hand it a session-like object (anything with ``flow_info`` and a
    ``modeler``, normally ``deployment.session()``); the rps layer
    never constructs a session itself, which would invert the layer
    DAG (rps sits below the session facade).
    """

    def __init__(
        self,
        session,
        src,
        dst,
        predictor: StreamingPredictor | None = None,
        period_s: float = 10.0,
    ) -> None:
        if not hasattr(session, "flow_info"):
            raise TypeError(
                "FlowBandwidthSensor takes a session-like object with a "
                ".flow_info method (e.g. deployment.session()), not a "
                f"bare {type(session).__name__!r}"
            )
        self.session = session
        self.modeler = session.modeler
        self.src = src
        self.dst = dst
        self.predictor = predictor
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []  # (time, available bps)
        self.stats = SensorStats()
        self._timer = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.modeler.net.engine.every(self.period_s, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        ans = self.session.flow_info(self.src, self.dst)
        if ans.status is QueryStatus.FAILED:
            # nothing was measured: record no sample and keep the
            # timer alive so sensing resumes with the network
            return
        self.samples.append((self.modeler.net.now, ans.available_bps))
        self.stats.samples += 1
        if self.predictor is not None:
            t0 = obs.cpu_now()
            fc = self.predictor.observe(ans.available_bps)
            self.stats.cpu_seconds += obs.cpu_now() - t0
            self.stats.last_forecast = fc.values

    def series(self) -> np.ndarray:
        return np.array([v for _, v in self.samples], dtype=float)
