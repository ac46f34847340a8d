"""Host instrumentation: trace-backed load sources.

RPS collects host load through its own sensor (paper §3.3: "RPS does
this through a host load sensor"), so hosts expose a ``load(now)``
callable rather than a MIB entry.  This module wires synthetic load
traces onto hosts for the prediction experiments.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.topology import Host


class TraceLoadSource:
    """Piecewise-constant load from a pre-generated trace.

    ``trace[k]`` is the load during ``[k*dt, (k+1)*dt)``; beyond the
    trace end the series wraps around, so long simulations stay defined.
    """

    def __init__(self, trace: np.ndarray, dt: float = 1.0, t0: float = 0.0) -> None:
        trace = np.asarray(trace, dtype=float)
        if trace.ndim != 1 or trace.size == 0:
            raise ValueError("trace must be a non-empty 1-D array")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.trace = trace
        self.dt = dt
        self.t0 = t0

    def __call__(self, now: float) -> float:
        k = int((now - self.t0) / self.dt) % self.trace.size
        return float(self.trace[k])


def attach_trace(host: Host, trace: np.ndarray, dt: float = 1.0) -> TraceLoadSource:
    """Attach a trace-backed load source and return it."""
    src = TraceLoadSource(trace, dt)
    host.load_source = src
    return src
