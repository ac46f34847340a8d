"""Per-interface utilization monitoring from octet counters.

A :class:`LinkMonitor` samples one interface's ``ifInOctets`` /
``ifOutOctets`` over SNMP and keeps a bounded history of
``(time, in, out)`` triples.  Utilization over the last sampling
interval is the counter delta — exactly what the paper's SNMP Collector
computes every 5 seconds (§3.1.1), and what Figs. 4–5 evaluate against
ground truth.  The retained history is also the input to RPS
predictions of link bandwidth.

A sample is turned into a rate once, when it is appended: the interval
it closes goes into a bounded ring of ``(end time, in bps, out bps)``
beside the raw samples, and every reader — the latest rate, the series
handed to RPS, the jitter estimate — reads that ring.  A series only
changes when a sample arrives, so nothing is re-derived per query.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import cast

import numpy as np
import numpy.typing as npt

from repro.common.errors import SnmpError
from repro.netsim.address import IPv4Address
from repro.snmp import oid as O
from repro.snmp.client import SnmpClient


@dataclass(frozen=True)
class MonitorKey:
    """Identity of a monitored interface: agent address + ifIndex."""

    agent_ip: str
    ifindex: int


#: one series (interval end times, or rates) as handed to RPS
Series = npt.NDArray[np.float64]

#: 32-bit octet counters (legacy agents) wrap at this modulus
_WRAP32 = 2.0**32


def _counter_delta(prev: float, cur: float) -> float:
    """Octet delta between two readings, wrap- and reset-aware.

    A large negative jump (more than half the 32-bit range) is a
    counter wrap — the true delta continues past the modulus.  A small
    negative jump means the counter rebased (device reboot); the
    interval's traffic is unknowable, so report zero rather than a
    wildly negative (or clamp-inflated) rate.
    """
    d = cur - prev
    if d < -_WRAP32 / 2:
        d += _WRAP32
    return d if d > 0.0 else 0.0


class LinkMonitor:
    """Counter history and utilization estimates for one interface."""

    def __init__(self, key: MonitorKey, history_len: int = 720) -> None:
        self.key = key
        #: (sim time, ifInOctets, ifOutOctets) samples
        self.samples: deque[tuple[float, float, float]] = deque(maxlen=history_len)
        #: samples ever appended; unlike ``len(samples)`` it keeps
        #: counting once the history is full, so a consumer that feeds on
        #: new samples can tell how many arrived since it last looked
        self.samples_appended = 0
        self.sample_failures = 0
        #: the intervals between retained samples, flat: (end time,
        #: in bps, out bps) per interval, oldest first
        self._intervals = array("d")
        self._intervals_max = 3 * max(history_len - 1, 0)
        #: (capacity_bps, base_latency_s) -> jitter, until the next append
        self._jitter: dict[tuple[float, float], float] = {}

    def sample(self, client: SnmpClient, now: float) -> bool:
        """Take one sample; returns False if the agent did not answer."""
        try:
            # octet counters are numeric, whatever else a GET may return
            inb, outb = cast(
                "list[float]",
                client.get_many(
                    self.key.agent_ip,
                    [O.IF_IN_OCTETS + self.key.ifindex, O.IF_OUT_OCTETS + self.key.ifindex],
                ),
            )
        except SnmpError:
            self.sample_failures += 1
            return False
        self.record(now, inb, outb)
        return True

    def record(self, now: float, in_octets: float, out_octets: float) -> None:
        """Store counter values fetched externally (batched polling:
        one multi-varbind PDU covers every link behind an agent, then
        the values are distributed to the monitors)."""
        in_octets, out_octets = float(in_octets), float(out_octets)
        if self.samples:
            t0, i0, o0 = self.samples[-1]
            dt = now - t0
            in_bps = out_bps = 0.0
            if dt > 0:
                in_bps = _counter_delta(i0, in_octets) * 8.0 / dt
                out_bps = _counter_delta(o0, out_octets) * 8.0 / dt
            self._intervals.extend((now, in_bps, out_bps))
            if len(self._intervals) > self._intervals_max:
                del self._intervals[: len(self._intervals) - self._intervals_max]
        self.samples.append((now, in_octets, out_octets))
        self.samples_appended += 1
        self._jitter.clear()

    @property
    def ready(self) -> bool:
        """Two samples are needed before a rate can be reported."""
        return bool(self._intervals)

    def rates_bps(self) -> tuple[float, float]:
        """(in_bps, out_bps) over the most recent sampling interval."""
        if not self.ready:
            return (0.0, 0.0)
        return (self._intervals[-2], self._intervals[-1])

    def jitter_estimate(self, capacity_bps: float, base_latency_s: float) -> float:
        """Delay-variation estimate from the utilization history.

        Each historical rate sample maps to a queueing-delay proxy
        ``base_latency * rho / (1 - rho)`` (the M/M/1 shape — delay
        grows without bound as the link saturates); jitter is the
        standard deviation of that series.  Crude, but it delivers the
        §6.2 multimedia metric from data the collector already has, and
        it is zero exactly when the link load is steady.
        """
        if not np.isfinite(capacity_bps) or capacity_bps <= 0:
            return 0.0
        memo = (capacity_bps, base_latency_s)
        jitter = self._jitter.get(memo)
        if jitter is None:
            jitter = self._jitter[memo] = self._jitter_now(capacity_bps, base_latency_s)
        return jitter

    def _jitter_now(self, capacity_bps: float, base_latency_s: float) -> float:
        """Both directions in one pass over the interval ring: the rate
        columns as one contiguous (2, n) array, one variance per row.

        The ufuncs are those ``np.clip`` and ``np.std(axis=1)`` run,
        called directly in the same order on the same operands, so each
        row's variance is theirs to the bit; ``sqrt`` is monotone, so the
        root of the larger variance is the larger ``std``.
        """
        n = len(self._intervals) // 3
        if n < 2:
            return 0.0
        rho = np.frombuffer(self._intervals).reshape(n, 3)[:, 1:].T.copy()
        np.true_divide(rho, capacity_bps, out=rho)
        np.maximum(rho, 0.0, out=rho)
        np.minimum(rho, 0.95, out=rho)
        delay = np.multiply(base_latency_s, rho)
        np.subtract(1.0, rho, out=rho)
        np.true_divide(delay, rho, out=delay)
        mean = np.add.reduce(delay, axis=1, keepdims=True)
        np.true_divide(mean, n, out=mean)
        np.subtract(delay, mean, out=delay)
        np.multiply(delay, delay, out=delay)
        spread_in, spread_out = np.add.reduce(delay, axis=1).tolist()
        return math.sqrt(max(spread_in, spread_out) / n)

    def rate_history(self, direction: str = "out") -> tuple[Series, Series]:
        """(times, rates) series of per-interval rates for prediction.

        ``direction`` is ``"in"`` or ``"out"``; times are interval
        endpoints.  The arrays are the caller's own.
        """
        if direction not in ("in", "out"):
            raise ValueError("direction must be 'in' or 'out'")
        if not self.ready:
            return np.empty(0), np.empty(0)
        col = 1 if direction == "in" else 2
        table = np.frombuffer(self._intervals).reshape(-1, 3)
        return table[:, 0].copy(), table[:, col].copy()
