"""Circuit breaker around the collector/Master backend.

When the Master (or the Modeler's own computation) starts failing, the
worst response is to keep hammering it: the session layer already
retries per-site, so service-level retries multiply load exactly when
capacity is lowest.  The breaker watches a sliding window of backend
outcomes and, past a failure threshold, *opens*: calls are rejected
immediately with ``breaker_open`` (clients get the LKG shed path
instead, see :mod:`repro.service.admission`).  After ``reset_s`` it
goes *half-open* and lets a limited number of probes through; success
closes it, failure re-opens it.

States follow the classic pattern: ``closed`` -> ``open`` ->
``half_open`` -> (``closed`` | ``open``).  The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.timebase import wall_now
from repro.service.wire import WireError

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Sliding-window circuit breaker with half-open probing."""

    def __init__(
        self,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_calls: int = 5,
        reset_s: float = 5.0,
        half_open_probes: int = 2,
        clock: Callable[[], float] = wall_now,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_calls = int(min_calls)
        self.reset_s = float(reset_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=self.window)  # True = ok
        self._state = "closed"
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._transitions = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing open -> half_open on timeout."""
        if self._state == "open" and self._clock() - self._opened_at >= self.reset_s:
            self._state = "half_open"
            self._probes_in_flight = 0
            self._transitions += 1
        return self._state

    @property
    def transitions(self) -> int:
        """State changes so far (exported on /v1/health)."""
        return self._transitions

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._outcomes.clear()
        self._transitions += 1

    # -- call protocol -------------------------------------------------

    def before_call(self) -> None:
        """Gate a backend call; raises ``breaker_open`` when rejecting."""
        state = self.state
        if state == "closed":
            return
        if state == "half_open":
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return
            raise WireError(
                "breaker_open",
                "backend circuit half-open: probe quota in use",
                retry_after_s=self.reset_s / 2,
            )
        raise WireError(
            "breaker_open",
            "backend circuit open after repeated failures",
            retry_after_s=max(0.0, self.reset_s - (self._clock() - self._opened_at)),
        )

    def release(self) -> None:
        """End a call :meth:`before_call` let through without an outcome
        (the caller's own mistake, say): a half-open probe slot it held
        is handed back, and nothing is recorded."""
        if self._state == "half_open":
            self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record(self, ok: bool) -> None:
        """Record one backend outcome and update state."""
        state = self.state
        if state == "half_open":
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if ok:
                self._state = "closed"
                self._outcomes.clear()
                self._transitions += 1
            else:
                self._trip()
            return
        self._outcomes.append(ok)
        if (
            state == "closed"
            and len(self._outcomes) >= self.min_calls
            and self._failure_rate() >= self.failure_threshold
        ):
            self._trip()
