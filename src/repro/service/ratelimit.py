"""Per-tenant token-bucket rate limiting for the query service.

A shared Remos service multiplexes many applications; one chatty
tenant must not starve the rest (the paper's motivation for a shared
Collector already — queries are aggregated *because* per-application
probing would melt the network).  Each tenant gets a classic token
bucket: ``rate`` tokens/second refill, ``burst`` capacity, one token
per request.  An empty bucket rejects immediately with
``rate_limited`` and a ``retry_after_s`` hint rather than queuing —
queues under overload only convert rejection into timeout.

The clock is injectable so tests drive it deterministically
(:class:`repro.obs.timebase.FixedTimebase`); the default is the
sanctioned wall clock :func:`repro.obs.timebase.wall_now`.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.obs.timebase import wall_now
from repro.service.wire import WireError

__all__ = ["TokenBucket", "TenantRateLimiter"]

#: tenant buckets one limiter keeps; past it, new tenants share the
#: ``"anonymous"`` bucket, so the table holds at most ``MAX_TENANTS + 1``
#: (its size is the gauge ``service.ratelimit.tenants``)
MAX_TENANTS = 10_000


class TokenBucket:
    """A single token bucket: ``rate`` tokens/s refill, ``burst`` cap."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = wall_now,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def retry_after_s(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if now)."""
        self._refill()
        deficit = n - self._tokens
        return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class TenantRateLimiter:
    """Lazily-created per-tenant buckets with a shared default policy.

    Unknown tenants (no ``X-Remos-Tenant`` header) share the
    ``"anonymous"`` bucket, so an unauthenticated flood is throttled as
    one tenant instead of minting unlimited fresh buckets.
    """

    def __init__(
        self,
        rate: float = 200.0,
        burst: float = 400.0,
        clock: Callable[[], float] = wall_now,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def __len__(self) -> int:
        """Buckets in the table: at most ``MAX_TENANTS`` + 1."""
        return len(self._buckets)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            if tenant != "anonymous" and len(self._buckets) >= MAX_TENANTS:
                # cardinality guard: treat overflow tenants as anonymous
                # (whose bucket is always allowed to exist)
                return self._bucket("anonymous")
            bucket = TokenBucket(self.rate, self.burst, self._clock)
            self._buckets[tenant] = bucket
            obs.gauge("service.ratelimit.tenants").set(len(self._buckets))
        return bucket

    def admit(self, tenant: str) -> None:
        """Take one token for ``tenant`` or raise ``rate_limited``."""
        bucket = self._bucket(tenant or "anonymous")
        if not bucket.try_take():
            raise WireError(
                "rate_limited",
                f"tenant {tenant or 'anonymous'!r} exceeded "
                f"{self.rate:g} req/s (burst {self.burst:g})",
                retry_after_s=bucket.retry_after_s(),
            )
