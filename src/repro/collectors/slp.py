"""A miniature Service Location Protocol (RFC 2165) directory agent.

"The database used is very similar to the SLP directory, and SLP may
be used by the Master Collector in the near future" (paper §3.1.4).
This module supplies that future: a Directory Agent holding service
registrations with **scopes**, **attributes**, and **lifetimes**.  Every
deployment runs one.  The Master's
:class:`~repro.collectors.directory.CollectorDirectory` files its
collectors there, and GMA producers (:mod:`repro.gma`) advertise their
event types there.  A collector registered with a lease must refresh it
before it runs out, so a crashed collector ages out of the directory
instead of black-holing queries; one registered without a lease stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.common.errors import UnknownHostError
from repro.netsim.topology import Network

#: Remos service types, after the "service:" URL scheme of RFC 2165
SERVICE_TOPOLOGY = "service:remos-topology"
SERVICE_BENCHMARK = "service:remos-benchmark"


@dataclass
class ServiceEntry:
    """One SLP registration."""

    service_type: str
    url: str  # unique handle, e.g. "service:remos-topology://cmu/snmp-cmu"
    scopes: tuple[str, ...]
    attributes: dict[str, Any]
    #: when the lease runs out (``math.inf``: registered without one)
    expires_at: float
    #: the live object behind the URL (in-process transport)
    provider: object = None

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class DirectoryAgent:
    """The SLP DA: register, deregister, refresh, find.

    Entries are held in registration order; a re-registration of a live
    URL replaces its entry in place.  :attr:`generation` changes whenever
    the set of live entries does, so a reader can keep a view of them
    and file it again only then.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self._services: dict[str, ServiceEntry] = {}
        self._generation = 0
        #: no lease runs out before this; refreshes and replacements may
        #: leave it early, which costs one idle sweep
        self._next_expiry = math.inf

    @property
    def generation(self) -> int:
        """Bumped by every SrvReg, every SrvDeReg of a registered URL and
        every sweep that ages a lease out."""
        self._age()
        return self._generation

    def register(
        self,
        service_type: str,
        url: str,
        provider: object,
        scopes: tuple[str, ...] = ("default",),
        attributes: dict[str, Any] | None = None,
        lifetime_s: float | None = None,
    ) -> ServiceEntry:
        """SrvReg: (re-)register a service; refreshing resets the lease.
        Without ``lifetime_s`` the registration never expires."""
        self._age()
        entry = ServiceEntry(
            service_type,
            url,
            tuple(scopes),
            dict(attributes or {}),
            self._deadline(lifetime_s),
            provider,
        )
        self._services[url] = entry
        self._generation += 1
        self._next_expiry = min(self._next_expiry, entry.expires_at)
        return entry

    def deregister(self, url: str) -> None:
        """SrvDeReg (idempotent)."""
        if self._services.pop(url, None) is not None:
            self._generation += 1

    def refresh(self, url: str, lifetime_s: float | None = None) -> bool:
        """Extend a lease; False if the service is unknown/expired."""
        entry = self._services.get(url)
        if entry is None or entry.expired(self.net.now):
            return False
        entry.expires_at = self._deadline(lifetime_s)
        self._next_expiry = min(self._next_expiry, entry.expires_at)
        return True

    def find(
        self, service_type: str, scope: str = "default"
    ) -> list[ServiceEntry]:
        """SrvRqst: all live services of a type visible in a scope, in
        registration order."""
        self._age()
        return [
            e
            for e in self._services.values()
            if e.service_type == service_type and scope in e.scopes
        ]

    def attributes(self, url: str) -> dict[str, Any]:
        """AttrRqst for one service URL."""
        self._age()
        entry = self._services.get(url)
        if entry is None:
            raise UnknownHostError(f"no service {url}")
        return dict(entry.attributes)

    def _deadline(self, lifetime_s: float | None) -> float:
        return math.inf if lifetime_s is None else self.net.now + lifetime_s

    def _age(self) -> None:
        """Drop the entries whose lease has run out, if one may have."""
        now = self.net.now
        if now < self._next_expiry:
            return
        dead = [u for u, e in self._services.items() if e.expired(now)]
        for u in dead:
            del self._services[u]
        if dead:
            self._generation += 1
        self._next_expiry = min(
            (e.expires_at for e in self._services.values()), default=math.inf
        )

    def __len__(self) -> int:
        self._age()
        return len(self._services)
