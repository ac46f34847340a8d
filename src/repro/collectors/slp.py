"""A miniature Service Location Protocol (RFC 2165) directory.

"The database used is very similar to the SLP directory, and SLP may
be used by the Master Collector in the near future" (paper §3.1.4).
This module supplies that future: a Directory Agent holding service
registrations with **scopes**, **attributes**, and **lifetimes** (Remos
collectors must re-register before their lease expires, so crashed
collectors age out of the directory instead of black-holing queries).

:class:`SlpCollectorDirectory` adapts the DA to the
:class:`~repro.collectors.directory.CollectorDirectory` interface, so a
Master Collector can run off SLP without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, cast

from repro.common.errors import UnknownHostError
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.netsim.topology import Network
from repro.collectors.base import Collector
from repro.collectors.benchmark_collector import BenchmarkCollector
from repro.collectors.directory import Registration

#: Remos service types, after the "service:" URL scheme of RFC 2165
SERVICE_TOPOLOGY = "service:remos-topology"
SERVICE_BENCHMARK = "service:remos-benchmark"


@dataclass
class ServiceEntry:
    """One SLP registration."""

    service_type: str
    url: str  # unique handle, e.g. "service:remos-topology://snmp-cmu"
    scopes: tuple[str, ...]
    attributes: dict[str, Any]
    expires_at: float
    #: the live object behind the URL (in-process transport)
    provider: object = None

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class DirectoryAgent:
    """The SLP DA: register, deregister, refresh, find."""

    DEFAULT_LIFETIME_S = 3600.0

    def __init__(self, net: Network) -> None:
        self.net = net
        self._services: dict[str, ServiceEntry] = {}
        self.registrations_seen = 0

    def register(
        self,
        service_type: str,
        url: str,
        provider: object,
        scopes: tuple[str, ...] = ("default",),
        attributes: dict[str, Any] | None = None,
        lifetime_s: float | None = None,
    ) -> ServiceEntry:
        """SrvReg: (re-)register a service; refreshing resets the lease."""
        entry = ServiceEntry(
            service_type,
            url,
            tuple(scopes),
            dict(attributes or {}),
            self.net.now + (lifetime_s or self.DEFAULT_LIFETIME_S),
            provider,
        )
        self._services[url] = entry
        self.registrations_seen += 1
        return entry

    def deregister(self, url: str) -> None:
        """SrvDeReg (idempotent)."""
        self._services.pop(url, None)

    def refresh(self, url: str, lifetime_s: float | None = None) -> bool:
        """Extend a lease; False if the service is unknown/expired."""
        entry = self._services.get(url)
        if entry is None or entry.expired(self.net.now):
            return False
        entry.expires_at = self.net.now + (lifetime_s or self.DEFAULT_LIFETIME_S)
        return True

    def find(
        self, service_type: str, scope: str = "default"
    ) -> list[ServiceEntry]:
        """SrvRqst: all live services of a type visible in a scope."""
        self._expire()
        return sorted(
            (
                e
                for e in self._services.values()
                if e.service_type == service_type and scope in e.scopes
            ),
            key=lambda e: e.url,
        )

    def attributes(self, url: str) -> dict[str, Any]:
        """AttrRqst for one service URL."""
        self._expire()
        entry = self._services.get(url)
        if entry is None:
            raise UnknownHostError(f"no service {url}")
        return dict(entry.attributes)

    def _expire(self) -> None:
        now = self.net.now
        dead = [u for u, e in self._services.items() if e.expired(now)]
        for u in dead:
            del self._services[u]

    def __len__(self) -> int:
        self._expire()
        return len(self._services)


class SlpCollectorDirectory:
    """CollectorDirectory interface backed by an SLP Directory Agent.

    Topology collectors advertise their prefixes as a service
    attribute; lookup is a fresh SrvRqst each time, so expired
    collectors disappear from routing decisions automatically.
    """

    def __init__(self, da: DirectoryAgent, scope: str = "default") -> None:
        self.da = da
        self.scope = scope

    # -- registration ---------------------------------------------------

    def register(
        self,
        collector: Collector,
        prefixes: list[IPv4Network | str],
        site: str,
        remote: bool = False,
        lifetime_s: float | None = None,
    ) -> ServiceEntry:
        return self.da.register(
            SERVICE_TOPOLOGY,
            f"{SERVICE_TOPOLOGY}://{collector.name}",
            provider=collector,
            scopes=(self.scope,),
            attributes={
                "prefixes": tuple(str(IPv4Network(p)) for p in prefixes),
                "site": site,
                "remote": remote,
            },
            lifetime_s=lifetime_s,
        )

    def register_benchmark(
        self, bench: BenchmarkCollector, lifetime_s: float | None = None
    ) -> ServiceEntry:
        return self.da.register(
            SERVICE_BENCHMARK,
            f"{SERVICE_BENCHMARK}://{bench.site}",
            provider=bench,
            scopes=(self.scope,),
            attributes={"site": bench.site},
            lifetime_s=lifetime_s,
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, ip: IPv4Address | str) -> Registration:
        addr = IPv4Address(ip)
        # a table per lookup, filed from a fresh SrvRqst: an expired
        # lease is out of the very next match
        reg = PrefixTable(
            (p, r) for r in self.registrations() for p in r.prefixes
        ).match(addr)
        if reg is None:
            raise UnknownHostError(f"no collector covers {addr}")
        return reg

    def benchmark_for(self, site: str) -> BenchmarkCollector | None:
        for entry in self.da.find(SERVICE_BENCHMARK, self.scope):
            if entry.attributes.get("site") == site:
                return entry.provider  # type: ignore[return-value]
        return None

    def registrations(self) -> list[Registration]:
        """The directory's view of the live topology service entries (a
        fresh ``Registration`` per entry per call)."""
        return [
            Registration(
                cast(Collector, entry.provider),
                tuple(IPv4Network(x) for x in entry.attributes.get("prefixes", ())),
                str(entry.attributes.get("site", "")),
                bool(entry.attributes.get("remote", False)),
            )
            for entry in self.da.find(SERVICE_TOPOLOGY, self.scope)
        ]

    def sites(self) -> list[str]:
        return sorted({r.site for r in self.registrations()})
