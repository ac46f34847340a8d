"""Collector directory: which collector is responsible for which networks.

"The Master Collector maintains a database of the locations of other
collectors and the portion of the network for which they are
responsible" (paper §2.1); "the database used is very similar to the
SLP directory" (§3.1.4).  This is that database: prefix-keyed service
registrations with longest-prefix lookup, for topology collectors
(SNMP collectors or subordinate Masters) and benchmark endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import UnknownHostError
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.collectors.base import Collector
from repro.collectors.benchmark_collector import BenchmarkCollector


@dataclass
class Registration:
    """One collector's advertisement."""

    collector: Collector
    prefixes: tuple[IPv4Network, ...]
    #: the site label, used to pair benchmark endpoints
    site: str
    #: whether contacting this collector is a WAN round trip
    remote: bool = False


class CollectorDirectory:
    """Prefix-indexed registry of topology and benchmark collectors."""

    def __init__(self) -> None:
        self._registrations: list[Registration] = []
        self._benchmarks: dict[str, BenchmarkCollector] = {}
        #: every registered prefix -> its registration; the first
        #: registration of a prefix wins
        self._table: PrefixTable[Registration] = PrefixTable()

    # -- registration -------------------------------------------------------

    def register(
        self,
        collector: Collector,
        prefixes: list[IPv4Network | str],
        site: str,
        remote: bool = False,
    ) -> Registration:
        reg = Registration(
            collector,
            tuple(IPv4Network(p) for p in prefixes),
            site,
            remote,
        )
        self._registrations.append(reg)
        for p in reg.prefixes:
            self._table.insert(p, reg)
        return reg

    def register_benchmark(self, bench: BenchmarkCollector) -> None:
        self._benchmarks[bench.site] = bench

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ip: IPv4Address | str) -> Registration:
        """Longest-prefix match over all registrations."""
        addr = IPv4Address(ip)
        reg = self._table.match(addr)
        if reg is None:
            raise UnknownHostError(f"no collector covers {addr}")
        return reg

    def benchmark_for(self, site: str) -> BenchmarkCollector | None:
        return self._benchmarks.get(site)

    def registrations(self) -> list[Registration]:
        return list(self._registrations)

    def sites(self) -> list[str]:
        return sorted({r.site for r in self._registrations})
