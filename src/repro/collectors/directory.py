"""Collector directory: which collector is responsible for which networks.

"The Master Collector maintains a database of the locations of other
collectors and the portion of the network for which they are
responsible" (paper §2.1); "the database used is very similar to the
SLP directory" (§3.1.4).  This is that database, kept in an SLP
directory agent (:mod:`repro.collectors.slp`): a topology collector (an
SNMP collector or a subordinate Master) is a ``service:remos-topology``
registration, a benchmark endpoint a ``service:remos-benchmark`` one.
Lookups read a view of the agent's live entries, filed again only when
that set changes, so a lookup never sends a SrvRqst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

from repro.common.errors import UnknownHostError
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.collectors.base import Collector
from repro.collectors.benchmark_collector import BenchmarkCollector
from repro.collectors.slp import SERVICE_BENCHMARK, SERVICE_TOPOLOGY, DirectoryAgent


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
    """Prefix-indexed view of the collectors filed in a directory agent."""

    def __init__(self, agent: DirectoryAgent) -> None:
        self.agent = agent
        # the view, as of the agent's generation ``_generation``
        self._generation = -1
        #: every live prefix -> its registration; the first registration
        #: of a prefix wins
        self._table: PrefixTable[Registration] = PrefixTable()
        self._registrations: tuple[Registration, ...] = ()
        self._benchmarks: dict[str, BenchmarkCollector] = {}

    # -- registration -------------------------------------------------------

    def register(
        self,
        collector: Collector,
        prefixes: list[IPv4Network | str],
        site: str,
        remote: bool = False,
        lifetime_s: float | None = None,
    ) -> Registration:
        """SrvReg a topology collector, its ``Registration`` the entry's
        provider; without ``lifetime_s`` it never expires."""
        reg = Registration(collector, tuple(IPv4Network(p) for p in prefixes), site, remote)
        self.agent.register(
            SERVICE_TOPOLOGY,
            f"{SERVICE_TOPOLOGY}://{site}/{collector.name}",
            reg,
            attributes={"prefixes": tuple(map(str, reg.prefixes)), "site": site, "remote": remote},
            lifetime_s=lifetime_s,
        )
        return reg

    def register_benchmark(self, bench: BenchmarkCollector) -> None:
        self.agent.register(
            SERVICE_BENCHMARK, f"{SERVICE_BENCHMARK}://{bench.site}", bench,
            attributes={"site": bench.site},
        )

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ip: IPv4Address | str) -> Registration:
        """Longest-prefix match over all live registrations."""
        addr = IPv4Address(ip)
        self._sync()
        reg = self._table.match(addr)
        if reg is None:
            raise UnknownHostError(f"no collector covers {addr}")
        return reg

    def benchmark_for(self, site: str) -> BenchmarkCollector | None:
        self._sync()
        return self._benchmarks.get(site)

    def registrations(self) -> list[Registration]:
        self._sync()
        return list(self._registrations)

    def sites(self) -> list[str]:
        return sorted({r.site for r in self.registrations()})

    def _sync(self) -> None:
        """File the view again if the agent's live entries changed."""
        generation = self.agent.generation
        if generation == self._generation:
            return
        regs = tuple(cast(Registration, e.provider) for e in self.agent.find(SERVICE_TOPOLOGY))
        self._table = PrefixTable((p, r) for r in regs for p in r.prefixes)
        self._registrations = regs
        self._benchmarks = {
            str(e.attributes["site"]): cast(BenchmarkCollector, e.provider)
            for e in self.agent.find(SERVICE_BENCHMARK)
        }
        self._generation = generation
