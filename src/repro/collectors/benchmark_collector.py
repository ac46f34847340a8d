"""Benchmark Collector: active end-to-end probing between sites.

Where SNMP access stops (WANs, other administrative domains), Remos
falls back to explicit benchmarking (paper §3.1.3): a Benchmark
Collector at each site exchanges data with its peer at the remote site
and reports the achieved throughput — the same idea as NWS.

A probe here is a real fluid transfer on the simulated network: it
competes with cross traffic under max-min sharing, takes simulated time
proportional to its size, and is visible to SNMP counters (the
"Benchmark Traffic" arrows in the paper's Fig. 2).  Collectors keep a
bounded history per peer; queries are answered from cache when fresh
(collectors "aggressively cache information"), optionally probing
on-demand when stale.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.common.errors import CollectorUnavailableError, QueryError, TopologyError
from repro.common.rng import make_rng
from repro.common.units import BITS_PER_BYTE
from repro.netsim.paths import compute_path, path_capacity, path_latency
from repro.netsim.topology import Channel, Host, Network
from repro.collectors.base import PairMeasurement

if TYPE_CHECKING:
    import numpy as np

    from repro.netsim.engine import Timer


#: probe methods, in decreasing intrusiveness (paper §6.2 asks for the
#: lighter ones):
#: - "bulk": a real transfer of ``probe_bytes`` (the original Remos /
#:   NWS style); accurate, intrusive.
#: - "packet_pair": a dispersion estimate from a couple of packet
#:   trains; nearly free but noisy.
#: - "one_way": single-ended (no sink at the far site): infers only the
#:   raw bottleneck capacity, pathchar-style, and cannot see cross
#:   traffic at all.
PROBE_METHODS = ("bulk", "packet_pair", "one_way")
#: relative noise of packet-pair estimates
PACKET_PAIR_NOISE = 0.15
#: bytes a packet-pair train injects
PACKET_PAIR_BYTES = 3_000.0
#: bytes a single-ended probe injects
ONE_WAY_BYTES = 1_500.0


@dataclass
class BenchmarkConfig:
    probe_bytes: float = 1_000_000.0  # 1 MB probe transfers
    period_s: float = 60.0  # periodic probing interval
    history_len: int = 128
    #: cached results older than this are considered stale
    max_age_s: float = 120.0
    #: safety cap on how long one probe may run (slow links)
    max_probe_s: float = 30.0
    #: probe technique (see PROBE_METHODS)
    method: str = "bulk"

    def __post_init__(self) -> None:
        if self.method not in PROBE_METHODS:
            raise ValueError(f"unknown probe method {self.method!r}")


class BenchmarkCollector:
    """One site's benchmarking endpoint.

    ``host`` is the machine the collector runs on; probes are fluid
    transfers between this host and the peer collector's host.
    """

    def __init__(
        self,
        site: str,
        net: Network,
        host: Host,
        config: BenchmarkConfig | None = None,
    ) -> None:
        self.site = site
        self.net = net
        self.host = host
        self.config = config or BenchmarkConfig()
        self.peers: dict[str, BenchmarkCollector] = {}
        #: per-peer measurement history (oldest first)
        self.history: dict[str, deque[PairMeasurement]] = {}
        self.probes_run = 0
        #: probe traffic injected into the network, in bytes
        self.bytes_injected = 0.0
        #: lazily built, seeded per collector for determinism
        self._rng: np.random.Generator | None = None
        self._timer: Timer | None = None

    # -- peering -----------------------------------------------------------

    def add_peer(self, peer: "BenchmarkCollector") -> None:
        """Register a remote site's collector (symmetric)."""
        if peer.site == self.site:
            raise ValueError("a site cannot peer with itself")
        self.peers[peer.site] = peer
        peer.peers.setdefault(self.site, self)
        self.history.setdefault(peer.site, deque(maxlen=self.config.history_len))
        peer.history.setdefault(self.site, deque(maxlen=peer.config.history_len))

    # -- probing -----------------------------------------------------------

    def probe(self, peer_site: str) -> PairMeasurement:
        """Run one probe to a peer now (blocking, charges time).

        Dispatches on the configured method; all methods record into
        the same history and count their injected bytes so the
        intrusiveness/accuracy trade-off is measurable.
        """
        inj = getattr(self.net, "faults", None)
        if inj is not None and inj.probe_fails(self.site, peer_site):
            # the far endpoint never answered: burn the probe deadline
            self.net.engine.advance(inj.plan.probe_timeout_s)
            obs.counter("collectors.benchmark.probe_failures").inc()
            raise CollectorUnavailableError(
                f"benchmark probe {self.site} -> {peer_site} timed out",
                site=peer_site,
            )
        try:
            if self.config.method == "bulk":
                throughput, path = self._probe_bulk(peer_site)
            elif self.config.method == "packet_pair":
                throughput, path = self._probe_packet_pair(peer_site)
            else:
                throughput, path = self._probe_one_way(peer_site)
        except TopologyError as exc:
            # the peer lost its route: one unanswerable probe, not a
            # reason to take the caller (a periodic engine timer) down
            obs.counter("collectors.benchmark.probe_failures").inc()
            raise QueryError(
                f"no route between {self.site} and {peer_site}: {exc}"
            ) from exc
        # ping-style RTT along the probed path (propagation only: the
        # fluid model has no queues, so this is the floor a real ping
        # would approach)
        meas = PairMeasurement(
            self.site, peer_site, throughput, self.net.now,
            rtt_s=2.0 * path_latency(path),
        )
        self.history[peer_site].append(meas)
        self.probes_run += 1
        obs.counter("collectors.benchmark.probes", method=self.config.method).inc()
        obs.histogram("collectors.benchmark.throughput_bps").observe(throughput)
        return meas

    def _probe_bulk(self, peer_site: str) -> tuple[float, list[Channel]]:
        """A real transfer at the path's max-min rate (NWS style); the
        achieved throughput and the path the transfer took."""
        peer = self._peer(peer_site)
        flow = self.net.flows.start_flow(
            self.host, peer.host, label=f"bench:{self.site}->{peer_site}"
        )
        # the probe demands everything: whatever interrupts it, it must
        # not be left holding a max-min share
        try:
            rate = flow.rate_bps
            if rate <= 0:
                raise QueryError(f"no bandwidth between {self.site} and {peer_site}")
            duration = min(
                self.config.probe_bytes * BITS_PER_BYTE / rate, self.config.max_probe_s
            )
            self.net.engine.advance(duration)
        finally:
            self.net.flows.stop_flow(flow)
        # achieved throughput: what the fluid flow actually moved
        moved = flow.bytes_done
        self.bytes_injected += moved
        elapsed = (flow.end_time or 0.0) - (flow.start_time or 0.0)
        return (moved * BITS_PER_BYTE / elapsed if elapsed > 0 else rate), flow.path

    def _probe_packet_pair(self, peer_site: str) -> tuple[float, list[Channel]]:
        """A dispersion estimate: momentary rate plus estimation noise.

        The train occupies the path only for a blink, so concurrent
        transfers are essentially undisturbed — the low-load probe
        §6.2 asks for — at the cost of a noisy reading.
        """
        if self._rng is None:
            # crc32, not hash(): str hashes are salted per interpreter
            self._rng = make_rng(zlib.crc32(self.site.encode("utf-8")) & 0xFFFF)
        peer = self._peer(peer_site)
        flow = self.net.flows.start_flow(
            self.host, peer.host, label=f"pp:{self.site}->{peer_site}"
        )
        try:
            rate = flow.rate_bps
            rtt = 2.0 * path_latency(flow.path)
            self.net.engine.advance(max(4.0 * rtt, 0.01))
        finally:
            self.net.flows.stop_flow(flow)  # as in _probe_bulk
        self.bytes_injected += PACKET_PAIR_BYTES
        if rate <= 0:
            raise QueryError(f"no bandwidth between {self.site} and {peer_site}")
        noisy = rate * (1.0 + PACKET_PAIR_NOISE * float(self._rng.standard_normal()))
        return max(0.05 * rate, noisy), flow.path

    def _probe_one_way(self, peer_site: str) -> tuple[float, list[Channel]]:
        """Single-ended capacity estimate (no sink required).

        Pathchar-style per-hop probing sees the raw bottleneck link
        rate but is blind to cross traffic, so it *over-estimates*
        available bandwidth on loaded paths — the documented limitation
        of source-only tools.
        """
        peer = self._peer(peer_site)
        path = compute_path(self.net, self.host, peer.host)
        if not path:
            raise QueryError(f"no path between {self.site} and {peer_site}")
        # probing cost: four round trips of the whole path, however many
        # hops it has
        self.net.engine.advance(max(4.0 * 2.0 * path_latency(path), 0.01))
        self.bytes_injected += ONE_WAY_BYTES
        return path_capacity(path), path

    def probe_all(self) -> list[PairMeasurement]:
        """Probe every registered peer once.

        A failing probe skips that peer instead of raising — this runs
        from a periodic engine timer, where an escaped exception would
        take the whole simulation down with it.
        """
        out: list[PairMeasurement] = []
        for site in sorted(self.peers):
            try:
                out.append(self.probe(site))
            except QueryError:
                continue  # peer unreachable this round; history keeps the past
        return out

    def start_periodic(self, stagger_s: float = 0.0) -> None:
        """Begin periodic probing of all peers."""
        if self._timer is None:
            self._timer = self.net.engine.every(
                self.config.period_s,
                self._probe_round,
                start=self.net.now + self.config.period_s + stagger_s,
            )

    def _probe_round(self) -> None:
        """The periodic tick: a timer callback returns nothing."""
        self.probe_all()

    def stop_periodic(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- queries ---------------------------------------------------------

    def measurement(
        self,
        peer_site: str,
        allow_probe: bool = True,
        as_of: float | None = None,
    ) -> PairMeasurement:
        """Latest measurement for a peer; probes on demand if the cache
        is empty or stale (and ``allow_probe``).

        Age is judged at ``as_of`` (default: now).  A Master passes the
        instant its stitch started: the probes of one stitch advance
        the clock, and judging each cached measurement against that
        moving clock would let the stitch expire the very measurements
        it is about to read.
        """
        self._peer(peer_site)
        hist = self.history.get(peer_site)
        if hist:
            latest = hist[-1]
            now = self.net.now if as_of is None else as_of
            if now - latest.measured_at <= self.config.max_age_s:
                return latest
        if allow_probe:
            try:
                return self.probe(peer_site)
            except QueryError:
                if not hist:
                    raise
        if not hist:
            raise QueryError(f"no measurement {self.site} -> {peer_site}")
        # no fresh measurement to be had (probing disallowed, or the
        # probe failed just now), but the past is better than nothing:
        # serve the last-known-good measurement, flagged stale
        return dataclasses.replace(hist[-1], stale=True)

    def statistics(self, peer_site: str) -> tuple[float, float, int]:
        """(mean, stddev, n) of historical throughput to a peer, in bps."""
        hist = self.history.get(peer_site)
        if not hist:
            raise QueryError(f"no history {self.site} -> {peer_site}")
        vals = [m.throughput_bps for m in hist]
        n = len(vals)
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n if n > 1 else 0.0
        return mean, math.sqrt(var), n

    def _peer(self, peer_site: str) -> "BenchmarkCollector":
        try:
            return self.peers[peer_site]
        except KeyError:
            raise QueryError(f"{self.site} has no benchmark peer {peer_site!r}") from None
