"""Collector framework: query/response types and the collector interface.

All collectors answer :class:`TopologyRequest` s with
:class:`TopologyResponse` s — per the paper, "currently only topologies
are exchanged between the Modeler and collector"; flow answers are
computed by the Modeler from topology.  The Benchmark Collector
additionally serves :class:`PairMeasurement` s to the Master, which
folds them into merged topologies as logical WAN edges.

RPC latency between components is charged to the simulation engine —
``RPC_LOCAL_S`` per call within a site (Modeler to Master, Master to a
local collector or shard), ``RPC_REMOTE_S`` per call to a remote
collector — so end-to-end query response times (Fig. 3) come out of the
same clock as everything else.  The Modeler, the Master and the sharded
Master read these constants when they charge a call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import CollectorUnavailableError
from repro.common.status import QueryStatus, SiteStatus
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.modeler
    from repro.modeler.graph import TopologyGraph

#: simulated latency of one call within a site: Modeler <-> Master,
#: Master <-> its local collectors or shard masters
RPC_LOCAL_S = 0.001
#: simulated latency of one call to a remote collector
RPC_REMOTE_S = 0.05


@dataclass(frozen=True)
class TopologyRequest:
    """Ask for the virtual topology spanning a set of host addresses.

    ``anchor_ip`` optionally names a border router: the collector then
    also discovers each host's path *to that router* ("the path between
    a node and the edge router", §3.1.2), which is how the Master
    stitches site fragments onto inter-site measurements.
    """

    node_ips: tuple[str, ...]
    #: include dynamic utilization data (needs counter history)
    include_dynamics: bool = True
    anchor_ip: str | None = None
    #: the requester is itself a Master stitching multiple sites: the
    #: answering master must anchor every site fragment at its border
    #: even when it only sees one site of the wider query (sharded
    #: delegation; collectors without border knowledge ignore this)
    anchor_sites: bool = False
    #: stitch multi-site fragments with WAN measurements (default).
    #: A delegating Master above sets False to claim the stitching for
    #: itself: benchmark probes inject real traffic, so exactly one
    #: tier must run them — serially, on a monotonic clock — for
    #: answers to stay byte-identical to the flat Master's
    stitch: bool = True
    #: host-address pairs whose connectivity the requester will read;
    #: the stitching tier measures only the site pairs they span.
    #: None = every pair of ``node_ips`` (the full mesh a topology
    #: answer needs, and the safe reading of a request that cannot say)
    pairs: frozenset[tuple[str, str]] | None = None

    def __post_init__(self) -> None:
        if not self.node_ips:
            raise ValueError("topology request needs at least one node")

    @staticmethod
    def of(ips: Iterable[IPv4Address | str], anchor_ip: str | None = None) -> "TopologyRequest":
        return TopologyRequest(
            tuple(str(IPv4Address(ip)) for ip in ips), anchor_ip=anchor_ip
        )

    def to_dict(self) -> dict[str, Any]:
        """The request as a plain record: what every wire syntax
        renders (``pairs`` sorted, so equal requests give equal text)."""
        return {
            "node_ips": list(self.node_ips),
            "include_dynamics": self.include_dynamics,
            "anchor_ip": self.anchor_ip,
            "anchor_sites": self.anchor_sites,
            "stitch": self.stitch,
            "pairs": None if self.pairs is None else sorted(self.pairs),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TopologyRequest":
        """The request of a record; a member left out takes its default."""
        pairs = d.get("pairs")
        return cls(
            tuple(str(ip) for ip in d["node_ips"]),
            include_dynamics=bool(d.get("include_dynamics", cls.include_dynamics)),
            anchor_ip=d.get("anchor_ip"),
            anchor_sites=bool(d.get("anchor_sites", cls.anchor_sites)),
            stitch=bool(d.get("stitch", cls.stitch)),
            pairs=None if pairs is None else frozenset((str(a), str(b)) for a, b in pairs),
        )


@dataclass
class TopologyResponse:
    """A topology fragment plus bookkeeping about how it was obtained."""

    graph: TopologyGraph
    #: host IPs the answering collector(s) could not cover
    unresolved: tuple[str, ...] = ()
    #: diagnostic: SNMP PDUs spent answering
    pdu_cost: int = 0
    #: anchor ip -> graph node id (filled when the request had an anchor)
    anchors: dict[str, str] = field(default_factory=dict)
    #: quality of this fragment (see repro.common.status)
    status: QueryStatus = QueryStatus.OK
    #: per-site breakdown, filled by the Master on merged responses
    site_status: dict[str, SiteStatus] = field(default_factory=dict)
    #: age of the oldest dynamics served, in simulated seconds
    data_age_s: float = 0.0


@dataclass(frozen=True)
class HistoryRequest:
    """Ask for the measurement history of one topology edge.

    ``edge_a``/``edge_b`` are graph node ids from a prior topology
    response; rates are requested in the ``edge_a -> edge_b``
    direction.  This is the paper's planned XML-protocol capability:
    "the collectors will be responsible for maintaining history
    information for each component they monitor" (§3.3/§6.2), feeding
    RPS's client-server interface.
    """

    edge_a: str
    edge_b: str
    max_samples: int = 512

    def to_dict(self) -> dict[str, Any]:
        return {"edge_a": self.edge_a, "edge_b": self.edge_b, "max_samples": self.max_samples}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HistoryRequest":
        return cls(
            str(d["edge_a"]), str(d["edge_b"]), int(d.get("max_samples", cls.max_samples))
        )


@dataclass
class HistoryResponse:
    """A measurement series for one edge.

    ``kind`` is ``"utilization"`` (link load from counters — subtract
    from capacity to get availability) or ``"available"`` (end-to-end
    achievable bandwidth from benchmarks — usable directly).
    """

    kind: str
    times: tuple[float, ...]
    rates_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("utilization", "available"):
            raise ValueError(f"bad history kind {self.kind!r}")
        if len(self.times) != len(self.rates_bps):
            raise ValueError("times/rates length mismatch")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "times": list(self.times), "rates_bps": list(self.rates_bps)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HistoryResponse":
        return cls(
            str(d["kind"]),
            tuple(float(t) for t in d["times"]),
            tuple(float(r) for r in d["rates_bps"]),
        )


#: (values, variances) series pair from a streaming predictor
ForecastSeries = tuple[Any, Any]


@dataclass
class PairMeasurement:
    """One site-to-site benchmark result."""

    src_site: str
    dst_site: str
    throughput_bps: float
    measured_at: float
    #: measured round-trip time (0 when the probe method can't see it)
    rtt_s: float = 0.0
    stale: bool = False


class Collector(ABC):
    """Anything that can answer a topology query about its domain."""

    def __init__(self, name: str, net: Network) -> None:
        self.name = name
        self.net = net
        #: queries served (diagnostics)
        self.queries_served = 0
        #: sim time until which this collector is crashed (None = up);
        #: set by repro.faults.crash_collector
        self.crashed_until: float | None = None

    def check_alive(self) -> None:
        """Raise :class:`CollectorUnavailableError` while crashed."""
        if self.crashed_until is not None and self.net.now < self.crashed_until:
            raise CollectorUnavailableError(
                f"collector {self.name} is down (until t={self.crashed_until:.1f})",
                agent=self.name,
            )

    @abstractmethod
    def topology(self, request: TopologyRequest) -> TopologyResponse:
        """Answer a topology query."""

    def history(self, request: HistoryRequest) -> HistoryResponse | None:
        """Measurement history for an edge, or None if unknown here."""
        return None

    def supports_forecast(self) -> bool:
        """Could :meth:`forecast_edge` answer at all?  Costs no
        simulated time, so a Master asks before it charges the RPC; a
        collector that overrides one overrides both."""
        return False

    def forecast_edge(self, request: HistoryRequest, horizon: int) -> ForecastSeries | None:
        """Streaming forecast of an edge's utilization, as (values,
        variances) up to ``horizon`` steps ahead (the §2.3
        shared-prediction path); None when no streaming predictor
        covers the edge."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
