"""The Modeler: the Remos API exposed to applications.

"The Remos API, which is exposed to applications, is implemented only
in the Modeler" (paper §2).  Applications ask two kinds of questions:

* topology — the virtual topology spanning a set of hosts, simplified
  (pruned, chains collapsed to virtual switches) unless raw output is
  requested.
* flow information — the bandwidth a new flow (or a set of flows,
  e.g. a collective application's communication pattern) can expect,
  from max-min calculations on the collector topology.

The documented entry point is :class:`repro.session.RemosSession`,
whose answers always carry a :class:`~repro.common.status.QueryStatus`
and degrade instead of raising when part of the network stops
answering.

The Modeler talks only to its Master Collector, and acts as the
intermediary to the prediction service: with ``predict=True`` a flow
query returns the RPS forecast of the bottleneck link's available
bandwidth instead of the last measurement (§2.3, §3.3).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, ClassVar, Protocol

import numpy as np

from repro import obs
from repro.common.errors import ArgumentError, RemosError, TopologyError
from repro.common.status import QueryStatus, SiteStatus
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Host, Network
from repro.collectors.base import RPC_LOCAL_S, Collector, HistoryRequest, TopologyRequest
from repro.modeler.graph import TopologyGraph
from repro.modeler.maxmin import FlowPrediction, predict_flows
from repro.modeler.planner import plan_flow_pairs
from repro.modeler.simplify import simplify


#: how a query may name a host: the object, its address, or a dotted quad
HostLike = Host | IPv4Address | str


class PredictionService(Protocol):
    """What the Modeler needs from RPS (see repro.rps.service)."""

    def predict_series(
        self, values: np.ndarray, horizon: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forecast ``horizon`` steps ahead: (predictions, error variances)."""
        ...


#: wire schema version stamped into every serialized answer (bumped
#: only on incompatible changes; see docs/service.md)
WIRE_SCHEMA_VERSION = 1

#: most memoized Master responses one Modeler keeps; past it the least
#: recently stored-or-hit one is evicted
QUERY_CACHE_MAX_ENTRIES = 1024

#: answer fields carried as JSON lists but reconstructed as tuples
_TUPLE_FIELDS = frozenset({"path", "provenance", "unresolved"})


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Dataclass field names of an answer class, looked up once per
    class: ``dataclasses.fields`` rebuilds its tuple on every call."""
    return tuple(f.name for f in dataclasses.fields(cls))


class Answer:
    """Common surface of every Remos answer.

    Concrete answers are dataclasses that append ``status``,
    ``data_age_s``, ``provenance``, and ``trace_id`` fields; this
    (non-dataclass) base only contributes the convenience predicates
    and the wire serialization, so subclasses keep full control of
    their field order.
    """

    #: wire discriminator, set by each concrete answer class
    KIND: ClassVar[str] = ""

    status: QueryStatus
    data_age_s: float
    provenance: tuple[str, ...]
    #: trace of the query span that produced this answer (None when no
    #: live registry was installed); feed it to ``repro trace`` or the
    #: flight recorder to see where the latency went
    trace_id: str | None

    @property
    def ok(self) -> bool:
        """Complete and fresh."""
        return self.status == QueryStatus.OK

    @property
    def degraded(self) -> bool:
        """Anything less than complete and fresh (stale/partial/failed)."""
        return self.status != QueryStatus.OK

    # -- wire schema v1 (docs/service.md) ------------------------------

    def to_dict(self) -> dict:
        """Canonical wire form: plain JSON-ready types, lossless.

        Every answer serializes to ``{"schema": 1, "kind": ..., <its
        dataclass fields>}`` with enums as value strings, tuples as
        lists, graphs/site records via their own ``to_dict``.  The dict
        is canonical: serializing the same answer twice — or an answer
        reconstructed by :meth:`from_dict` — yields byte-identical JSON
        under ``repro.service.wire.canonical_json``.
        """
        out: dict = {"schema": WIRE_SCHEMA_VERSION, "kind": self.KIND}
        for name in _field_names(type(self)):
            v = getattr(self, name)
            if isinstance(v, QueryStatus):
                v = v.to_dict()
            elif isinstance(v, TopologyGraph):
                v = v.to_dict()
            elif name == "site_status":
                v = {site: st.to_dict() for site, st in sorted(v.items())}
            elif isinstance(v, tuple):
                v = list(v)
            out[name] = v
        return out

    @staticmethod
    def from_dict(d: dict) -> "Answer":
        """Reconstruct any concrete answer from its wire form."""
        schema = d.get("schema")
        if schema != WIRE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported wire schema {schema!r} "
                f"(this build speaks v{WIRE_SCHEMA_VERSION})"
            )
        kinds: dict[str, type] = {
            cls.KIND: cls for cls in (FlowAnswer, NodeAnswer, TopologyAnswer)
        }
        kind = d.get("kind")
        cls = kinds.get(kind)
        if cls is None:
            raise ValueError(f"unknown answer kind {kind!r}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in d:
                continue
            v = d[f.name]
            if f.name == "status":
                v = QueryStatus.from_dict(v)
            elif f.name == "graph":
                v = TopologyGraph.from_dict(v)
            elif f.name == "site_status":
                v = {site: SiteStatus.from_dict(sd) for site, sd in v.items()}
            elif f.name in _TUPLE_FIELDS:
                v = tuple(v)
            kwargs[f.name] = v
        return cls(**kwargs)


@dataclass
class FlowAnswer(Answer):
    """What a flow query returns to the application."""

    KIND: ClassVar[str] = "flow"

    src: str
    dst: str
    #: bandwidth a new flow can expect now (max-min on measured residuals)
    available_bps: float
    #: residual bandwidth of the tightest link
    bottleneck_bps: float
    #: raw path capacity
    capacity_bps: float
    latency_s: float
    #: delay-variation estimate for the path (0 without history)
    jitter_s: float
    path: tuple[str, ...]
    #: RPS forecast of available bandwidth (None unless predict=True)
    predicted_bps: float | None = None
    #: forecast error variance (None unless predict=True)
    predicted_var: float | None = None
    #: answer quality: FAILED when the pair is uncovered, otherwise the
    #: quality of the topology the answer was computed from
    status: QueryStatus = QueryStatus.OK
    #: age of the underlying dynamics, in simulated seconds
    data_age_s: float = 0.0
    #: sites whose collectors contributed to the answer
    provenance: tuple[str, ...] = ()
    trace_id: str | None = None


@dataclass
class NodeAnswer(Answer):
    """What a node (compute-resource) query returns.

    The Remos API covers compute nodes as well as the network (the
    query interface of Lowekamp et al., ref [17]); load data flows from
    RPS host-load sensors rather than the collectors.
    """

    KIND: ClassVar[str] = "node"

    ip: str
    #: current load average (None if no sensor covers the host)
    load: float | None
    #: RPS forecast of the load (None unless predict=True and a
    #: streaming predictor runs on the host)
    predicted_load: float | None = None
    predicted_var: float | None = None
    status: QueryStatus = QueryStatus.OK
    data_age_s: float = 0.0
    provenance: tuple[str, ...] = ()
    trace_id: str | None = None


@dataclass
class TopologyAnswer(Answer):
    """What a topology query returns through :class:`RemosSession`."""

    KIND: ClassVar[str] = "topology"

    graph: TopologyGraph
    #: requested hosts that could not be covered
    unresolved: tuple[str, ...] = ()
    #: per-site quality breakdown from the Master
    site_status: dict[str, SiteStatus] = field(default_factory=dict)
    status: QueryStatus = QueryStatus.OK
    data_age_s: float = 0.0
    provenance: tuple[str, ...] = ()
    trace_id: str | None = None


@functools.lru_cache(maxsize=4096)
def _canonical_quad(addr: str) -> str:
    """``addr`` parsed and rendered as its canonical dotted quad, kept:
    a warm query names the same hosts as strings on every call.  A bad
    address raises and is not remembered."""
    return str(IPv4Address(addr))


def _ip_of(host: HostLike) -> str:
    """Accept Host objects, IPv4Address, or strings."""
    if type(host) is str:
        return _canonical_quad(host)
    if isinstance(host, Host):
        return str(host.ip)
    return str(IPv4Address(host))


def _host_ips(hosts: Iterable[HostLike]) -> list[str]:
    """``hosts`` as canonical dotted quads; a host the Modeler cannot
    read is the caller's mistake (:class:`ArgumentError`)."""
    try:
        return [_ip_of(h) for h in hosts]
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"bad host: {exc}") from exc


def _pair_scope(
    pairs: tuple[tuple[str, str], ...],
    own: list[tuple[str, str, float]],
    n_hosts: int,
) -> frozenset[tuple[str, str]] | None:
    """The unordered host pairs a flow query reads — the asked pairs
    and the declared own flows, whose paths it also walks — or None
    when they already cover every pair of its ``n_hosts`` hosts, as a
    single pair always does: such a query is, and is cached as, the
    full-mesh fetch it always was."""
    if n_hosts <= 2:
        return None
    scope = frozenset(
        (s, d) if s < d else (d, s)
        for s, d in itertools.chain(pairs, ((s, d) for s, d, _ in own))
        if s != d
    )
    return None if 2 * len(scope) == n_hosts * (n_hosts - 1) else scope


@dataclass
class _FetchMeta:
    """Quality bookkeeping for one Master fetch, threaded into answers."""

    status: QueryStatus
    data_age_s: float
    provenance: tuple[str, ...]
    unresolved: tuple[str, ...]
    site_status: dict[str, SiteStatus]


@dataclass
class _CachedFetch:
    """One memoized Master response: the graph, its structural version
    at insert time, the sim time it was fetched, and the fetch meta so
    cache hits replay exactly what the miss returned.

    Only ``status == OK`` responses are ever cached: memoizing a
    degraded response would replay the outage for a full TTL after the
    collectors recover (and, worse, a FAILED fragment's empty graph
    would shadow good data).  A degraded response additionally *drops*
    any existing entry for its key — the entry describes a world the
    Master can no longer confirm.

    ``flow_plans`` memoizes resolved flow-query results against this
    entry's (immutable) graph: requested pairs -> the
    predictions plus the unroutable-pair layout.  Valid exactly as long
    as the entry itself — the graph object is replaced, never mutated,
    on refetch — so a repeated ``flow_info_many`` within the staleness
    window rebuilds its answers without touching paths or the
    allocator.

    ``views`` memoizes the derived topology views of this entry's graph
    the same way: ``"simplified"`` -> the one simplified view (its
    ``protect`` set is this entry's sorted-host key, so every host
    order shares it), ``("summary", hosts in request order)`` -> that
    order's summary.  Views are frozen — many answers share one — and
    live and die with the entry.
    """

    graph: TopologyGraph
    version: int
    fetched_at: float
    meta: _FetchMeta
    flow_plans: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict)


class Modeler:
    """One application's window into Remos."""

    def __init__(
        self,
        master: Collector,
        net: Network,
        prediction_service: "PredictionService | None" = None,
        query_cache_ttl_s: float = 0.0,
    ) -> None:
        self.master = master
        self.net = net
        self.prediction_service = prediction_service
        #: staleness window for memoized Master responses; 0 disables
        #: caching entirely (every query hits the Master, the
        #: historical behaviour).  Applications that tolerate data up
        #: to a few seconds old — the paper's common case, since the
        #: collectors themselves only repoll every 5 s — set this to
        #: their tolerance and repeated queries are answered locally.
        self.query_cache_ttl_s = query_cache_ttl_s
        #: memoized Master responses, least recently stored-or-hit first
        self._query_cache: OrderedDict[tuple, _CachedFetch] = OrderedDict()
        #: callable (ip str) -> (load or None, StreamingPredictor or None),
        #: wired by the deployment for node queries
        self.node_info_provider: Callable[[str], tuple[float | None, Any]] | None = None
        self.queries_made = 0

    # -- topology ------------------------------------------------------

    def _topology_answer(
        self,
        hosts: Iterable[HostLike],
        detail: str,
        include_dynamics: bool,
    ) -> TopologyAnswer:
        """The virtual topology spanning ``hosts``.

        ``detail`` selects how much structure the application sees —
        "an appropriate level of detail … without swamping the
        application" (§1):

        * ``"raw"`` — everything the collectors discovered.
        * ``"simplified"`` (default) — pruned, degree-2 chains collapsed
          into virtual switches; flow answers unchanged.
        * ``"summary"`` — only the queried hosts, pairwise logical edges
          carrying each pair's bottleneck availability/latency/jitter.

        An unknown ``detail``, an unreadable host or no hosts at all
        raise :class:`ArgumentError` before anything is fetched.
        """
        if detail not in ("raw", "simplified", "summary"):
            raise ArgumentError(f"unknown detail level {detail!r}")
        ips = _host_ips(hosts)
        if not ips:
            raise ArgumentError("a topology query needs at least one host")
        with obs.span("modeler.topology_query", detail=detail) as sp:
            obs.counter("modeler.queries", kind="topology").inc()
            # "raw" hands the graph itself to the application, which may
            # mutate it; the derived detail levels only read it.
            graph, meta, entry = self._fetch(
                ips, include_dynamics, private=(detail == "raw")
            )
            if detail != "raw":
                graph = self._derived_view(graph, entry, ips, detail)
            return TopologyAnswer(
                graph,
                unresolved=tuple(meta.unresolved),
                site_status=meta.site_status,
                status=meta.status,
                data_age_s=meta.data_age_s,
                provenance=meta.provenance,
                trace_id=sp.trace_id,
            )

    def _derived_view(
        self, graph: TopologyGraph, entry: _CachedFetch | None, ips: list[str], detail: str
    ) -> TopologyGraph:
        """The frozen ``detail`` view of a fetched graph, computed once
        per cache entry (``entry``, when :meth:`_fetch` served one) and
        shared by every answer served from it."""
        view_key = "simplified" if detail == "simplified" else (detail, tuple(ips))
        if entry is not None:
            view = entry.views.get(view_key)
            if view is not None:
                obs.counter("modeler.view_cache", result="hit").inc()
                return view
            obs.counter("modeler.view_cache", result="miss").inc()
        if detail == "simplified":
            view = simplify(graph, protect=set(ips))
        else:
            view = self._summarize(graph, ips)
        view.freeze()
        if entry is not None:
            entry.views[view_key] = view
        return view

    @staticmethod
    def _cache_keys(
        ips: list[str], include_dynamics: bool, scope: frozenset[tuple[str, str]] | None
    ) -> tuple[tuple, ...]:
        """The cache keys that may serve a fetch, its own first.

        An unscoped fetch (``scope`` None: every WAN edge among the
        hosts) has the one key it always had.  A scoped fetch stores
        under its own key and may also be served by the unscoped entry
        over the same hosts — that graph has every edge the scope asks
        for — but never the reverse: a scoped graph lacks edges a
        topology answer must carry.
        """
        full = (tuple(sorted(ips)), include_dynamics)
        return (full,) if scope is None else ((*full, scope), full)

    @staticmethod
    def _summarize(graph: TopologyGraph, ips: list[str]) -> TopologyGraph:
        """Hosts only, with per-pair logical edges (bottleneck view)."""
        from repro.common.errors import TopologyError
        from repro.modeler.graph import HOST, TopoEdge, TopoNode

        out = TopologyGraph()
        present = [ip for ip in ips if graph.has_node(ip)]
        for ip in present:
            out.add_node(TopoNode(ip, HOST, (ip,)))
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                a, b = present[i], present[j]
                try:
                    edges = graph.path_edges(a, b)
                except TopologyError:
                    continue
                nodes = graph.path(a, b)
                avail_ab = min(
                    e.available_from(x) for e, x in zip(edges, nodes[:-1])
                )
                avail_ba = min(
                    e.available_from(y) for e, y in zip(edges, nodes[1:])
                )
                cap = min(e.capacity_bps for e in edges)
                latency = sum(e.latency_s for e in edges)
                jitter = math.sqrt(sum(e.jitter_s**2 for e in edges))
                out.add_edge(
                    TopoEdge(
                        a, b, cap,
                        max(0.0, cap - avail_ab),
                        max(0.0, cap - avail_ba),
                        latency, jitter,
                    )
                )
        return out

    # -- flows ------------------------------------------------------------

    def _flow_answers(
        self,
        pairs: Iterable[tuple[HostLike, HostLike]],
        predict: bool,
        horizon_steps: int,
        own_flows: Iterable[tuple[HostLike, HostLike, float]] | None,
    ) -> list[FlowAnswer]:
        """Expected bandwidth for a set of simultaneous new flows.

        The flows are allocated jointly (max-min), so two requested
        flows sharing a bottleneck split it — what a collective
        application needs to know.

        ``own_flows`` optionally declares the application's *existing*
        traffic as ``(src, dst, rate_bps)`` triples.  Measured
        utilization includes that traffic, so without the declaration a
        long-running application asking about its own path sees its own
        load as "someone else's" and under-estimates what it could get
        (the self-interference trap).  Declared rates are credited back
        to the edges along each declared flow's path before the max-min
        calculation.

        The query answers what it can: an unroutable pair comes back
        FAILED with zeroed bandwidths and an empty path.

        The batch is planned first (:mod:`repro.modeler.planner`):
        endpoints collapse into one Master fetch and duplicate pairs
        resolve their route once, while the joint allocation still sees
        one flow per requested instance.

        The arguments are checked before anything is fetched: a pair or
        declared flow the Modeler cannot read, no pairs at all, or
        ``predict`` without a prediction service raise
        :class:`ArgumentError`.
        """
        try:
            ip_pairs = [(_ip_of(s), _ip_of(d)) for s, d in pairs]
            own = [
                (_ip_of(s), _ip_of(d), float(rate)) for s, d, rate in (own_flows or [])
            ]
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"bad flow arguments: {exc}") from exc
        if not ip_pairs:
            raise ArgumentError("a flow query needs at least one pair")
        if predict and self.prediction_service is None:
            raise ArgumentError("no prediction service configured")
        with obs.span("modeler.flow_query") as sp:
            obs.counter("modeler.queries", kind="flow").inc()
            plan = plan_flow_pairs(
                ip_pairs, [ip for s, d, _ in own for ip in (s, d)]
            )
            # The only WAN edges read below are those on the paths of
            # the asked pairs (and of declared own flows), so only those
            # site pairs need measuring.
            scope = _pair_scope(plan.unique_pairs, own, len(plan.involved))
            # Without own traffic to credit the fetched graph is only
            # read, so the memoized graph can be served as-is — and the
            # paths it resolves stay resolved for the next query.
            graph, meta, entry = self._fetch(
                list(plan.involved),
                include_dynamics=True,
                private=bool(own),
                scope=scope,
            )
            if own:
                self._credit_own_flows(graph, own)
            # When _fetch served the memoized graph itself (no own
            # traffic), resolved predictions can be memoized right on
            # the entry: the answers are a pure function of (graph,
            # pairs).
            cached_plan = entry.flow_plans.get(plan.pairs) if entry is not None else None
            if cached_plan is not None:
                preds, failed_spec = cached_plan
            else:
                # Resolve each unique pair's route once; instances
                # share it.
                unique_paths: list[list[str] | None] = []
                for s, d in plan.unique_pairs:
                    # Split the request: pairs without a route through
                    # what the collectors could deliver degrade to
                    # FAILED answers instead of poisoning the whole
                    # (joint) query.
                    nodes: list[str] | None = None
                    try:
                        if graph.has_node(s) and graph.has_node(d):
                            nodes = graph.path(s, d)
                    except TopologyError:
                        nodes = None
                    unique_paths.append(nodes)
                answerable: list[tuple[str, str]] = []
                failed_spec = []
                for idx, k in enumerate(plan.instance_of):
                    if unique_paths[k] is not None:
                        answerable.append(ip_pairs[idx])
                    else:
                        failed_spec.append(idx)
                preds = predict_flows(graph, answerable)
                failed_spec = tuple(failed_spec)
                if entry is not None:
                    entry.flow_plans[plan.pairs] = (preds, failed_spec)
            failed: dict[int, FlowAnswer] = {}
            for idx in failed_spec:
                s, d = ip_pairs[idx]
                failed[idx] = FlowAnswer(
                    s, d, 0.0, 0.0, 0.0, 0.0, 0.0, (),
                    status=QueryStatus.FAILED,
                    data_age_s=meta.data_age_s,
                    provenance=meta.provenance,
                    trace_id=sp.trace_id,
                )
            good = [self._to_answer(p, meta, sp.trace_id) for p in preds]
            if predict:
                for ans in good:
                    self._attach_prediction(graph, ans, horizon_steps)
            if not failed:
                return good
            it = iter(good)
            return [
                failed[idx] if idx in failed else next(it)
                for idx in range(len(ip_pairs))
            ]

    @staticmethod
    def _credit_own_flows(graph: TopologyGraph, own: list[tuple[str, str, float]]) -> None:
        """Subtract the application's declared traffic from measured
        utilization along each declared flow's path."""
        if graph.frozen:
            raise TopologyError("cannot credit own flows on a frozen (shared) graph")
        for src, dst, rate in own:
            try:
                nodes = graph.path(src, dst)
            except TopologyError:
                continue  # declared flow not on this topology: ignore
            for a, b in zip(nodes, nodes[1:]):
                e = graph.edge(a, b)
                if a == e.a:
                    e.util_ab_bps = max(0.0, e.util_ab_bps - rate)
                else:
                    e.util_ba_bps = max(0.0, e.util_ba_bps - rate)

    # -- nodes ---------------------------------------------------------

    def _node_answers(
        self, hosts: Iterable[HostLike], predict: bool, horizon_steps: int
    ) -> list[NodeAnswer]:
        """Current (and optionally forecast) load of compute nodes.

        No provider, or a host the Modeler cannot read, raises
        :class:`ArgumentError` before any host is asked.
        """
        if self.node_info_provider is None:
            raise ArgumentError("no node information provider configured")
        ips = _host_ips(hosts)
        with obs.span("modeler.node_query") as sp:
            obs.counter("modeler.queries", kind="node").inc()
            answers: list[NodeAnswer] = []
            for ip in ips:
                self.net.engine.advance(RPC_LOCAL_S)
                load, predictor = self.node_info_provider(ip)
                ans = NodeAnswer(ip, load, trace_id=sp.trace_id)
                if load is None:
                    # no sensor covers this host; the answer says so
                    # rather than raising (historical behaviour)
                    ans.status = QueryStatus.FAILED
                else:
                    ans.provenance = ("host-sensor",)
                if predict and predictor is not None:
                    fc = predictor.forecast()
                    k = min(horizon_steps, fc.values.size)
                    if k >= 1:
                        ans.predicted_load = float(fc.values[k - 1])
                        ans.predicted_var = float(fc.variances[k - 1])
                answers.append(ans)
            return answers

    # -- internals ----------------------------------------------------------

    def _fetch(
        self,
        ips: list[str],
        include_dynamics: bool,
        private: bool = True,
        scope: frozenset[tuple[str, str]] | None = None,
    ) -> tuple[TopologyGraph, _FetchMeta, _CachedFetch | None]:
        """Topology for ``ips``, served from the memo cache when fresh,
        with the cache entry when — and only when — the graph returned
        *is* that entry's graph: results that are pure functions of
        that graph, which is replaced, never mutated, on refetch, can
        be memoized on the entry.

        ``scope`` names the host pairs whose connectivity the caller
        will read (see :func:`_pair_scope`); the Master then measures
        only the site pairs they span.  None asks for the full mesh.

        ``private=True`` returns a copy the caller owns outright (flow
        queries credit own traffic by mutating edges in place; raw
        topology answers hand the graph to the application).  Callers
        that only *read* pass ``private=False`` and share the memoized
        graph itself — skipping the copy, and letting the shortest
        paths they resolve accumulate on the cached entry so later
        queries start warm.
        """
        self.queries_made += 1
        caching = self.query_cache_ttl_s > 0
        keys = self._cache_keys(ips, include_dynamics, scope)
        key = keys[0]
        if caching:
            for k in keys:
                entry = self._query_cache.get(k)
                if entry is None:
                    continue
                if (
                    self.net.now - entry.fetched_at <= self.query_cache_ttl_s
                    and entry.graph.version == entry.version
                ):
                    obs.counter("modeler.query_cache", result="hit").inc()
                    self._query_cache.move_to_end(k)
                    self.net.engine.advance(RPC_LOCAL_S)
                    if private:
                        return entry.graph.copy(), entry.meta, None
                    return entry.graph, entry.meta, entry
                self._forget(k)  # expired: dropped where it is found
            obs.counter("modeler.query_cache", result="miss").inc()
        self.net.engine.advance(RPC_LOCAL_S)
        try:
            resp = self.master.topology(
                TopologyRequest(
                    tuple(ips), include_dynamics=include_dynamics, pairs=scope
                )
            )
        except RemosError:
            # the Master itself is unreachable — nothing to serve
            self._forget(key)
            meta = _FetchMeta(QueryStatus.FAILED, 0.0, (), tuple(ips), {})
            return TopologyGraph(), meta, None
        provenance = tuple(sorted(resp.site_status)) or (self.master.name,)
        meta = _FetchMeta(
            status=resp.status,
            data_age_s=resp.data_age_s,
            provenance=provenance,
            unresolved=tuple(resp.unresolved),
            site_status=resp.site_status,
        )
        if meta.status == QueryStatus.PARTIAL:
            obs.counter("query.partial").inc()
        if caching:
            if meta.status == QueryStatus.OK:
                entry = _CachedFetch(resp.graph, resp.graph.version, self.net.now, meta)
                # a new key (whatever it held was served or dropped above),
                # so it lands at the recent end
                self._query_cache[key] = entry
                while len(self._query_cache) > QUERY_CACHE_MAX_ENTRIES:
                    self._query_cache.popitem(last=False)
                self._cache_gauge()
                if private:
                    return resp.graph.copy(), meta, None
                return resp.graph, meta, entry
            # degraded response: never memoize it, and drop whatever the
            # cache held — it describes a world the collectors can no
            # longer confirm and would otherwise replay after recovery
            self._forget(key)
        return resp.graph, meta, None

    def _forget(self, key: tuple) -> None:
        """Drop one memoized response, if held."""
        if self._query_cache.pop(key, None) is not None:
            self._cache_gauge()

    def _cache_gauge(self) -> None:
        obs.gauge("modeler.query_cache_entries").set(len(self._query_cache))

    def invalidate_cache(self, sites: Iterable[str] | None = None) -> None:
        """Drop memoized responses (e.g. after a known topology change).

        With ``sites`` (an iterable of site names) the eviction is
        **scoped**: only entries whose provenance intersects the named
        sites are dropped — one site's topology delta no longer evicts
        every memoized answer.  ``None`` keeps the historical
        flush-everything behaviour.  Scoping is observable on the
        ``modeler.query_cache`` counter (``result="evicted"`` /
        ``"survived"``).  The invalidation also propagates to the
        Master plane (flat or sharded), dropping its last-known-good
        fragments for the named sites so a known topology change is
        never served from survival caches either.
        """
        drop = getattr(self.master, "invalidate_sites", None)
        if drop is not None:
            drop(sites)
        if sites is None:
            self._query_cache.clear()
            self._cache_gauge()
            return
        wanted = set(sites)
        doomed = [
            key
            for key, entry in self._query_cache.items()
            if wanted & set(entry.meta.provenance)
        ]
        for key in doomed:
            del self._query_cache[key]
        obs.counter("modeler.query_cache", result="evicted").inc(len(doomed))
        obs.counter("modeler.query_cache", result="survived").inc(
            len(self._query_cache)
        )
        self._cache_gauge()

    @staticmethod
    def _to_answer(
        p: FlowPrediction, meta: _FetchMeta, trace_id: str | None
    ) -> FlowAnswer:
        # A pair answered from a PARTIAL topology is itself suspect —
        # traffic from the missing sites is invisible to the max-min
        # model — so the fetch status carries through to the answer.
        return FlowAnswer(
            p.src, p.dst, p.rate_bps, p.bottleneck_bps, p.capacity_bps,
            p.latency_s, p.jitter_s, p.path,
            status=meta.status,
            data_age_s=meta.data_age_s,
            provenance=meta.provenance,
            trace_id=trace_id,
        )

    def _attach_prediction(
        self, graph: TopologyGraph, ans: FlowAnswer, horizon_steps: int
    ) -> None:
        """Forecast the bottleneck edge's available bandwidth via RPS.

        History comes from the collectors through the Master's history
        interface (the paper's planned XML-protocol path).  The caller
        has checked that a prediction service is configured.
        """
        # Find the tightest edge on the path and its rate history.
        best: tuple[float, str, str] | None = None
        for a, b in zip(ans.path, ans.path[1:]):
            e = graph.edge(a, b)
            avail = e.available_from(a)
            if best is None or avail < best[0]:
                best = (avail, a, b)
        if best is None:
            return
        _, a, b = best
        request = HistoryRequest(a, b)
        # Streaming predictors at the collectors answer without a fit
        # (§2.3's amortized path); fall back to history + client-server.
        kind = "utilization"
        self.net.engine.advance(RPC_LOCAL_S)
        out = self.master.forecast_edge(request, horizon_steps)
        if out is None:
            self.net.engine.advance(RPC_LOCAL_S)
            resp = self.master.history(request)
            if resp is None or len(resp.rates_bps) < 8:
                return  # not enough history: leave prediction unset
            kind = resp.kind
            out = self.prediction_service.predict_series(
                np.asarray(resp.rates_bps, dtype=float), horizon_steps
            )
        preds, variances = out
        predicted = float(preds[-1])
        if kind == "available":
            ans.predicted_bps = max(0.0, predicted)
        else:
            cap = graph.edge(a, b).capacity_bps
            ans.predicted_bps = (
                max(0.0, min(cap, cap - predicted)) if math.isfinite(cap) else math.inf
            )
        ans.predicted_var = float(variances[-1])
