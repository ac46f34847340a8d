"""RemosService: the query-plane application behind the HTTP edge.

One dispatch pipeline serves every endpoint, in-process
(:class:`repro.service.client.DirectClient`) and over HTTP
(:mod:`repro.service.http`) alike — the equivalence guarantee falls
out of that sharing:

1. count + trace the request (``service.requests``, ``service.request``
   span), through metric handles bound once per registry generation;
2. per-tenant token bucket (:mod:`repro.service.ratelimit`);
3. admission control — at ``max_inflight`` concurrent backend calls a
   query request is *shed* to the last-known-good answer, served STALE
   (:mod:`repro.service.admission`), never queued.  The answer is keyed
   by the body's canonical text, which :class:`DirectClient` has already
   made: a shed then neither encodes nor decodes the body;
4. circuit breaker around the backend (:mod:`repro.service.breaker`) —
   an open breaker also takes the LKG shed path;
5. service-level fault injection (``service_error`` /
   ``service_delay`` in :mod:`repro.faults`), so chaos suites can
   exercise every path above deterministically;
6. the actual :class:`repro.session.RemosSession` call, once (failures
   are retried where they are measured, in the collectors and the
   Master), after one yield to the loop.  The call is synchronous and
   nothing awaits between that yield and the answer, so the loop runs
   one session call at a time, in admission order: no lock.  A
   caller's mistake is ``bad_request`` with no breaker outcome; any
   other exception is recorded by the breaker and shed (see
   :meth:`RemosService._route`);
7. good answers (no FAILED member) refresh the LKG store.

The backend answers in canonical wire dicts; the HTTP edge serializes
them with :func:`repro.service.wire.canonical_json` and the in-process
client reconstructs ``Answer`` objects through the identical
``from_dict`` path a remote client uses.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Awaitable, Callable

from repro import obs
from repro.common.errors import ArgumentError
from repro.netsim.address import IPv4Address
from repro.service.admission import AdmissionController, LastKnownGoodStore
from repro.service.breaker import CircuitBreaker
from repro.service.ratelimit import TenantRateLimiter
from repro.service.subs import FlowWatcher, SubscriptionHub, flow_channel
from repro.service.wire import AnswerRecord, WireError, canonical_json, result_body

__all__ = ["BackendFaultError", "RemosService", "ServiceConfig", "SessionBackend"]

log = obs.get_logger(__name__)

#: endpoints that answer from the session and participate in
#: admission control / LKG shedding; ``RemosService._plumbing`` holds
#: the others
QUERY_ENDPOINTS: frozenset[str] = frozenset(
    {"flow_info", "flow_info_many", "topology", "node_info"}
)

#: longest a subscription long-poll may ask to wait
SUBS_MAX_POLL_S = 30.0


class BackendFaultError(RuntimeError):
    """Transient backend failure injected by the service fault point."""


@dataclass
class ServiceConfig:
    """The knobs ``repro serve`` sets (see docs/service.md)."""

    # rate limiting (per tenant)
    rate: float = 200.0
    burst: float = 400.0
    # admission control
    max_inflight: int = 64


@dataclass
class SessionBackend:
    """What the service needs from a deployment.

    ``session`` answers queries; ``master`` (optional) contributes its
    health snapshot to ``/v1/health``; ``net`` (optional) carries the
    installed :class:`repro.faults.FaultInjector` consulted by the
    service fault points.
    """

    session: Any
    master: Any = None
    net: Any = None

    @classmethod
    def from_deployment(cls, dep: Any) -> "SessionBackend":
        return cls(session=dep.session(), master=dep.master, net=dep.net)

    @property
    def faults(self) -> Any:
        return getattr(self.net, "faults", None) if self.net is not None else None

    def health(self) -> dict[str, Any]:
        if self.master is not None and hasattr(self.master, "health"):
            return dict(self.master.health())
        return {"kind": "unknown"}


def _read_body(body: dict[str, Any] | None, text: str | None) -> dict[str, Any]:
    """``body``, or the body decoded from ``text`` when the caller gave
    only that; neither is an empty body, as at the HTTP edge."""
    if body is not None:
        return body
    decoded: dict[str, Any] = json.loads(text or "{}")
    return decoded


class _Meters:
    """The service's metric handles in one registry generation.

    Every request touches some of these, and resolving each by name and
    labels on every touch was a measurable share of a shed answer's cost,
    so :meth:`RemosService._meters` binds them once, and again only when
    another registry is installed or the current one is reset (the
    ``Engine._observe`` idiom).  An endpoint's ``service.requests`` and
    a reason's ``service.shed`` are bound on first use; every path that
    is no endpoint shares the one ``unknown`` entry.
    """

    __slots__ = (
        "registry",
        "generation",
        "requests",
        "shed",
        "ratelimited",
        "inflight",
        "lkg_entries",
    )

    def __init__(self, reg: Any) -> None:
        self.registry = reg
        self.generation = reg.generation
        self.requests: dict[str, Any] = {}
        self.shed: dict[str, Any] = {}
        self.ratelimited = reg.counter("service.ratelimited")
        self.inflight = reg.gauge("service.inflight")
        self.lkg_entries = reg.gauge("service.lkg_entries")


class RemosService:
    """The Remos query plane: sessions as a shared, hardened service."""

    def __init__(
        self, backend: SessionBackend, config: ServiceConfig | None = None
    ) -> None:
        self.backend = backend
        self.config = config or ServiceConfig()
        cfg = self.config
        self.limiter = TenantRateLimiter(rate=cfg.rate, burst=cfg.burst)
        self.admission = AdmissionController(max_inflight=cfg.max_inflight)
        self.lkg = LastKnownGoodStore()
        self.breaker = CircuitBreaker()
        self.hub = SubscriptionHub()
        self.watcher = FlowWatcher(backend.session)
        #: service-side tallies, mirrored into obs counters; the
        #: ``/v1/metrics`` endpoint and the end-to-end benchmark read these
        self.stats: dict[str, int] = {
            "requests": 0,
            "live": 0,
            "shed_lkg": 0,
            "rate_limited": 0,
            "overloaded": 0,
            "breaker_open": 0,
            "backend_error": 0,
            "subs_events": 0,
        }
        self._bound: _Meters | None = None
        #: the endpoints that are not queries, each with what serves it
        self._plumbing: dict[
            str, Callable[[_Meters, dict[str, Any]], Awaitable[dict[str, Any]]]
        ] = {
            "subscribe": self._subscribe,
            "invalidate": self._invalidate,
            "health": self._health,
            "metrics": self._metrics,
        }

    @classmethod
    def from_deployment(
        cls, dep: Any, config: ServiceConfig | None = None
    ) -> "RemosService":
        return cls(SessionBackend.from_deployment(dep), config)

    # -- dispatch ------------------------------------------------------

    def _meters(self) -> _Meters:
        """The metric handles of the current registry and generation.

        Binding them anew also sets ``service.ratelimit.tenants`` there,
        which is otherwise set only when a bucket is made.
        """
        reg = obs.get_registry()
        meters = self._bound
        if meters is None or meters.registry is not reg or meters.generation != reg.generation:
            meters = self._bound = _Meters(reg)
            reg.gauge("service.ratelimit.tenants").set(len(self.limiter))
        return meters

    async def dispatch(
        self,
        endpoint: str,
        body: dict[str, Any] | None,
        tenant: str = "anonymous",
        *,
        text: str | None = None,
    ) -> dict[str, Any]:
        """Serve one request; returns a wire response envelope.

        ``text`` is ``canonical_json(body)`` where the caller has already
        made it (:class:`DirectClient` does): it keys the query's
        last-known-good answer, and ``body`` may then be None, to be
        decoded from ``text`` only by a step that reads it.  A shed
        answer reads no body.

        Raises :class:`WireError` for every policy rejection; the HTTP
        edge (or :class:`DirectClient`) maps that onto status codes.
        """
        meters = self._meters()
        self.stats["requests"] += 1
        label = endpoint
        counter = meters.requests.get(endpoint)
        if counter is None:
            # every path that is no endpoint counts under one label: a
            # stray path mints no series of its own
            if endpoint not in QUERY_ENDPOINTS and endpoint not in self._plumbing:
                label = "unknown"
            counter = meters.requests[label] = meters.registry.counter(
                "service.requests", endpoint=label
            )
        counter.inc()
        with meters.registry.span("service.request", endpoint=label):
            try:
                self.limiter.admit(tenant)
            except WireError:
                self.stats["rate_limited"] += 1
                meters.ratelimited.inc()
                raise
            if endpoint in QUERY_ENDPOINTS:
                key = self._lkg_key(endpoint, body, text)
                if not self.admission.try_admit():
                    return self._shed(meters, key, "overloaded")
                return await self._query(endpoint, body, text, key)
            serve = self._plumbing.get(endpoint)
            if serve is None:
                raise WireError("not_found", f"unknown endpoint {endpoint!r}")
            return await serve(meters, _read_body(body, text))

    # -- query path ----------------------------------------------------

    def _lkg_key(self, endpoint: str, body: Any, text: str | None = None) -> str:
        """The query's key in the last-known-good store: the endpoint and
        the body's canonical text (``text``, when the caller has it)."""
        return f"{endpoint}:{canonical_json(body) if text is None else text}"

    def _shed(
        self, meters: _Meters, key: str, code: str, message: str | None = None
    ) -> dict[str, Any]:
        """Serve the LKG answer for ``key`` (STALE), or count ``code`` and
        raise it: ``overloaded`` and ``breaker_open`` with a retry hint,
        ``backend_error`` with the backend's ``message``."""
        payload = self.lkg.serve_stale(key)
        if payload is None:
            self.stats[code] += 1
            if message is not None:
                raise WireError(code, message)
            raise WireError(
                code,
                f"request shed ({code}) and no last-known-good answer",
                retry_after_s=0.05,
            )
        self.stats["shed_lkg"] += 1
        counter = meters.shed.get(code)
        if counter is None:
            counter = meters.shed[code] = meters.registry.counter("service.shed", reason=code)
        counter.inc()
        return result_body(payload, served="shed_lkg")

    async def _query(
        self,
        endpoint: str,
        body: dict[str, Any] | None,
        text: str | None,
        key: str,
    ) -> dict[str, Any]:
        """Serve an admitted query; its slot is released once answered.

        Its handles are taken afresh at each write: the registry may be
        swapped or reset while the backend call is awaited.
        """
        try:
            self._meters().inflight.set(self.admission.inflight)
            body = _read_body(body, text)
            try:
                self.breaker.before_call()
            except WireError:
                return self._shed(self._meters(), key, "breaker_open")
            injector = self.backend.faults
            if injector is not None:
                stall = injector.service_delay()
                if stall > 0:
                    await asyncio.sleep(stall)
            try:
                payload = await self._call_backend(endpoint, body, key)
            except WireError:
                self.breaker.release()  # the caller's mistake: no outcome
                raise
            except Exception as exc:
                self.breaker.record(False)
                log.warning("backend error on %s: %s", endpoint, exc)
                return self._shed(
                    self._meters(), key, "backend_error", f"{type(exc).__name__}: {exc}"
                )
            self.breaker.record(True)
            self.stats["live"] += 1
            self.lkg.store(key, payload)
            self._meters().lkg_entries.set(len(self.lkg))
            return result_body(payload, served="live")
        finally:
            self.admission.release()
            self._meters().inflight.set(self.admission.inflight)

    async def _call_backend(self, endpoint: str, body: dict[str, Any], key: str) -> Any:
        """Run the session call once, after one yield to the loop."""
        # yield once: the sim backend is synchronous, so without this a
        # request would run to completion before the loop ever schedules a
        # concurrent arrival — admission control would never see real
        # contention and overload could not shed.  Nothing may await
        # between this yield and the answer: then the loop itself runs one
        # session call at a time, in the order the requests were admitted
        await asyncio.sleep(0)
        with obs.span("service.backend", endpoint=endpoint):
            injector = self.backend.faults
            if injector is not None and injector.service_error():
                raise BackendFaultError("injected service backend fault")
            return self._route(endpoint, body, key)

    def _route(self, endpoint: str, body: dict[str, Any], key: str) -> Any:
        """Run the session call a wire body asks for; returns wire dicts.

        A body the service cannot read, and any argument the Modeler
        rejects (:class:`ArgumentError`), is the caller's mistake:
        ``bad_request``.  Every other exception is the backend's and
        propagates.  A single answer is returned as an
        :class:`AnswerRecord`: the one stored for the query (``key``)
        restamped when both come from the same memoized fetch, so the
        answer is neither rebuilt nor encoded again; lists of answers
        stay plain.
        """
        try:
            call = self._session_call(endpoint, body)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise WireError("bad_request", f"bad arguments: {exc}") from exc
        try:
            answer = call()
        except ArgumentError as exc:
            raise WireError("bad_request", str(exc)) from exc
        if isinstance(answer, list):
            return [a.to_dict() for a in answer]
        basis = answer.basis
        if basis is not None:
            last = self.lkg.peek(key)
            if type(last) is AnswerRecord and last.basis == basis:
                return last.restamped(answer.trace_id)
        return AnswerRecord(answer.to_dict(), basis)

    def _session_call(self, endpoint: str, body: dict[str, Any]) -> Callable[[], Any]:
        """The session call for ``endpoint``, its wire arguments read."""
        session = self.backend.session
        if endpoint == "topology":
            return partial(
                session.topology,
                body["hosts"],
                detail=str(body.get("detail", "simplified")),
                include_dynamics=bool(body.get("include_dynamics", True)),
            )
        predict = bool(body.get("predict", False))
        horizon_steps = int(body.get("horizon_steps", 1))
        if endpoint == "flow_info":
            return partial(
                session.flow_info,
                body["src"],
                body["dst"],
                predict=predict,
                horizon_steps=horizon_steps,
            )
        if endpoint == "flow_info_many":
            own = body.get("own_flows")
            return partial(
                session.flow_info_many,
                [(p[0], p[1]) for p in body["pairs"]],
                predict=predict,
                horizon_steps=horizon_steps,
                own_flows=[(o[0], o[1], float(o[2])) for o in own] if own else None,
            )
        if endpoint == "node_info":
            return partial(
                session.node_info,
                body["hosts"],
                predict=predict,
                horizon_steps=horizon_steps,
            )
        raise WireError("not_found", f"unknown endpoint {endpoint!r}")

    # -- plumbing endpoints --------------------------------------------

    async def _invalidate(self, meters: _Meters, body: dict[str, Any]) -> dict[str, Any]:
        sites = body.get("sites")
        if sites is not None and not isinstance(sites, list):
            raise WireError("bad_request", "sites must be a list of site names")
        self.backend.session.invalidate_cache(sites)
        evicted = self.lkg.invalidate(sites)
        meters.lkg_entries.set(len(self.lkg))
        return result_body({"invalidated_lkg": evicted, "sites": sites})

    async def _subscribe(self, meters: _Meters, body: dict[str, Any]) -> dict[str, Any]:
        # all of it read before anything is watched: a pair no sweep can
        # answer would make every later tick raise
        try:
            pairs = [(str(p[0]), str(p[1])) for p in body.get("pairs") or []]
            for src, dst in pairs:
                IPv4Address(src)
                IPv4Address(dst)
            since = int(body.get("since", 0))
            timeout_s = min(float(body.get("timeout_s", 0.0)), SUBS_MAX_POLL_S)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise WireError("bad_request", f"bad subscribe arguments: {exc}") from exc
        for src, dst in pairs:
            self.watcher.watch(src, dst)
        channels = [flow_channel(src, dst) for src, dst in pairs] or None
        resume_lost = self.hub.resume_lost(since)
        if timeout_s > 0 and not resume_lost:
            events = await self.hub.wait(channels, since, timeout_s)
        else:
            events = self.hub.events_since(channels, since)
        return result_body(
            {
                "events": events,
                "seq": self.hub.seq,
                "oldest_seq": self.hub.oldest_seq,
                "resume_lost": resume_lost,
            }
        )

    def tick_subscriptions(self) -> int:
        """Poll watched flows once, publishing changes to the hub.

        Driven by the server's background task in wall time, or called
        directly by tests that own the sim clock.
        """
        published = self.watcher.tick(self.hub)
        if published:
            self.stats["subs_events"] += published
            obs.counter("service.subs_events").inc(published)
        return published

    # -- introspection -------------------------------------------------

    async def _health(self, meters: _Meters, body: dict[str, Any]) -> dict[str, Any]:
        return result_body(self.health())

    async def _metrics(self, meters: _Meters, body: dict[str, Any]) -> dict[str, Any]:
        return result_body(self.metrics())

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok" if self.breaker.state == "closed" else "degraded",
            "breaker": self.breaker.state,
            "inflight": self.admission.inflight,
            "max_inflight": self.admission.max_inflight,
            "lkg_entries": len(self.lkg),
            "subs": {
                "seq": self.hub.seq,
                "published": self.hub.published,
                "watched_pairs": len(self.watcher.pairs),
            },
            "backend": self.backend.health(),
        }

    def metrics(self) -> dict[str, Any]:
        obs.gauge("service.breaker_transitions").set(self.breaker.transitions)
        # registry is empty under the default NullRegistry; `repro serve`
        # installs a live one so this carries the service.* catalogue
        registry = obs.export.snapshot(obs.get_registry(), max_spans=16)
        return {
            "stats": dict(self.stats),
            "breaker_transitions": self.breaker.transitions,
            "lkg_entries": len(self.lkg),
            "registry": registry,
        }
