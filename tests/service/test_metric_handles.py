"""The service's metric handles follow the registry that is current.

``RemosService`` binds ``service.requests{endpoint}``,
``service.shed{reason}``, ``service.ratelimited``, ``service.inflight``
and ``service.lkg_entries`` once per registry and generation instead of
resolving them by name on every request.  A handle bound in one
registry must not keep counting there once another registry is
installed, nor once the current one is reset (which drops every metric
it held): each of the five must read what this registry saw.
"""

import asyncio

from repro import obs
from repro.modeler.api import FlowAnswer
from repro.service import DirectClient, ServiceError
from repro.service.app import RemosService, ServiceConfig, SessionBackend
from repro.service.wire import WireError

BODY = {"src": "10.0.0.1", "dst": "10.0.0.2"}


class Session:
    """Answers every flow at once and notes the inflight gauge the
    current registry reads while the call holds its slot."""

    def __init__(self) -> None:
        self.inflight_seen: list[float] = []

    def flow_info(self, src, dst, **kw):
        self.inflight_seen.append(obs.get_registry().gauge("service.inflight").value)
        return FlowAnswer(
            src=src, dst=dst, available_bps=1.0, bottleneck_bps=1.0,
            capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=(),
        )


def one_round(service: RemosService, session: Session, tag: str) -> float:
    """One live answer, one shed answer and one rate-limited request,
    each from a tenant of its own; the inflight gauge the live call saw."""

    async def run() -> None:
        await DirectClient(service, tenant=f"{tag}-live").call("flow_info", BODY)
        assert service.admission.try_admit()  # the one slot is taken: shed
        try:
            shed = await DirectClient(service, tenant=f"{tag}-shed").call("flow_info", BODY)
        finally:
            service.admission.release()
        assert shed["served"] == "shed_lkg"
        greedy = DirectClient(service, tenant=f"{tag}-greedy")
        await greedy.call("health", {})
        try:
            await greedy.call("health", {})
        except ServiceError as exc:
            assert exc.code == "rate_limited"
        else:
            raise AssertionError("a second request inside a burst of 1 was admitted")

    asyncio.run(run())
    return session.inflight_seen.pop()


def readings(reg) -> dict[str, float]:
    return {
        "requests{flow_info}": reg.counter("service.requests", endpoint="flow_info").value,
        "requests{health}": reg.counter("service.requests", endpoint="health").value,
        "shed{overloaded}": reg.counter("service.shed", reason="overloaded").value,
        "ratelimited": reg.counter("service.ratelimited").value,
        "inflight": reg.gauge("service.inflight").value,
        "lkg_entries": reg.gauge("service.lkg_entries").value,
    }


def expected(rounds: int) -> tuple[dict[str, float], float]:
    """What the registry reads after ``rounds`` rounds in it, and the
    inflight gauge the live call saw: its own slot."""
    counts = {
        "requests{flow_info}": 2 * rounds,
        "requests{health}": 2 * rounds,
        "shed{overloaded}": rounds,
        "ratelimited": rounds,
        "inflight": 0.0,
        "lkg_entries": 1.0,
    }
    return counts, 1.0


def test_the_five_handles_follow_the_current_registry():
    session = Session()
    # a burst of 1 per tenant: a tenant's second request is rate-limited
    config = ServiceConfig(rate=1e-6, burst=1.0, max_inflight=1)
    service = RemosService(SessionBackend(session), config)
    with obs.scoped_registry() as first:
        seen = one_round(service, session, "a")
        assert (readings(first), seen) == expected(1)
        with obs.scoped_registry() as second:
            seen = one_round(service, session, "b")
            assert (readings(second), seen) == expected(1)
        seen = one_round(service, session, "c")
        assert (readings(first), seen) == expected(2)
        assert readings(second) == expected(1)[0]
        first.reset()
        seen = one_round(service, session, "d")
        assert (readings(first), seen) == expected(1)


def test_a_reset_during_the_backend_call_lands_in_the_reset_registry():
    """The writes after the backend call take the registry's handles
    afresh: a reset while the call was awaited does not drop them."""

    class ResettingSession(Session):
        def flow_info(self, src, dst, **kw):
            obs.get_registry().reset()
            return super().flow_info(src, dst, **kw)

    service = RemosService(SessionBackend(ResettingSession()), ServiceConfig())
    with obs.scoped_registry() as reg:
        asyncio.run(DirectClient(service).call("flow_info", BODY))
        assert reg.gauge("service.lkg_entries").value == 1.0
        assert reg.gauge("service.inflight").value == 0.0


def test_stray_paths_share_one_counter():
    """A path that is no endpoint is counted, and its span timed, under
    ``endpoint="unknown"``: stray paths mint no series of their own."""
    service = RemosService(SessionBackend(Session()), ServiceConfig())

    async def stray() -> list[str]:
        codes = []
        for k in range(3):
            try:
                await service.dispatch(f"nope{k}", {})
            except WireError as exc:
                codes.append(exc.code)
        return codes

    with obs.scoped_registry() as reg:
        assert asyncio.run(stray()) == ["not_found"] * 3
    snap = obs.export.snapshot(reg)
    assert {k: v for k, v in snap["counters"].items() if k.startswith("service.requests")} == {
        "service.requests{endpoint=unknown}": 3.0
    }
    assert list(snap["histograms"]) == ["service.request.duration_s{endpoint=unknown}"]
