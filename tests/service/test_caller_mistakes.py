"""A caller's mistake is ``bad_request``, answered once, before any fetch.

The dispatch pipeline sorts what goes wrong in a backend call into two
kinds.  An argument the Modeler rejects (``ArgumentError``: an unknown
detail level, ``predict`` with no prediction service, an unreadable
host) costs no Master query, is never recorded by the circuit breaker
and so cannot shed other tenants.  Every other exception is the
backend's: ``backend_error``, counted by the breaker.
"""

import asyncio

import pytest

from repro.deploy import deploy_lan
from repro.modeler.api import FlowAnswer
from repro.netsim.builders import build_switched_lan
from repro.obs.timebase import FixedTimebase
from repro.service import DirectClient, RemosService, ServiceError
from repro.service.app import SessionBackend
from repro.service.breaker import CircuitBreaker


def make_service():
    lan = build_switched_lan(8, fanout=4)
    dep = deploy_lan(lan)
    lan.net.engine.run_until(lan.net.now + 10.0)
    hosts = [str(h.ip) for h in lan.hosts]
    return dep, RemosService.from_deployment(dep), hosts


async def error_code(client, endpoint, body):
    with pytest.raises(ServiceError) as exc:
        await client.call(endpoint, body)
    return exc.value.code


class TestArgumentErrors:
    def test_bogus_detail_is_bad_request_and_never_opens_the_breaker(self):
        dep, service, hosts = make_service()

        async def run():
            careless = DirectClient(service, tenant="careless")
            body = {"hosts": hosts[:2], "detail": "bogus"}
            codes = [await error_code(careless, "topology", body) for _ in range(5)]
            _, served = await DirectClient(service, tenant="other").served(
                "flow_info", {"src": hosts[0], "dst": hosts[5]}
            )
            return codes, service.breaker.state, dict(service.stats), served

        codes, breaker, stats, served = asyncio.run(run())
        assert codes == ["bad_request"] * 5
        assert breaker == "closed"
        assert stats["backend_error"] == 0
        assert served == "live"

    def test_predict_without_a_prediction_service_costs_no_master_query(self):
        dep, service, hosts = make_service()

        async def run():
            assert dep.modeler.prediction_service is None
            before = dep.master.queries_served
            code = await error_code(
                DirectClient(service),
                "flow_info",
                {"src": hosts[0], "dst": hosts[5], "predict": True},
            )
            return code, dep.master.queries_served - before, dict(service.stats)

        code, master_queries, stats = asyncio.run(run())
        assert code == "bad_request"
        assert master_queries == 0
        assert stats["backend_error"] == 0 and stats["live"] == 0

    @pytest.mark.parametrize(
        "endpoint, body",
        [
            ("flow_info", {"src": "bogus", "dst": "10.1.1.2"}),
            ("flow_info_many", {"pairs": []}),
            ("topology", {"hosts": []}),
            ("node_info", {"hosts": ["10.1.1"]}),
        ],
    )
    def test_unreadable_or_missing_hosts_are_bad_requests(self, endpoint, body):
        dep, service, _ = make_service()

        async def run():
            before = dep.master.queries_served
            code = await error_code(DirectClient(service), endpoint, body)
            return code, dep.master.queries_served - before

        assert asyncio.run(run()) == ("bad_request", 0)

    def test_a_bad_request_in_half_open_leaves_the_probe_to_a_real_call(self):
        """A half-open breaker lets one probe through; a caller's mistake
        taking it must hand it back, or the breaker would stay
        half-open with no probe left."""

        dep, service, hosts = make_service()

        async def run():
            clock = FixedTimebase()
            service.breaker = CircuitBreaker(
                min_calls=1, reset_s=1.0, half_open_probes=1, clock=clock.now
            )
            service.breaker.record(False)
            clock.advance(1.0)
            assert service.breaker.state == "half_open"
            client = DirectClient(service)
            bogus = {"hosts": hosts[:2], "detail": "bogus"}
            codes = [await error_code(client, "topology", bogus) for _ in range(2)]
            _, served = await client.served("flow_info", {"src": hosts[0], "dst": hosts[5]})
            return codes, served, service.breaker.state

        codes, served, state = asyncio.run(run())
        assert codes == ["bad_request", "bad_request"]
        assert (served, state) == ("live", "closed")


class TestBackendErrors:
    def test_any_other_exception_is_a_backend_error_the_breaker_counts(self):
        """Only ``ArgumentError`` is the caller's: a ``KeyError`` from
        inside the backend is the backend's failure."""

        class BrokenSession:
            def flow_info(self, src, dst, **kw):
                raise KeyError("lost a table entry")

        service = RemosService(SessionBackend(BrokenSession()))
        service.breaker = CircuitBreaker(min_calls=1)

        async def run():
            return await error_code(
                DirectClient(service), "flow_info", {"src": "10.0.0.1", "dst": "10.0.0.2"}
            )

        assert asyncio.run(run()) == "backend_error"
        assert service.stats["backend_error"] == 1
        assert service.breaker.state == "open"

    def test_one_backend_call_per_request(self):
        calls = []

        class FlakySession:
            def flow_info(self, src, dst, **kw):
                calls.append((src, dst))
                if len(calls) == 1:
                    raise RuntimeError("transient")
                return FlowAnswer(
                    src=src, dst=dst, available_bps=1.0, bottleneck_bps=1.0,
                    capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=(),
                )

        service = RemosService(SessionBackend(FlakySession()))
        client = DirectClient(service)
        body = {"src": "10.0.0.1", "dst": "10.0.0.2"}

        async def run():
            code = await error_code(client, "flow_info", body)
            _, served = await client.served("flow_info", body)
            return code, served

        assert asyncio.run(run()) == ("backend_error", "live")
        assert len(calls) == 2
