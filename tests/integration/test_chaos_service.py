"""Chaos at the service plane: fault points, breaker, shed-to-STALE.

Extends the repro.faults contracts to the query service:

* **zero-overhead default** — service fault probabilities at zero leave
  wire answers byte-identical to a run without any plan;
* **graceful degradation** — with the backend failing, clients keep
  receiving answers (STALE from the LKG store), never FAILED data and
  never a retry storm: each request makes one backend call, and the
  circuit breaker opens;
* **determinism** — the same plan seed produces the same sequence of
  served statuses.
"""

import asyncio

import pytest

from repro import faults, obs
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.service import DirectClient, RemosService
from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceError
from repro.service.wire import canonical_json


def build_service(plan=None, breaker=None):
    w = build_multisite_wan(
        [
            SiteSpec("aaa", access_bps=10 * MBPS, n_hosts=2),
            SiteSpec("bbb", access_bps=20 * MBPS, n_hosts=2),
        ]
    )
    dep = deploy_wan(w)
    w.net.engine.run_until(w.net.now + 30.0)
    if plan is not None:
        faults.install(dep, plan)
    service = RemosService.from_deployment(dep)
    if breaker is not None:
        service.breaker = breaker
    pair = (str(w.host("aaa", 0).ip), str(w.host("bbb", 0).ip))
    return w, dep, service, pair


class TestZeroOverhead:
    def test_benign_plan_leaves_wire_answers_identical(self):
        async def run(with_plan):
            plan = faults.FaultPlan() if with_plan else None
            _, _, service, pair = build_service(plan=plan)
            if plan is not None:
                assert not plan.injects_anything
            ans = await DirectClient(service).flow_info(*pair)
            return canonical_json(ans.to_dict())

        assert asyncio.run(run(False)) == asyncio.run(run(True))


class TestBackendFaults:
    def test_total_backend_failure_sheds_stale_never_failed(self):
        """Warm LKG, then 100% backend faults: every subsequent answer
        is STALE LKG data — no FAILED answers, no error escapes while
        the store holds a good answer — and the breaker opens instead
        of hammering the dead backend."""

        async def run():
            w, dep, service, pair = build_service(
                breaker=CircuitBreaker(min_calls=3, failure_threshold=0.5),
                plan=faults.FaultPlan(),  # armed, nothing fires yet
            )
            client = DirectClient(service)
            live = await client.flow_info(*pair)
            assert live.ok

            dep.net.faults.plan.service_error_prob = 1.0
            body = {"src": pair[0], "dst": pair[1]}
            outcomes = []
            for _ in range(8):
                ans, served = await client.served("flow_info", body)
                outcomes.append((str(ans.status), served))
            return live, outcomes, dict(service.stats), service.breaker.state

        live, outcomes, stats, breaker_state = asyncio.run(run())
        # every response is the warm answer served STALE
        assert all(o == ("stale", "shed_lkg") for o in outcomes)
        assert stats["shed_lkg"] == 8
        assert stats["backend_error"] == 0  # LKG absorbed every failure
        # the breaker opened: later sheds never reached the backend
        assert breaker_state == "open"

    def test_no_lkg_surfaces_backend_error(self):
        async def run():
            w, dep, service, pair = build_service(
                plan=faults.FaultPlan(service_error_prob=1.0),
            )
            client = DirectClient(service)
            with pytest.raises(ServiceError) as exc:
                await client.flow_info(*pair)
            return exc.value.code, dict(service.stats)

        code, stats = asyncio.run(run())
        assert code == "backend_error"
        assert stats["backend_error"] == 1

    def test_flaky_backend_faults_shed_or_surface(self):
        """50% seeded faults: each request makes one backend call, and
        every injected fault is visible in the faults counter."""

        async def run():
            w, dep, service, pair = build_service(
                breaker=CircuitBreaker(min_calls=10_000),  # never trips: isolate the faults
                plan=faults.FaultPlan(seed=3, service_error_prob=0.5),
            )
            client = DirectClient(service)
            body = {"src": pair[0], "dst": pair[1]}
            served_live = 0
            with obs.scoped_registry() as reg:
                for _ in range(20):
                    try:
                        _, served = await client.served("flow_info", body)
                        served_live += served == "live"
                    except ServiceError:
                        pass
                snap = obs.export.snapshot(reg)
            return served_live, dict(service.stats), snap["counters"]

        served_live, stats, counters = asyncio.run(run())
        # every injected fault is accounted for: shed to LKG or
        # surfaced as backend_error; every other request was live
        assert counters["faults.injected{kind=service_error}"] == (
            stats["shed_lkg"] + stats["backend_error"]
        )
        assert served_live == stats["live"] == 20 - stats["shed_lkg"] - stats["backend_error"]

    def test_breaker_recovers_after_reset(self):
        async def run():
            w, dep, service, pair = build_service(
                breaker=CircuitBreaker(min_calls=2, reset_s=0.05),
                plan=faults.FaultPlan(service_error_prob=1.0),
            )
            client = DirectClient(service)
            body = {"src": pair[0], "dst": pair[1]}
            for _ in range(4):
                try:
                    await client.served("flow_info", body)
                except ServiceError:
                    pass
            assert service.breaker.state == "open"
            dep.net.faults.plan.service_error_prob = 0.0  # backend heals
            await asyncio.sleep(0.06)  # past the reset window
            ans, served = await client.served("flow_info", body)
            return str(ans.status), served, service.breaker.state

        status, served, state = asyncio.run(run())
        assert (status, served) == ("ok", "live")  # half-open probe succeeded
        assert state == "closed"


class TestServiceDelay:
    def test_delay_fault_stalls_but_answers(self):
        async def run():
            w, dep, service, pair = build_service(
                plan=faults.FaultPlan(
                    service_delay_prob=1.0, service_delay_s=0.01
                ),
            )
            client = DirectClient(service)
            with obs.scoped_registry() as reg:
                ans = await client.flow_info(*pair)
                snap = obs.export.snapshot(reg)
            return ans, snap["counters"]

        ans, counters = asyncio.run(run())
        assert ans.ok
        assert counters["faults.injected{kind=service_delay}"] == 1


class TestDeterminism:
    def test_same_seed_same_served_sequence(self):
        async def run():
            w, dep, service, pair = build_service(
                plan=faults.FaultPlan(seed=11, service_error_prob=0.4),
            )
            client = DirectClient(service)
            try:
                await client.flow_info(*pair)  # warms LKG when it lands
            except ServiceError:
                pass
            body = {"src": pair[0], "dst": pair[1]}
            seq = []
            for _ in range(12):
                try:
                    ans, served = await client.served("flow_info", body)
                    seq.append((str(ans.status), served))
                except ServiceError as err:
                    seq.append(("error", err.code))
            return seq

        assert asyncio.run(run()) == asyncio.run(run())
