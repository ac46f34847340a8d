"""The service hardening primitives, driven by a deterministic clock.

Each primitive is tested in isolation with a
:class:`~repro.obs.timebase.FixedTimebase` standing in for the wall
clock, so refill rates, breaker reset windows, and LKG shelf ages are
exact — no sleeps, no flakiness.
"""

import asyncio

import pytest

from repro import obs
from repro.modeler.api import FlowAnswer
from repro.obs.timebase import FixedTimebase
from repro.service.admission import AdmissionController, LastKnownGoodStore
from repro.service.app import RemosService, ServiceConfig, SessionBackend
from repro.service import ratelimit
from repro.service.breaker import CircuitBreaker
from repro.service.ratelimit import TenantRateLimiter, TokenBucket
from repro.service.wire import WireError


@pytest.fixture
def clock():
    return FixedTimebase()


class TestTokenBucket:
    def test_burst_then_deny(self, clock):
        b = TokenBucket(rate=1.0, burst=3.0, clock=clock.now)
        assert [b.try_take() for _ in range(4)] == [True, True, True, False]

    def test_refill_at_rate(self, clock):
        b = TokenBucket(rate=2.0, burst=2.0, clock=clock.now)
        b.try_take(2.0)
        assert not b.try_take()
        clock.advance(0.5)  # 1 token back
        assert b.try_take()
        assert not b.try_take()

    def test_retry_after_names_the_deficit(self, clock):
        b = TokenBucket(rate=4.0, burst=1.0, clock=clock.now)
        b.try_take()
        assert b.retry_after_s() == pytest.approx(0.25)

    def test_never_exceeds_burst(self, clock):
        b = TokenBucket(rate=100.0, burst=5.0, clock=clock.now)
        clock.advance(60.0)
        assert b.tokens == pytest.approx(5.0)


class TestTenantRateLimiter:
    def test_tenants_are_isolated(self, clock):
        rl = TenantRateLimiter(rate=1.0, burst=1.0, clock=clock.now)
        rl.admit("alice")
        with pytest.raises(WireError) as exc:
            rl.admit("alice")
        assert exc.value.code == "rate_limited"
        assert exc.value.retry_after_s > 0
        rl.admit("bob")  # unaffected by alice's exhaustion

    def test_anonymous_flood_shares_one_bucket(self, clock):
        rl = TenantRateLimiter(rate=1.0, burst=2.0, clock=clock.now)
        rl.admit("")
        rl.admit("anonymous")
        with pytest.raises(WireError):
            rl.admit("")

    def test_tenant_cardinality_capped(self, clock, monkeypatch):
        monkeypatch.setattr(ratelimit, "MAX_TENANTS", 2)
        with obs.scoped_registry() as reg:
            rl = TenantRateLimiter(rate=1.0, burst=1.0, clock=clock.now)
            rl.admit("t1")
            rl.admit("t2")
            rl.admit("overflow-a")  # lands in the anonymous bucket
            with pytest.raises(WireError):
                rl.admit("overflow-b")  # same shared bucket: empty
        # the table holds MAX_TENANTS buckets and the shared anonymous one
        assert reg.gauge("service.ratelimit.tenants").value == 3
        # a registry installed, or reset, after the buckets were made reads
        # the table from the service's next request, made by no new tenant
        service = RemosService(SessionBackend(session=None))
        service.limiter = rl
        clock.advance(1.0)
        with obs.scoped_registry() as later:
            asyncio.run(service.dispatch("health", {}, "t1"))
            assert later.gauge("service.ratelimit.tenants").value == 3
            later.reset()
            clock.advance(1.0)
            asyncio.run(service.dispatch("health", {}, "t2"))
            assert later.gauge("service.ratelimit.tenants").value == 3


class TestCircuitBreaker:
    def make(self, clock, **kw):
        kw.setdefault("window", 10)
        kw.setdefault("failure_threshold", 0.5)
        kw.setdefault("min_calls", 4)
        kw.setdefault("reset_s", 5.0)
        return CircuitBreaker(clock=clock.now, **kw)

    def test_trips_past_threshold(self, clock):
        br = self.make(clock)
        for ok in (True, False, False, False):
            br.before_call()
            br.record(ok)
        assert br.state == "open"
        with pytest.raises(WireError) as exc:
            br.before_call()
        assert exc.value.code == "breaker_open"

    def test_stays_closed_below_min_calls(self, clock):
        br = self.make(clock)
        for _ in range(3):
            br.record(False)
        assert br.state == "closed"

    def test_half_open_probe_closes_on_success(self, clock):
        br = self.make(clock)
        for _ in range(4):
            br.record(False)
        assert br.state == "open"
        clock.advance(5.0)
        assert br.state == "half_open"
        br.before_call()
        br.record(True)
        assert br.state == "closed"

    def test_half_open_failure_reopens(self, clock):
        br = self.make(clock)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        br.before_call()
        br.record(False)
        assert br.state == "open"
        with pytest.raises(WireError):
            br.before_call()

    def test_half_open_quota_bounds_probes(self, clock):
        br = self.make(clock, half_open_probes=1)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        br.before_call()  # the one probe
        with pytest.raises(WireError):
            br.before_call()

    def test_release_hands_a_probe_back_and_records_nothing(self, clock):
        br = self.make(clock, half_open_probes=1)
        for _ in range(4):
            br.record(False)
        clock.advance(5.0)
        for _ in range(3):  # the one probe, taken and handed back
            br.before_call()
            br.release()
        assert br.state == "half_open"
        br.before_call()
        br.record(True)
        assert br.state == "closed"


class TestLastKnownGoodStore:
    def test_serves_stale_with_grown_age(self, clock):
        store = LastKnownGoodStore(clock=clock.now)
        store.store("k", {"status": "ok", "data_age_s": 2.0, "provenance": ["s1"]})
        clock.advance(7.0)
        shed = store.serve_stale("k")
        assert shed["status"] == "stale"
        assert shed["data_age_s"] == pytest.approx(9.0)

    def test_degraded_entries_keep_their_status(self, clock):
        store = LastKnownGoodStore(clock=clock.now)
        store.store("k", {"status": "partial", "data_age_s": 0.0, "provenance": []})
        assert store.serve_stale("k")["status"] == "partial"

    def test_failed_answers_never_stored(self, clock):
        store = LastKnownGoodStore(clock=clock.now)
        assert not store.store("k", [{"status": "ok"}, {"status": "failed"}])
        assert store.serve_stale("k") is None

    def test_lru_eviction(self, clock):
        store = LastKnownGoodStore(max_entries=2, clock=clock.now)
        store.store("a", {"status": "ok"})
        store.store("b", {"status": "ok"})
        store.serve_stale("a")  # refresh a
        store.store("c", {"status": "ok"})  # evicts b
        assert store.serve_stale("b") is None
        assert store.serve_stale("a") is not None

    def test_peek_reads_the_entry_without_refreshing_it(self, clock):
        store = LastKnownGoodStore(max_entries=2, clock=clock.now)
        a = {"status": "ok"}
        store.store("a", a)
        store.store("b", {"status": "ok"})
        assert store.peek("a") is a and store.peek("z") is None
        store.store("c", {"status": "ok"})  # a is still the oldest: evicted
        assert store.peek("a") is None and store.peek("b") is not None

    def test_site_scoped_invalidation(self, clock):
        store = LastKnownGoodStore(clock=clock.now)
        store.store("a", {"status": "ok", "provenance": ["s1", "s2"]})
        store.store("b", [{"status": "ok", "provenance": ["s3"]}])
        assert store.invalidate(["s2"]) == 1
        assert store.serve_stale("a") is None
        assert store.serve_stale("b") is not None
        assert store.invalidate(None) == 1

    def test_store_isolates_from_caller_mutation(self, clock):
        store = LastKnownGoodStore(clock=clock.now)
        payload = {"status": "ok", "data_age_s": 0.0}
        store.store("k", payload)
        shed = store.serve_stale("k")
        shed["data_age_s"] = 999.0
        assert store.serve_stale("k")["data_age_s"] == pytest.approx(0.0)


class TestAdmissionController:
    def test_admit_until_full_then_shed(self):
        """At ``max_inflight`` the service sheds instead of queueing:
        ``overloaded`` while the store has nothing for the query, the
        stored answer served STALE once it has."""

        class Session:
            def flow_info(self, src, dst, **kw):
                return FlowAnswer(
                    src=src, dst=dst, available_bps=1.0, bottleneck_bps=1.0,
                    capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=(),
                )

        service = RemosService(SessionBackend(Session()), ServiceConfig(max_inflight=2))
        adm = service.admission

        async def run():
            body = {"src": "a", "dst": "b"}
            assert adm.try_admit() and adm.try_admit()
            assert not adm.try_admit()
            with pytest.raises(WireError) as exc:
                await service.dispatch("flow_info", body)  # no LKG yet
            assert exc.value.code == "overloaded"
            adm.release()
            live = await service.dispatch("flow_info", body)
            assert adm.try_admit()  # full again
            shed = await service.dispatch("flow_info", body)
            adm.release()
            assert adm.try_admit()
            return live, shed

        live, shed = asyncio.run(run())
        assert (live["served"], live["result"]["status"]) == ("live", "ok")
        assert (shed["served"], shed["result"]["status"]) == ("shed_lkg", "stale")
        assert service.stats["overloaded"] == 1 and service.stats["shed_lkg"] == 1

    def test_the_inflight_gauge_falls_when_the_slot_is_released(self):
        """``service.inflight`` reads the slots held: one while a backend
        call runs, none once the request is answered."""
        from repro import obs

        seen = []

        class Session:
            def flow_info(self, src, dst, **kw):
                seen.append(obs.export.snapshot(obs.get_registry())["gauges"]["service.inflight"])
                return FlowAnswer(
                    src=src, dst=dst, available_bps=1.0, bottleneck_bps=1.0,
                    capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=(),
                )

        service = RemosService(SessionBackend(Session()))
        with obs.scoped_registry() as reg:
            asyncio.run(service.dispatch("flow_info", {"src": "a", "dst": "b"}))
            after = obs.export.snapshot(reg)["gauges"]["service.inflight"]
        assert (seen, after) == ([1.0], 0.0)
        assert service.admission.inflight == 0

    def test_release_never_goes_negative(self):
        adm = AdmissionController(max_inflight=1)
        adm.release()
        assert adm.inflight == 0
        assert adm.try_admit()


class TestSubscriptionHubWaiting:
    """Long-poll mechanics that need a live event loop."""

    def test_wait_returns_immediately_when_events_exist(self):
        from repro.service.subs import SubscriptionHub

        async def run():
            hub = SubscriptionHub()
            hub.publish("a->b", {"n": 1})
            return await hub.wait(["a->b"], since=0, timeout_s=5.0)

        events = asyncio.run(run())
        assert [e["seq"] for e in events] == [1]

    def test_wait_wakes_on_publish(self):
        from repro.service.subs import SubscriptionHub

        async def run():
            hub = SubscriptionHub()

            async def publish_later():
                await asyncio.sleep(0.01)
                hub.publish("a->b", {"n": 1})

            task = asyncio.get_running_loop().create_task(publish_later())
            events = await hub.wait(["a->b"], since=0, timeout_s=5.0)
            await task
            return events

        events = asyncio.run(run())
        assert len(events) == 1 and events[0]["channel"] == "a->b"

    def test_wait_times_out_empty(self):
        from repro.service.subs import SubscriptionHub

        async def run():
            hub = SubscriptionHub()
            return await hub.wait(["a->b"], since=0, timeout_s=0.01)

        assert asyncio.run(run()) == []

    def test_unrelated_channels_do_not_wake(self):
        from repro.service.subs import SubscriptionHub

        async def run():
            hub = SubscriptionHub()
            hub.publish("x->y", {"n": 1})
            return await hub.wait(["a->b"], since=0, timeout_s=0.01)

        assert asyncio.run(run()) == []
