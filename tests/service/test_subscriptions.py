"""Subscription semantics: deterministic delivery, shed-to-STALE.

Two contracts from the issue:

* long-poll updates arrive in a *deterministic* order under the sim
  clock — the FlowWatcher sweeps watched pairs in sorted order and the
  hub stamps a global sequence, so twin worlds produce byte-identical
  event streams;
* under injected overload, query requests are shed to the last-known-
  good answer served STALE — never queued until timeout, never FAILED
  while an LKG exists.
"""

import asyncio

import pytest

from repro import faults, obs
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.service import DirectClient, RemosService, ServiceConfig
from repro.service.client import ServiceError
from repro.service.subs import FlowWatcher, SubscriptionHub, flow_channel
from repro.service.wire import canonical_json


def build_world():
    w = build_multisite_wan(
        [
            SiteSpec("aaa", access_bps=10 * MBPS, n_hosts=2),
            SiteSpec("bbb", access_bps=20 * MBPS, n_hosts=2),
        ]
    )
    dep = deploy_wan(w)
    w.net.engine.run_until(w.net.now + 30.0)
    return w, dep


def watched_pairs(w):
    a0, a1 = w.host("aaa", 0), w.host("aaa", 1)
    b0, b1 = w.host("bbb", 0), w.host("bbb", 1)
    return [
        (str(a0.ip), str(b0.ip)),
        (str(a1.ip), str(b1.ip)),
        (str(b0.ip), str(a1.ip)),
    ]


def run_watch_scenario(w, dep):
    """Watch three pairs, perturb the network between ticks."""
    hub = SubscriptionHub()
    watcher = FlowWatcher(dep.session(), epsilon_bps=1.0)
    for src, dst in watched_pairs(w):
        watcher.watch(src, dst)

    events = []
    watcher.tick(hub)  # initial sweep: every pair publishes once
    events.extend(hub.events_since(None, 0))

    # competing traffic changes the answers; two poll cycles must
    # elapse before the collectors' counter deltas show it
    f = w.net.flows.start_flow(w.host("aaa", 0), w.host("bbb", 0), demand_bps=8 * MBPS)
    w.net.engine.run_until(w.net.now + 120.0)
    before = hub.seq
    watcher.tick(hub)
    events.extend(hub.events_since(None, before))

    w.net.flows.stop_flow(f)
    w.net.engine.run_until(w.net.now + 120.0)
    before = hub.seq
    watcher.tick(hub)
    events.extend(hub.events_since(None, before))
    return events


class TestDeterministicDelivery:
    def test_initial_sweep_is_sorted_pair_order(self):
        w, dep = build_world()
        hub = SubscriptionHub()
        watcher = FlowWatcher(dep.session())
        pairs = watched_pairs(w)
        for src, dst in pairs:
            watcher.watch(src, dst)
        published = watcher.tick(hub)
        assert published == len(pairs)
        got = [e["channel"] for e in hub.events_since(None, 0)]
        assert got == [flow_channel(s, d) for s, d in sorted(pairs)]
        assert [e["seq"] for e in hub.events_since(None, 0)] == [1, 2, 3]

    def test_twin_worlds_emit_identical_streams(self):
        def stream():
            w, dep = build_world()
            return canonical_json(run_watch_scenario(w, dep))

        assert stream() == stream()

    def test_quiet_network_publishes_nothing(self):
        w, dep = build_world()
        hub = SubscriptionHub()
        watcher = FlowWatcher(dep.session(), epsilon_bps=1.0)
        for src, dst in watched_pairs(w):
            watcher.watch(src, dst)
        watcher.tick(hub)
        # nothing changed: the second sweep is silent
        assert watcher.tick(hub) == 0

    def test_perturbation_reaches_subscribers(self):
        w, dep = build_world()
        events = run_watch_scenario(w, dep)
        # at least one pair saw its bandwidth move when the flow started
        changed = [e for e in events if e["seq"] > 3]
        assert changed
        assert all(e["payload"]["kind"] == "flow" for e in events)

    def test_a_status_change_alone_is_published(self):
        w, dep = build_world()
        hub = SubscriptionHub()
        watcher = FlowWatcher(dep.session(), epsilon_bps=1.0)
        for src, dst in watched_pairs(w):
            watcher.watch(src, dst)
        watcher.tick(hub)
        rates = [e["payload"]["available_bps"] for e in hub.events_since(None, 0)]
        # bbb's collector is down: the same rates, now served STALE
        faults.crash_collector(dep.snmp_collectors["bbb"], 1000.0)
        assert watcher.tick(hub) == 3
        changed = hub.events_since(None, 3)
        assert [e["payload"]["status"] for e in changed] == ["stale"] * 3
        assert [e["payload"]["available_bps"] for e in changed] == rates

    def test_ring_buffer_reports_lost_resume_points(self):
        hub = SubscriptionHub(capacity=4)
        for i in range(10):
            hub.publish("a->b", {"n": i})
        assert hub.oldest_seq == 7
        assert hub.resume_lost(2)
        assert not hub.resume_lost(hub.seq)
        assert not hub.resume_lost(0)  # fresh subscriber: no gap


class TestLongPollEndpoint:
    def test_subscribe_round_trip(self):
        w, dep = build_world()
        service = RemosService.from_deployment(dep, ServiceConfig())

        async def go():
            client = DirectClient(service)
            pairs = watched_pairs(w)[:2]
            first = await client.subscribe(pairs)  # registers the watch
            assert first["events"] == [] and first["seq"] == 0
            service.tick_subscriptions()
            second = await client.subscribe(pairs, since=first["seq"])
            return second

        with obs.scoped_registry() as reg:
            second = asyncio.run(go())
        assert len(second["events"]) == 2
        assert reg.counter("service.subs_events").value == 2
        assert second["resume_lost"] is False
        statuses = {e["payload"]["status"] for e in second["events"]}
        assert statuses == {"ok"}

    def test_long_poll_parks_until_tick(self):
        w, dep = build_world()
        service = RemosService.from_deployment(dep, ServiceConfig())

        async def go():
            client = DirectClient(service)
            pairs = watched_pairs(w)[:1]
            await client.subscribe(pairs)  # register

            async def tick_later():
                await asyncio.sleep(0.02)
                service.tick_subscriptions()

            task = asyncio.get_running_loop().create_task(tick_later())
            result = await client.subscribe(pairs, since=0, timeout_s=5.0)
            await task
            return result

        result = asyncio.run(go())
        assert len(result["events"]) == 1

    def test_unparseable_pair_is_refused_and_never_watched(self):
        """A pair the query path could never answer is a bad request:
        nothing of the request is watched, so the next sweep still runs."""
        w, dep = build_world()
        service = RemosService.from_deployment(dep, ServiceConfig())

        async def go():
            good = watched_pairs(w)[0]
            with pytest.raises(ServiceError) as exc:
                await DirectClient(service).subscribe([good, ("10.0.0.1_0", "nope")])
            return exc.value.code, service

        code, service = asyncio.run(go())
        assert code == "bad_request"
        assert service.watcher.pairs == []
        assert service.tick_subscriptions() == 0


class TestShedToStale:
    def make_overloaded(self):
        """A service with every backend slot occupied and a warm LKG."""
        w, dep = build_world()
        service = RemosService.from_deployment(dep, ServiceConfig(max_inflight=2))
        return w, service

    def test_overload_serves_stale_lkg(self):
        w, service = self.make_overloaded()

        async def go():
            client = DirectClient(service)
            pair = watched_pairs(w)[0]
            live = await client.flow_info(*pair)  # warm the LKG
            assert live.ok
            # deterministically occupy every backend slot
            while service.admission.try_admit():
                pass
            shed, served = await client.served(
                "flow_info", {"src": pair[0], "dst": pair[1]}
            )
            return live, shed, served, dict(service.stats)

        live, shed, served, stats = asyncio.run(go())
        assert served == "shed_lkg"
        assert shed.status == QueryStatus.STALE
        assert shed.available_bps == live.available_bps  # same data, older
        assert shed.data_age_s >= live.data_age_s
        assert stats["shed_lkg"] == 1
        assert stats["overloaded"] == 0  # nobody saw an error

    def test_overload_without_lkg_is_an_error_not_a_queue(self):
        w, service = self.make_overloaded()

        async def go():
            client = DirectClient(service)
            pair = watched_pairs(w)[0]
            while service.admission.try_admit():
                pass
            with pytest.raises(ServiceError) as exc:
                await client.flow_info(*pair)
            return exc.value, dict(service.stats)

        err, stats = asyncio.run(go())
        assert err.code == "overloaded"
        assert err.retry_after_s > 0  # reject-with-hint, not queue
        assert stats["overloaded"] == 1

    def test_recovery_after_release(self):
        w, service = self.make_overloaded()

        async def go():
            client = DirectClient(service)
            pair = watched_pairs(w)[0]
            while service.admission.try_admit():
                pass
            service.admission.release()
            ans, served = await client.served(
                "flow_info", {"src": pair[0], "dst": pair[1]}
            )
            return ans, served

        ans, served = asyncio.run(go())
        assert served == "live" and ans.ok
