"""Chaos: fault injection, survival machinery, and graceful degradation.

The three contracts of repro.faults (see its module docstring):

* **zero-overhead default** — a plan that injects nothing leaves every
  answer and the simulation clock byte-identical to a run without the
  module;
* **graceful degradation** — under injected faults multi-site queries
  come back PARTIAL/STALE with the healthy sites' numbers unchanged and
  zero unhandled exceptions;
* **determinism** — same seed, same fault sequence, same answers.
"""

import dataclasses

import pytest

from repro import faults, obs
from repro.collectors.sharding import ShardingConfig
from repro.common.errors import AgentUnreachableError, CollectorUnavailableError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import (
    SiteSpec,
    build_dumbbell,
    build_multisite_wan,
    build_switched_lan,
)
from repro.snmp import client as snmp_client
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.client import SnmpClient


def _wan(n_sites: int = 2):
    w = build_multisite_wan(
        [
            SiteSpec(name, access_bps=10 * MBPS, n_hosts=3)
            for name in ("a", "b", "c")[:n_sites]
        ]
    )
    return w, deploy_wan(w)


def _cross_pairs(w, n_sites: int = 2):
    sites = ("a", "b", "c")[:n_sites]
    return [
        (w.host(sites[i % n_sites], i), w.host(sites[(i + 1) % n_sites], i))
        for i in range(3)
    ]


class TestZeroOverheadDefault:
    def test_benign_plan_changes_nothing(self):
        """Installing a plan with every probability at zero must leave
        answers AND the simulated clock byte-identical."""

        def run(with_plan: bool):
            w, dep = _wan()
            if with_plan:
                inj = faults.install(dep, faults.FaultPlan())
                assert not inj.plan.injects_anything
            s = dep.session()
            answers = s.flow_info_many(_cross_pairs(w))
            topo = s.topology([w.host("a", 0), w.host("b", 0)])
            return (
                [dataclasses.asdict(a) for a in answers],
                topo.status,
                sorted(n.id for n in topo.graph.nodes()),
                w.net.now,
            )

        assert run(False) == run(True)

    def test_uninstall_stops_injecting(self):
        """Uninstalling a plan that drops every PDU leaves a stack that
        answers as if no plan had ever been installed."""
        w0, dep0 = _wan()
        baseline = dep0.session().flow_info_many(_cross_pairs(w0))

        w, dep = _wan()
        faults.install(dep, faults.FaultPlan(snmp_drop_prob=1.0))
        faults.uninstall(dep)
        assert dep.net.faults is None
        answers = dep.session().flow_info_many(_cross_pairs(w))
        assert [dataclasses.asdict(a) for a in answers] == [
            dataclasses.asdict(a) for a in baseline
        ]


class TestRetryBackoff:
    def test_charged_on_sim_clock_and_bounded(self):
        """A 100% drop storm: the client retries exactly `retries`
        times, charges each timeout and exponential backoff to the
        simulation clock, then gives up with the original error."""
        lan = build_switched_lan(4, fanout=4)
        world = instrument_network(lan.net)
        net = lan.net
        net.faults = faults.FaultInjector(faults.FaultPlan(snmp_drop_prob=1.0))
        ip = str(lan.router.interfaces[0].ip)  # a device with an agent
        client = SnmpClient(world, ip)
        t0 = net.now
        with obs.scoped_registry() as reg:
            with pytest.raises(AgentUnreachableError):
                client.get(ip, [O.SYS_DESCR])
            snap = obs.export.snapshot(reg)
        # 3 attempts x timeout, plus backoffs 0.25 and 0.5 between them
        assert net.now - t0 == pytest.approx(3 * snmp_client.TIMEOUT_S + 0.25 + 0.5)
        assert client.retry_count == snmp_client.RETRIES == 2
        assert snap["counters"]["snmp.retries{op=get}"] == 2
        assert snap["counters"]["faults.injected{kind=snmp_drop}"] == 3

    def test_retries_absorb_a_30_percent_storm(self):
        """With the default retry budget a 30% drop rate is fully
        absorbed: every answer OK, bandwidths identical to fault-free."""
        w0, dep0 = _wan()
        baseline = dep0.session().flow_info_many(_cross_pairs(w0))

        w, dep = _wan()
        faults.install(dep, faults.FaultPlan(seed=1, snmp_drop_prob=0.3))
        with obs.scoped_registry() as reg:
            answers = dep.session().flow_info_many(_cross_pairs(w))
            snap = obs.export.snapshot(reg)
        assert sum(
            v for k, v in snap["counters"].items() if k.startswith("snmp.retries")
        ) > 0
        assert snap["counters"]["faults.injected{kind=snmp_drop}"] > 0
        for got, want in zip(answers, baseline):
            assert got.status == QueryStatus.OK
            assert got.available_bps == pytest.approx(want.available_bps)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_same_seed_same_world(self, seed):
        def run():
            w, dep = _wan()
            inj = faults.install(
                dep, faults.FaultPlan(seed=seed, snmp_drop_prob=0.3)
            )
            answers = dep.session().flow_info_many(_cross_pairs(w))
            return (
                [dataclasses.asdict(a) for a in answers],
                inj.injected,
                w.net.now,
            )

        assert run() == run()

    def test_storm_without_retries_degrades_visibly_and_repeats(self, monkeypatch):
        """A 30% drop storm with no retry budget, under five seeds: every
        query returns, each seed replays the same run, and degradation
        shows in query.partial and in the answers.

        Not every dropped PDU costs an answer: a failed read is asked
        again by the next pair that needs it and by the Master's
        fragment retry.  Seed 7's eight drops are all recovered that
        way; under seeds 1, 2, 3 and 11 a host's discovery fails on
        every ask, and the answers say so."""
        monkeypatch.setattr(snmp_client, "RETRIES", 0)

        def run(seed):
            w, dep = _wan(3)
            inj = faults.install(dep, faults.FaultPlan(seed=seed, snmp_drop_prob=0.3))
            with obs.scoped_registry() as reg:
                batches = [dep.session().flow_info_many(_cross_pairs(w, 3)) for _ in range(3)]
                partial = reg.counter("query.partial").value
            answers = [dataclasses.asdict(a) for batch in batches for a in batch]
            return answers, partial, inj.injected, w.net.now

        for seed in (1, 2, 3, 7, 11):
            first = run(seed)
            assert first == run(seed), seed
            answers, partial, injected, _ = first
            statuses = [a["status"] for a in answers]
            assert injected > 0, seed
            # a PARTIAL answer always comes from a fetch query.partial counted
            assert (partial > 0) == (QueryStatus.PARTIAL in statuses), seed
            if seed != 7:
                assert partial > 0, seed
                assert any(status != QueryStatus.OK for status in statuses), seed


class TestPartialResults:
    def test_dead_site_degrades_to_partial(self):
        """A site whose collector is down before any query ever reached
        it (no last-known-good): pairs through it FAIL with 0 bps,
        cross-healthy pairs keep their fault-free bandwidth but are
        flagged PARTIAL, and query.partial counts every degraded fetch."""
        w0, dep0 = _wan(3)
        base = dep0.session().flow_info(w0.host("a", 1), w0.host("c", 0))

        w, dep = _wan(3)
        faults.install(dep, faults.FaultPlan())
        faults.crash_collector(dep.snmp_collectors["b"], 60.0)
        s = dep.session()
        pairs = [
            (w.host("a", 0), w.host("b", 0)),  # through the dead site
            (w.host("a", 1), w.host("c", 0)),  # healthy
        ]
        with obs.scoped_registry() as reg:
            dead, healthy = s.flow_info_many(pairs)
            topo = s.topology([w.host(x, 0) for x in "abc"])
            snap = obs.export.snapshot(reg)

        assert dead.status == QueryStatus.FAILED
        assert dead.available_bps == 0.0 and dead.path == ()
        assert healthy.status == QueryStatus.PARTIAL
        assert healthy.available_bps == pytest.approx(base.available_bps)

        assert topo.status == QueryStatus.PARTIAL
        assert topo.site_status["b"].status == QueryStatus.FAILED
        assert topo.site_status["a"].status == QueryStatus.OK
        assert str(w.host("b", 0).ip) in topo.unresolved
        assert snap["counters"]["query.partial"] == 2
        # second failed delegation hit the quarantine fast path
        assert snap["counters"]["collectors.master.quarantine_skips"] >= 1

    def test_crash_after_warmup_serves_stale_lkg(self):
        """Once a site has answered, a crash downgrades to STALE: the
        Master serves the last-known-good fragment with its data age."""
        w, dep = _wan()
        faults.install(dep, faults.FaultPlan())
        s = dep.session()
        hosts = [w.host("a", 0), w.host("b", 0)]
        warm = s.topology(hosts)
        assert warm.status == QueryStatus.OK

        faults.crash_collector(dep.snmp_collectors["b"], 40.0)
        with obs.scoped_registry() as reg:
            stale = s.topology(hosts)
            flow = s.flow_info(*hosts)
            snap = obs.export.snapshot(reg)
        assert stale.status == QueryStatus.STALE
        assert stale.site_status["b"].status == QueryStatus.STALE
        assert stale.site_status["b"].data_age_s > 0
        assert flow.status == QueryStatus.STALE
        assert flow.available_bps > 0  # answered from the cached fragment
        assert snap["counters"]["collectors.master.lkg_served"] >= 1

        # restart + quarantine expiry: fully healthy again
        w.net.engine.run_until(w.net.now + 80.0)
        assert s.topology(hosts).status == QueryStatus.OK

    def test_degraded_responses_never_poison_the_query_cache(self):
        """The bugfix pinned: with the TTL cache on, a PARTIAL response
        must not be memoized, so recovery is visible immediately
        instead of replaying the outage for a full TTL."""
        w, dep = _wan()
        dep.modeler.query_cache_ttl_s = 300.0
        faults.install(dep, faults.FaultPlan())
        faults.crash_collector(dep.snmp_collectors["b"], 30.0)
        s = dep.session()
        hosts = [w.host("a", 0), w.host("b", 0)]
        with obs.scoped_registry() as reg:
            assert s.topology(hosts).status == QueryStatus.PARTIAL
            w.net.engine.run_until(w.net.now + 60.0)  # collector restarts
            assert s.topology(hosts).status == QueryStatus.OK
            assert s.topology(hosts).status == QueryStatus.OK
            snap = obs.export.snapshot(reg)
        # the PARTIAL fetch was not cached (miss, miss), the OK one was (hit)
        assert snap["counters"]["modeler.query_cache{result=miss}"] == 2
        assert snap["counters"]["modeler.query_cache{result=hit}"] == 1


class TestCounterPathologies:
    def test_wrap32_and_resets_do_not_corrupt_rates(self):
        """32-bit wraps and injected counter resets must never produce
        negative (or absurdly huge) rate estimates."""
        lan = build_switched_lan(8, fanout=4)
        from repro.deploy import deploy_lan

        dep = deploy_lan(lan)
        faults.install(
            dep,
            faults.FaultPlan(seed=5, counter_reset_prob=0.01, counter_wrap32=True),
        )
        s = dep.session()
        s.flow_info(lan.hosts[0], lan.hosts[7])  # warm discovery
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 120.0)
        coll = dep.snmp_collectors["lan"]
        for mon in coll.monitors.values():
            for rate in mon.rates_bps():
                assert 0.0 <= rate < 1e12
        ans = s.flow_info(lan.hosts[0], lan.hosts[7])
        assert ans.available_bps >= 0.0


class TestProbeFaults:
    def test_wan_probe_failures_fall_back_to_history(self):
        """Failed benchmark probes burn their timeout, count a failure,
        and measurement() serves the last good result flagged stale."""
        w, dep = _wan()
        s = dep.session()
        s.topology([w.host("a", 0), w.host("b", 0)])  # seeds WAN probing
        bench = dep.benchmarks["a"]
        good = bench.probe("b")
        assert good.throughput_bps > 0

        faults.install(dep, faults.FaultPlan(probe_fail_prob=1.0))
        # age the cached result past the freshness window, so the query
        # has to attempt a probe — which now fails
        w.net.engine.run_until(w.net.now + bench.config.max_age_s + 1.0)
        with obs.scoped_registry() as reg:
            t0 = w.net.now
            meas = bench.measurement("b", allow_probe=True)
            snap = obs.export.snapshot(reg)
        assert meas.stale
        assert meas.throughput_bps == pytest.approx(good.throughput_bps)
        assert snap["counters"]["collectors.benchmark.probe_failures"] >= 1
        assert w.net.now >= t0 + dep.net.faults.plan.probe_timeout_s


    def test_answer_built_on_an_expired_wan_measurement_is_stale(self):
        """Never OK on data older than its TTL, the WAN edge included:
        when the re-probe fails and the stitch falls back to a lapsed
        measurement, the answer says STALE and how old."""
        w, dep = _wan()
        s = dep.session()
        first = s.flow_info(w.host("a", 0), w.host("b", 0))
        assert first.status == QueryStatus.OK

        faults.install(dep, faults.FaultPlan(probe_fail_prob=1.0))
        w.net.engine.run_until(w.net.now + 1000.0)
        ans = s.flow_info(w.host("a", 0), w.host("b", 0))
        assert ans.status == QueryStatus.STALE
        assert ans.data_age_s >= 1000.0
        assert ans.available_bps == pytest.approx(first.available_bps)
        top = s.topology([w.host("a", 0), w.host("b", 0)])
        assert top.status == QueryStatus.STALE
        assert top.data_age_s >= 1000.0


class TestTargetedFaults:
    """The scalpel helpers: take down one named agent or one link,
    deterministically, instead of rolling probabilistic dice."""

    def test_crash_agent_blackholes_then_restores(self):
        lan = build_switched_lan(4, fanout=4)
        world = instrument_network(lan.net)
        client = SnmpClient(world, lan.hosts[0].ip)
        ip = lan.switches[0].management_ip
        name = client.get(ip, O.SYS_NAME)
        with obs.scoped_registry() as reg:
            faults.crash_agent(world, ip, down_s=30.0)
            with pytest.raises(AgentUnreachableError):
                client.get(ip, O.SYS_NAME)
            snap = obs.export.snapshot(reg)
        assert snap["counters"]["faults.injected{kind=agent_crash}"] == 1
        lan.net.engine.run_until(lan.net.now + 60.0)
        assert client.get(ip, O.SYS_NAME) == name

    def test_crash_agent_rejects_unknown_ip(self):
        lan = build_switched_lan(4)
        world = instrument_network(lan.net)
        with pytest.raises(ValueError):
            faults.crash_agent(world, "10.99.99.99")

    def test_latency_spike_reverts_on_schedule(self):
        d = build_dumbbell()
        link = d.h1.interfaces[0].link
        base = link.latency_s
        faults.spike_link_latency(d.net, link, 0.25, duration_s=15.0)
        assert link.latency_s == pytest.approx(base + 0.25)
        d.net.engine.run_until(d.net.now + 20.0)
        assert link.latency_s == pytest.approx(base)

    def test_degrade_link_rebalances_live_flows(self):
        d = build_dumbbell()
        f = d.net.flows.start_flow(d.h1, d.h2)
        assert f.rate_bps == pytest.approx(100 * MBPS)
        link = d.h1.interfaces[0].link
        faults.degrade_link(d.net, link, 0.4, duration_s=10.0)
        assert f.rate_bps == pytest.approx(40 * MBPS)
        assert link.capacity_bps == pytest.approx(40 * MBPS)
        d.net.engine.run_until(d.net.now + 20.0)
        assert f.rate_bps == pytest.approx(100 * MBPS)

    def test_degrade_link_validates_factor(self):
        d = build_dumbbell()
        link = d.h1.interfaces[0].link
        with pytest.raises(ValueError):
            faults.degrade_link(d.net, link, 0.0)
        with pytest.raises(ValueError):
            faults.degrade_link(d.net, link, 1.5)


class TestOverlappingFaults:
    """Timed faults of one kind on one target overlap: each restore
    undoes only its own fault, so the target comes back when the last
    fault in force on it ends, not when the first one does."""

    def test_overlapping_degradations_compose_and_end_with_the_last(self):
        d = build_dumbbell()
        f = d.net.flows.start_flow(d.h1, d.h2)
        link = d.h1.interfaces[0].link
        faults.degrade_link(d.net, link, 0.5, duration_s=10.0)
        d.net.engine.run_until(d.net.now + 5.0)
        faults.degrade_link(d.net, link, 0.5, duration_s=10.0)
        assert link.capacity_bps == 25 * MBPS and f.rate_bps == 25 * MBPS
        d.net.engine.run_until(d.net.now + 6.0)  # the first has ended
        assert link.capacity_bps == 50 * MBPS and f.rate_bps == 50 * MBPS
        d.net.engine.run_until(d.net.now + 5.0)  # and the second
        assert link.capacity_bps == 100 * MBPS and f.rate_bps == 100 * MBPS
        assert [ch.capacity_bps for ch in link.channels()] == [100 * MBPS] * 2

    def test_a_timed_degradation_ends_into_a_lasting_one(self):
        d = build_dumbbell()
        link = d.h1.interfaces[0].link
        faults.degrade_link(d.net, link, 0.5)
        faults.degrade_link(d.net, link, 0.4, duration_s=10.0)
        assert link.capacity_bps == pytest.approx(20 * MBPS)
        d.net.engine.run_until(d.net.now + 20.0)
        assert link.capacity_bps == 50 * MBPS

    def test_a_second_collector_crash_keeps_it_down_until_it_ends(self):
        w, dep = _wan()
        coll = dep.snmp_collectors["b"]
        t0 = w.net.now
        faults.crash_collector(coll, 10.0)
        w.net.engine.run_until(t0 + 5.0)
        faults.crash_collector(coll, 10.0)
        w.net.engine.run_until(t0 + 11.0)  # the first crash has ended
        assert coll.crashed_until == t0 + 5.0 + 10.0
        with pytest.raises(CollectorUnavailableError):
            coll.check_alive()
        w.net.engine.run_until(t0 + 16.0)
        assert coll.crashed_until is None
        coll.check_alive()

    def test_a_shorter_crash_inside_a_longer_one_ends_nothing(self):
        w, dep = _wan()
        coll = dep.snmp_collectors["b"]
        t0 = w.net.now
        faults.crash_collector(coll, 20.0)
        faults.crash_collector(coll, 5.0)
        w.net.engine.run_until(t0 + 10.0)
        assert coll.crashed_until == t0 + 20.0
        w.net.engine.run_until(t0 + 21.0)
        assert coll.crashed_until is None

    def test_a_second_shard_crash_keeps_it_down_until_it_ends(self):
        w = build_multisite_wan(
            [SiteSpec(name, access_bps=10 * MBPS, n_hosts=3) for name in "abc"]
        )
        dep = deploy_wan(w, sharding=ShardingConfig(n_shards=2, replicas=1))
        masters = dep.master.shards[0].masters
        t0 = w.net.now
        faults.crash_shard(dep.master, 0, 10.0)
        w.net.engine.run_until(t0 + 5.0)
        faults.crash_shard(dep.master, 0, 10.0)
        w.net.engine.run_until(t0 + 11.0)
        assert [m.crashed_until for m in masters] == [t0 + 15.0] * len(masters)
        w.net.engine.run_until(t0 + 16.0)
        assert [m.crashed_until for m in masters] == [None] * len(masters)

    def test_a_second_agent_crash_keeps_it_down_until_it_ends(self):
        lan = build_switched_lan(4, fanout=4)
        world = instrument_network(lan.net)
        client = SnmpClient(world, lan.hosts[0].ip)
        ip = lan.switches[0].management_ip
        engine = lan.net.engine
        t0 = engine.now
        faults.crash_agent(world, ip, down_s=30.0)
        engine.run_until(t0 + 10.0)
        faults.crash_agent(world, ip, down_s=30.0)
        engine.run_until(t0 + 35.0)  # the first crash has ended
        with pytest.raises(AgentUnreachableError):
            client.get(ip, O.SYS_NAME)
        engine.run_until(t0 + 45.0)
        assert client.get(ip, O.SYS_NAME)

    def test_an_agent_crashed_for_good_stays_down(self):
        lan = build_switched_lan(4, fanout=4)
        world = instrument_network(lan.net)
        ip = lan.switches[0].management_ip
        faults.crash_agent(world, ip, down_s=10.0)
        faults.crash_agent(world, ip)
        lan.net.engine.run_until(lan.net.now + 60.0)
        assert world.agent_at(ip).reachable is False
