"""Unit and property tests for max-min fair fluid flows."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.units import MBPS
from repro.netsim.builders import (
    SiteSpec,
    build_dumbbell,
    build_multisite_wan,
    build_random_wan,
)
from repro.netsim.flows import FlowManager, max_min_allocation
from repro.netsim.paths import compute_path
from repro.netsim.topology import Network

from .maxmin_reference import max_min_allocation_reference


def _chain_network(n_links: int, capacities):
    """A linear chain h0 - r1 - r2 - ... - h_end with given capacities."""
    net = Network()
    h0 = net.add_host("h0")
    hN = net.add_host("hN")
    routers = [net.add_router(f"r{i}") for i in range(n_links - 1)]
    seq = [h0] + routers + [hN]
    links = []
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        links.append(net.link(a, b, capacities[i]))
    # address each link as its own /30-ish subnet
    for i, ln in enumerate(links):
        subnet = f"10.{i}.0.0/24"
        net.assign_ip(ln.a, f"10.{i}.0.1", subnet)
        net.assign_ip(ln.b, f"10.{i}.0.2", subnet)
    net.freeze()
    return net, h0, hN, links


class TestMaxMinAllocation:
    def test_single_greedy_flow_gets_bottleneck(self):
        net, h0, hN, links = _chain_network(3, [100 * MBPS, 10 * MBPS, 100 * MBPS])
        f = net.flows.start_flow(h0, hN)
        assert f.rate_bps == pytest.approx(10 * MBPS)

    def test_two_greedy_flows_split_fairly(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2)
        f2 = d.net.flows.start_flow(d.h1, d.h2)
        assert f1.rate_bps == pytest.approx(50 * MBPS)
        assert f2.rate_bps == pytest.approx(50 * MBPS)

    def test_demand_capped_flow_leaves_rest(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2, demand_bps=20 * MBPS)
        f2 = d.net.flows.start_flow(d.h1, d.h2)
        assert f1.rate_bps == pytest.approx(20 * MBPS)
        assert f2.rate_bps == pytest.approx(80 * MBPS)

    def test_stop_flow_rebalances(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2)
        f2 = d.net.flows.start_flow(d.h1, d.h2)
        d.net.flows.stop_flow(f1)
        assert f2.rate_bps == pytest.approx(100 * MBPS)
        assert not f1.active

    def test_stop_is_idempotent(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2)
        d.net.flows.stop_flow(f1)
        d.net.flows.stop_flow(f1)
        assert f1.rate_bps == 0.0

    def test_set_demand_rebalances(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2)
        f2 = d.net.flows.start_flow(d.h1, d.h2)
        d.net.flows.set_demand(f1, 10 * MBPS)
        assert f1.rate_bps == pytest.approx(10 * MBPS)
        assert f2.rate_bps == pytest.approx(90 * MBPS)

    def test_self_flow_rejected(self):
        d = build_dumbbell()
        with pytest.raises(Exception):
            d.net.flows.start_flow(d.h1, d.h1)

    def test_water_filling_example(self):
        # Classic: 3 flows, 2 links. Flow A uses link1, B uses link2,
        # C uses both. link1 cap 1, link2 cap 2 (scaled by Mbps).
        net, h0, hN, links = _chain_network(3, [1 * MBPS, 1000 * MBPS, 2 * MBPS])
        # C spans the chain; A only bottlenecked at link0; B at link2.
        # Emulate with demands via partial-path flows between routers is
        # complex here; instead test the raw allocator:
        chans1 = [links[0].channels()[0]]
        chans2 = [links[2].channels()[0]]
        both = [links[0].channels()[0], links[2].channels()[0]]
        rates = max_min_allocation(
            [chans1, chans2, both], [math.inf, math.inf, math.inf]
        )
        # Level grows to 0.5 on link0 (A and C freeze at 0.5);
        # B then takes 2 - 0.5 = 1.5.
        assert rates[0] == pytest.approx(0.5 * MBPS)
        assert rates[2] == pytest.approx(0.5 * MBPS)
        assert rates[1] == pytest.approx(1.5 * MBPS)

    def test_empty_allocation(self):
        assert max_min_allocation([], []) == []

    def test_zero_demand_flow(self):
        d = build_dumbbell()
        f = d.net.flows.start_flow(d.h1, d.h2, demand_bps=0.0)
        assert f.rate_bps == 0.0

    @pytest.mark.parametrize("demand", [-5 * MBPS, math.nan])
    @pytest.mark.parametrize("call", ["start_flow", "set_demand"])
    def test_demand_must_be_non_negative(self, call, demand):
        # a negative demand ran its channel's octet counter backwards; a
        # NaN one was served as greedy
        d = build_dumbbell()
        fm = d.net.flows
        if call == "start_flow":
            with pytest.raises(ValueError):
                fm.start_flow(d.h1, d.h2, demand_bps=demand)
            assert fm.active_flows() == [] and not fm._on_channel
        else:
            f = fm.start_flow(d.h1, d.h2, demand_bps=MBPS)
            with pytest.raises(ValueError):
                fm.set_demand(f, demand)
            assert f.demand_bps == f.rate_bps == MBPS


@st.composite
def _allocation_problem(draw):
    """Random flows over a pool of fake channels."""

    class FakeChannel:
        def __init__(self, cap):
            self.capacity_bps = cap

    n_chan = draw(st.integers(1, 6))
    channels = [FakeChannel(draw(st.floats(1.0, 1000.0))) for _ in range(n_chan)]
    n_flows = draw(st.integers(1, 8))
    paths = []
    demands = []
    for _ in range(n_flows):
        k = draw(st.integers(1, n_chan))
        idx = draw(st.permutations(range(n_chan)))[:k]
        paths.append([channels[i] for i in idx])
        demands.append(
            draw(st.one_of(st.just(math.inf), st.floats(0.0, 500.0)))
        )
    return channels, paths, demands


class TestMaxMinProperties:
    @given(_allocation_problem())
    @settings(max_examples=200, deadline=None)
    def test_feasible_and_demand_respected(self, problem):
        channels, paths, demands = problem
        rates = max_min_allocation(paths, demands)
        # demands respected
        for r, d in zip(rates, demands):
            assert r <= d + 1e-6
            assert r >= 0
        # capacities respected
        for ch in channels:
            load = sum(r for r, p in zip(rates, paths) if ch in p)
            assert load <= ch.capacity_bps * (1 + 1e-9) + 1e-6

    @given(_allocation_problem())
    @settings(max_examples=200, deadline=None)
    def test_maxmin_bottleneck_condition(self, problem):
        """Every flow is either at its demand or crosses a saturated
        channel where it has a maximal rate — the defining property of
        max-min fairness."""
        channels, paths, demands = problem
        rates = max_min_allocation(paths, demands)
        for i, (r, d, p) in enumerate(zip(rates, demands, paths)):
            if math.isfinite(d) and r >= d - 1e-6:
                continue  # demand-bound
            bottlenecked = False
            for ch in p:
                load = sum(rj for rj, pj in zip(rates, paths) if ch in pj)
                if load >= ch.capacity_bps - 1e-6:
                    # flow i must have (weakly) maximal rate on this channel
                    others = [rj for j, (rj, pj) in enumerate(zip(rates, paths)) if ch in pj and j != i]
                    if all(r >= rj - 1e-6 for rj in others):
                        bottlenecked = True
                        break
            assert bottlenecked, f"flow {i} neither demand- nor bottleneck-bound"


class TestCounters:
    def test_counter_integration_exact(self):
        d = build_dumbbell()
        f = d.net.flows.start_flow(d.h1, d.h2, demand_bps=8 * MBPS)
        d.net.engine.run_until(10.0)
        path = f.path
        ch = path[0]
        ch.sync(d.net.now)
        assert ch.bytes_total == pytest.approx(8e6 * 10 / 8)

    def test_counter_integrates_across_rate_changes(self):
        d = build_dumbbell()
        f1 = d.net.flows.start_flow(d.h1, d.h2)  # 100 Mbps alone
        d.net.engine.at(5.0, lambda: d.net.flows.start_flow(d.h1, d.h2))
        d.net.engine.run_until(10.0)
        ch = compute_path(d.net, d.h1, d.h2)[1]
        ch.sync(d.net.now)
        # 5s at 100 Mbps + 5s at 100 Mbps (two flows at 50 each)
        assert ch.bytes_total == pytest.approx(100e6 * 10 / 8, rel=1e-9)

    def test_utilization_reading(self):
        d = build_dumbbell()
        d.net.flows.start_flow(d.h1, d.h2, demand_bps=25 * MBPS)
        ch = compute_path(d.net, d.h1, d.h2)[1]
        assert ch.utilization() == pytest.approx(0.25)


class TestFiniteTransfers:
    def test_completion_time_constant_rate(self):
        d = build_dumbbell()
        done = []
        d.net.flows.start_flow(
            d.h1, d.h2, total_bytes=125_000_000, on_complete=lambda f: done.append(d.net.now)
        )
        d.net.engine.run(max_events=100)
        # 125 MB at 100 Mbps = 10 s
        assert done == [pytest.approx(10.0)]

    def test_completion_reschedules_on_rate_change(self):
        d = build_dumbbell()
        done = []
        d.net.flows.start_flow(
            d.h1, d.h2, total_bytes=125_000_000, on_complete=lambda f: done.append(d.net.now)
        )
        # at t=5 a competitor arrives: remaining 62.5MB now moves at 50 Mbps -> 10 more s
        competitor = []
        d.net.engine.at(5.0, lambda: competitor.append(d.net.flows.start_flow(d.h1, d.h2)))
        d.net.engine.run_until(30.0)
        assert done == [pytest.approx(15.0)]

    def test_flow_bytes_done_tracks(self):
        d = build_dumbbell()
        f = d.net.flows.start_flow(d.h1, d.h2, demand_bps=8 * MBPS)
        d.net.engine.run_until(3.0)
        d.net.flows.stop_flow(f)
        assert f.bytes_done == pytest.approx(8e6 * 3 / 8)


class TestIncrementalReallocation:
    """Re-applying an allocation walks only the channels it touches —
    never every channel in the network (the old O(all-links) sweep).
    ``netsim.flows.realloc_channels_touched`` counts synced channels and
    is the recompute-cost witness."""

    @staticmethod
    def _wan():
        w = build_multisite_wan(
            [
                SiteSpec(f"s{i}", access_bps=10 * MBPS, n_hosts=2)
                for i in range(6)
            ]
        )
        return w, 2 * len(w.net.links)  # every link is two directed channels

    def test_start_touches_only_path_channels(self):
        w, total_channels = self._wan()
        with obs.scoped_registry() as reg:
            f = w.net.flows.start_flow(w.host("s0", 0), w.host("s1", 0))
            snap = obs.export.snapshot(reg)
        touched = snap["counters"]["netsim.flows.realloc_channels_touched"]
        assert touched == len(f.path)
        assert touched < total_channels, "sweep must not visit idle channels"

    def test_stop_zeroes_only_path_channels(self):
        w, total_channels = self._wan()
        f = w.net.flows.start_flow(w.host("s0", 0), w.host("s1", 0))
        with obs.scoped_registry() as reg:
            w.net.flows.stop_flow(f)
            snap = obs.export.snapshot(reg)
        touched = snap["counters"]["netsim.flows.realloc_channels_touched"]
        assert touched == len(f.path)
        assert touched < total_channels
        assert all(ch.rate_sum == 0.0 for ch in f.path)

    def test_disjoint_flow_does_not_touch_other_paths(self):
        # A recompute triggered by a flow on s2<->s3 re-syncs its own
        # path; the established s0<->s1 flow's rate is unchanged, so its
        # channels are not written again.
        w, _ = self._wan()
        f1 = w.net.flows.start_flow(w.host("s0", 0), w.host("s1", 0))
        with obs.scoped_registry() as reg:
            f2 = w.net.flows.start_flow(w.host("s2", 0), w.host("s3", 0))
            snap = obs.export.snapshot(reg)
        touched = snap["counters"]["netsim.flows.realloc_channels_touched"]
        assert touched == len(set(map(id, f2.path)) - set(map(id, f1.path)))


class TestWanSharing:
    def test_cross_site_flows_share_access_link(self):
        w = build_multisite_wan(
            [
                SiteSpec("a", access_bps=10 * MBPS),
                SiteSpec("b", access_bps=100 * MBPS),
                SiteSpec("c", access_bps=100 * MBPS),
            ]
        )
        # two flows out of site a to different sites share a's access link
        f1 = w.net.flows.start_flow(w.host("a", 0), w.host("b", 0))
        f2 = w.net.flows.start_flow(w.host("a", 1), w.host("c", 0))
        assert f1.rate_bps == pytest.approx(5 * MBPS)
        assert f2.rate_bps == pytest.approx(5 * MBPS)


class _GlobalFlowManager(FlowManager):
    """The from-scratch oracle: every change re-solves every flow.

    Only the scoping differs from the manager under test, so a twin
    world driven through it shows what a global solve would have done
    to rates, counters and completion events.
    """

    def _component(self, seed):
        flows = [self.flows[fid] for fid in sorted(self.flows)]
        channels = dict.fromkeys(seed)
        for f in flows:
            channels.update(dict.fromkeys(f.path))
        return flows, list(channels)


#: one step of a traffic script: (kind, a, b, x, finite)
_steps = st.lists(
    st.tuples(
        st.sampled_from(["start", "start", "start", "stop", "demand", "advance"]),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.floats(0.05, 1.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=25,
)


def _close(a, b):
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestComponentScopedReallocation:
    """A change re-solves the connected component of flows sharing a
    channel with it; everything observable must equal a global solve."""

    @staticmethod
    def _twins(seed):
        def build():
            return build_random_wan(
                6, seed=seed, hosts_per_site=(2, 3),
                multi_switch_fraction=0.5, wireless_fraction=0.3,
            )

        scoped, oracle = build(), build()
        oracle.net.flows = _GlobalFlowManager(oracle.net)
        return scoped.net, oracle.net

    @staticmethod
    def _apply(net, flows, step):
        kind, a, b, x, finite = step
        hosts = net.hosts()
        live = [f for f in flows if f.active]
        if kind == "start":
            src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
            if src is dst:
                return
            flows.append(
                net.flows.start_flow(
                    src, dst,
                    demand_bps=math.inf if x > 0.6 else x * 20 * MBPS,
                    total_bytes=x * 4e6 if finite else None,
                )
            )
        elif kind == "stop" and live:
            net.flows.stop_flow(live[a % len(live)])
        elif kind == "demand" and live:
            net.flows.set_demand(live[a % len(live)], x * 30 * MBPS)
        elif kind == "advance":
            net.engine.run_until(net.now + 4.0 * x)

    @given(st.integers(0, 5), _steps)
    @settings(max_examples=40, deadline=None)
    def test_equals_a_global_solve(self, seed, steps):
        net, oracle = self._twins(seed)
        mine, theirs = [], []
        for step in steps:
            self._apply(net, mine, step)
            self._apply(oracle, theirs, step)
            assert net.now == pytest.approx(oracle.now, rel=1e-9, abs=1e-9)
            # rates against the pure reference solver, from scratch
            live = [f for f in mine if f.active]
            want = max_min_allocation_reference(
                [f.path for f in live], [f.demand_bps for f in live]
            )
            for f, r in zip(live, want):
                assert _close(f.rate_bps, r)
            # flows: rate, progress, completion instant
            assert len(mine) == len(theirs)
            for f, g in zip(mine, theirs):
                assert f.active == g.active
                assert _close(f.rate_bps, g.rate_bps)
                assert _close(f.end_time, g.end_time)
                net.flows._settle(f)
                oracle.flows._settle(g)
                assert _close(f.bytes_done, g.bytes_done)
            # channels: aggregate rate and octet counter, network-wide
            for ln, lo in zip(net.links, oracle.links):
                for ch, co in zip(ln.channels(), lo.channels()):
                    assert _close(ch.rate_sum, co.rate_sum)
                    assert ch.rate_sum == pytest.approx(
                        sum(f.rate_bps * f.path.count(ch) for f in live),
                        rel=1e-9, abs=1e-9,
                    )
                    ch.sync(net.now)
                    co.sync(oracle.now)
                    assert _close(ch.bytes_total, co.bytes_total)
        assert set(net.flows._on_channel) == {
            ch for f in mine if f.active for ch in f.path
        }

    @staticmethod
    def _wan():
        return build_multisite_wan(
            [SiteSpec(f"s{i}", access_bps=10 * MBPS, n_hosts=2) for i in range(6)]
        )

    @staticmethod
    def _resolved(fn):
        """Flows re-solved by each reallocation ``fn`` triggers."""
        with obs.scoped_registry() as reg:
            fn()
            snap = obs.export.snapshot(reg)
        h = snap["histograms"]["netsim.flows.realloc_flows"]
        assert snap["histograms"]["netsim.maxmin.rounds"]["count"] == h["count"]
        return h["count"], h["sum"]

    def test_joining_flow_merges_components_and_leaving_splits_them(self):
        w = self._wan()
        fm = w.net.flows
        f1 = fm.start_flow(w.host("s0", 0), w.host("s1", 0))
        f2 = fm.start_flow(w.host("s2", 0), w.host("s3", 0))
        assert self._resolved(lambda: fm.set_demand(f1, 4 * MBPS)) == (1, 1)
        # s0 -> s3 shares s0's uplink with f1 and s3's downlink with f2
        bridge = []
        assert self._resolved(
            lambda: bridge.append(fm.start_flow(w.host("s0", 1), w.host("s3", 1)))
        ) == (1, 3)
        assert f2.rate_bps == pytest.approx(5 * MBPS)
        assert self._resolved(lambda: fm.set_demand(f1, 2 * MBPS)) == (1, 3)
        # leaving re-solves both halves once, then they are apart again
        assert self._resolved(lambda: fm.stop_flow(bridge[0])) == (1, 2)
        assert f2.rate_bps == pytest.approx(10 * MBPS)
        assert self._resolved(lambda: fm.set_demand(f1, 4 * MBPS)) == (1, 1)
        assert fm.recomputes == 7

    def test_flows_outside_the_component_are_left_alone(self):
        w = self._wan()
        fm = w.net.flows
        far = fm.start_flow(w.host("s4", 0), w.host("s5", 0), total_bytes=50e6)
        near = fm.start_flow(w.host("s0", 0), w.host("s1", 0), total_bytes=50e6)
        w.net.engine.run_until(3.0)
        timer, settled, done = far._completion_timer, far._last_settle, far.bytes_done
        near_timer = near._completion_timer
        with obs.scoped_registry() as reg:
            rival = fm.start_flow(w.host("s0", 1), w.host("s1", 1))
            snap = obs.export.snapshot(reg)
        # the component was re-solved and re-armed ...
        assert near.rate_bps == pytest.approx(5 * MBPS)
        assert near._completion_timer is not near_timer and near_timer.cancelled
        # ... the far flow saw no settle, no rate write, no timer churn
        assert far._completion_timer is timer and not timer.cancelled
        assert far._last_settle == settled and far.bytes_done == done
        assert far.rate_bps == 10 * MBPS
        # shared channels still carry 10 Mbps: only the private ones moved
        assert snap["counters"]["netsim.flows.realloc_channels_touched"] == len(
            set(rival.path) ^ set(near.path)
        )
        assert all(ch._last_sync == 0.0 for ch in far.path)
        # and still completes exactly when a lone 10 Mbps transfer would
        w.net.engine.run_until(100.0)
        assert far.end_time == pytest.approx(50e6 * 8 / (10 * MBPS))

    def test_flows_on_reads_the_index(self):
        w = self._wan()
        fm = w.net.flows
        f1 = fm.start_flow(w.host("s0", 0), w.host("s1", 0))
        f2 = fm.start_flow(w.host("s0", 1), w.host("s2", 0))
        f3 = fm.start_flow(w.host("s3", 0), w.host("s2", 1))
        for ln in w.net.links:
            for ch in ln.channels():
                assert fm.flows_on(ch) == [f for f in (f1, f2, f3) if ch in f.path]
        shared = next(ch for ch in f1.path if ch in f2.path)
        assert fm.flows_on(shared, f3.path[0]) == [f1, f2, f3]
        fm.stop_flow(f2)
        assert fm.flows_on(shared) == [f1]
