"""Equivalence of the max-min solver against the scalar oracle.

:func:`repro.netsim.flows.max_min_allocation` keeps only the channels
that can bind (``_binding_channels``: of the channels crossed by the
same flows only the tightest stays) and runs progressive filling over
them in one pass, returning the demands untouched when they fit.
:func:`maxmin_reference.max_min_allocation_reference` (the original
pure-python solver, kept verbatim as ground truth) is the oracle twice
over: fed the paths cut to the kept channels, it is the composition
the one-pass solver must equal bit for bit; fed the *unreduced* paths,
it checks the reduction within 1e-9 on randomised problems — including
ones past the 128 incidence entries above which a numpy kernel used to
take over — plus the documented corner cases: zero-length paths,
infinite demands, shared-bottleneck ladders and path-redundant problems
where most channels are dominated.
"""

import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.netsim.flows as flows_mod
from repro.netsim.flows import _binding_channels, _fill, _plan, _solve, max_min_allocation

from .maxmin_reference import max_min_allocation_reference


class FakeChannel:
    def __init__(self, cap):
        self.capacity_bps = cap


def _reduced(paths):
    """``paths`` cut to the channels :func:`_binding_channels` keeps."""
    keep = {id(ch) for ch, _ in _binding_channels(paths)}
    return [[ch for ch in path if id(ch) in keep] for path in paths]


def assert_equivalent(paths, demands):
    got = max_min_allocation(paths, demands)
    want = max_min_allocation_reference(paths, demands)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if math.isinf(w):
            assert math.isinf(g) and g > 0
        else:
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


@st.composite
def _problem(draw):
    """Random flows over a pool of fake channels; path length 0 allowed
    (a zero-length path models src == dst within one node and must get
    its full demand)."""
    n_chan = draw(st.integers(1, 6))
    channels = [FakeChannel(draw(st.floats(1.0, 1000.0))) for _ in range(n_chan)]
    n_flows = draw(st.integers(1, 8))
    paths = []
    demands = []
    for _ in range(n_flows):
        k = draw(st.integers(0, n_chan))
        idx = draw(st.permutations(range(n_chan)))[:k]
        paths.append([channels[i] for i in idx])
        demands.append(
            draw(st.one_of(st.just(math.inf), st.floats(0.0, 500.0)))
        )
    return paths, demands


class TestKernelEquivalence:
    @given(_problem())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, problem):
        paths, demands = problem
        assert_equivalent(paths, demands)

    def test_empty(self):
        assert max_min_allocation([], []) == []

    def test_all_zero_length_paths(self):
        # src == dst collapses to an empty path: full demand, and a
        # greedy (infinite-demand) flow stays infinite.
        paths = [[], [], []]
        demands = [7.0, 0.0, math.inf]
        assert max_min_allocation(paths, demands) == [7.0, 0.0, math.inf]
        assert_equivalent(paths, demands)

    def test_water_filling_example(self):
        # Classic 3-flow / 2-link example: A on link1 (cap 1), B on
        # link2 (cap 2), C on both.  Level freezes A and C at 0.5;
        # B takes the remaining 1.5.
        l1, l2 = FakeChannel(1.0), FakeChannel(2.0)
        rates = max_min_allocation([[l1], [l2], [l1, l2]], [math.inf] * 3)
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(1.5)
        assert rates[2] == pytest.approx(0.5)

    def test_shared_bottleneck_ladder(self):
        # Flow i crosses channels 0..i: every flow shares channel 0, so
        # contention nests.  A stress case for the snapshot-style
        # saturated-channel freeze.
        chans = [FakeChannel(10.0 * (i + 1)) for i in range(6)]
        paths = [chans[: i + 1] for i in range(6)]
        assert_equivalent(paths, [math.inf] * 6)
        assert_equivalent(paths, [3.0, math.inf, 1.0, math.inf, 0.0, 2.5])

    def test_infinite_demand_on_capacity_free_path(self):
        # Infinite capacities with infinite demands: the allocation is
        # legitimately unbounded in the fluid model.
        free = FakeChannel(math.inf)
        assert_equivalent([[free], [free]], [math.inf, 5.0])

    def test_demand_exactly_at_level(self):
        # A demand that binds exactly where a capacity binds exercises
        # the tie between the two freeze rules.
        ch = FakeChannel(10.0)
        assert_equivalent([[ch], [ch]], [5.0, math.inf])


class TestBindingChannels:
    """Of the channels crossed by the same flows only the tightest can
    bind; the rest are dropped before the solve."""

    def test_keeps_the_tightest_of_each_group_in_path_order(self):
        # flows 0 and 1 share a, b, c (one group: b is tightest);
        # d and e are flow 0's own (e tightest); f is flow 1's own
        a, b, c = FakeChannel(30.0), FakeChannel(10.0), FakeChannel(20.0)
        d, e, f = FakeChannel(8.0), FakeChannel(5.0), FakeChannel(math.inf)
        paths = [[d, a, b, c, e], [a, b, f, c]]
        assert _reduced(paths) == [[b, e], [b, f]]
        # first-appearance order (b before e), not the order the groups
        # were first met in (d's group, then a's)
        assert _binding_channels(paths) == [(b, [0, 1]), (e, [0]), (f, [1])]

    def test_dominated_channel_before_and_after_its_dominator(self):
        lo, tight, hi = FakeChannel(9.0), FakeChannel(3.0), FakeChannel(7.0)
        for path in ([lo, tight, hi], [tight, lo, hi], [hi, lo, tight]):
            assert _reduced([path]) == [[tight]]

    def test_first_of_equal_capacities_is_kept(self):
        first, second = FakeChannel(4.0), FakeChannel(4.0)
        assert _reduced([[first, second]]) == [[first]]

    def test_a_channel_crossed_twice_is_its_own_group(self):
        # the loop channel counts its flow twice per round: it is not
        # the same constraint as a channel the flow crosses once
        once, loop = FakeChannel(5.0), FakeChannel(8.0)
        assert _binding_channels([[once, loop, loop]]) == [(once, [0]), (loop, [0, 0])]
        assert max_min_allocation([[once, loop, loop]], [math.inf]) == [4.0]

    def test_nothing_to_drop_keeps_every_channel(self):
        a, b = FakeChannel(1.0), FakeChannel(2.0)
        assert _binding_channels([[a], [a, b], []]) == [(a, [0, 1]), (b, [1])]

    def test_observes_the_constraints_handed_to_the_solver(self):
        from repro import obs

        a, b, c = FakeChannel(3.0), FakeChannel(2.0), FakeChannel(1.0)
        with obs.scoped_registry() as reg:
            max_min_allocation([[a, b], [a, b, c]], [math.inf, math.inf])
            snap = obs.export.snapshot(reg)
        hist = snap["histograms"]["netsim.maxmin.constraints"]
        assert hist["count"] == 1 and hist["sum"] == 2

    @pytest.mark.parametrize("demands, rounds", [([0.25, 0.5], 0), ([1.0, 0.5], 1)])
    def test_demands_that_fit_take_no_filling_round(self, demands, rounds):
        # 0.25 + 0.5 fits the shared channel's 1.0; 1.0 + 0.5 is filled
        from repro import obs

        a, b = FakeChannel(2.0), FakeChannel(1.0)
        with obs.scoped_registry() as reg:
            rates = max_min_allocation([[a, b], [b]], demands)
            snap = obs.export.snapshot(reg)
        assert snap["histograms"]["netsim.maxmin.constraints"]["count"] == 1
        hist = snap["histograms"]["netsim.maxmin.rounds"]
        assert hist["count"] == 1 and hist["sum"] == rounds
        assert rates == max_min_allocation_reference([[a, b], [b]], demands)


_CAPS = st.sampled_from([1.0, 2.0, 2.0, 5.0, 10.0, 1000.0, math.inf])


@st.composite
def _redundant_problem(draw, n_flows=st.integers(1, 7), seg_len=st.integers(1, 4), min_picked=0):
    """Problems in which dominated channels really occur.

    Channels come in *segments* (an access tier, a trunk) that flows
    cross whole, so every channel of a segment carries the same flows;
    capacities are drawn from a handful of values (ties, ``inf``) and
    segment order is random, so a dominated channel sits before and
    after its dominator.  Some paths cross a channel twice, some are
    zero-length, demands are finite, zero or infinite.  ``n_flows``,
    ``seg_len`` and ``min_picked`` (segments per path, at least) size
    the problem.
    """
    segments = [
        [FakeChannel(draw(_CAPS)) for _ in range(draw(seg_len))]
        for _ in range(draw(st.integers(max(1, min_picked), 5)))
    ]
    paths, demands = [], []
    for _ in range(draw(n_flows)):
        picked = draw(
            st.lists(
                st.integers(0, len(segments) - 1),
                min_size=min_picked, max_size=3, unique=True,
            )
        )
        path = [ch for k in picked for ch in segments[k]]
        if path and draw(st.booleans()) and draw(st.booleans()):
            path.insert(draw(st.integers(0, len(path))), draw(st.sampled_from(path)))
        paths.append(path)
        demands.append(draw(st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.0, 20.0))))
    return paths, demands


_SHARED = FakeChannel(1.5)


class TestOnePassSolver:
    """The one-pass solver is the reference on the reduced paths, to the
    bit, and returns demands that fit untouched."""

    @given(st.one_of(_problem(), _redundant_problem()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_on_the_reduced_paths(self, problem):
        paths, demands = problem
        assert max_min_allocation(paths, demands) == max_min_allocation_reference(
            _reduced(paths), demands
        )

    # the third kind crowds up to 64 flows onto a few one-channel
    # segments: the most filling rounds per channel the reference meets
    @given(
        st.one_of(
            _problem(),
            _redundant_problem(),
            _redundant_problem(st.integers(8, 64), st.just(1)),
        ),
        st.floats(0.01, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    @example(([[_SHARED], [FakeChannel(5.0), _SHARED]], [5e-324, 5e-324]), 0.75)
    def test_demands_that_fit_are_the_answer(self, problem, share):
        paths, demands = problem
        demands = [d if math.isfinite(d) else 1.0 for d in demands]
        # brought to a top demand of 1 before the load is taken: summed
        # and divided as subnormals, two 5e-324 demands on a 1.5 channel
        # read a load of 5e-324, a third short, and scale to 1.0 each
        top = max(demands, default=0.0)
        if top > 0:
            demands = [d / top for d in demands]
        load = max(
            (sum(demands[i] for i in members) / ch.capacity_bps
             for ch, members in _binding_channels(paths)),
            default=0.0,
        )
        if load > 0:
            demands = [d * share / load for d in demands]
        rates = max_min_allocation(paths, demands)
        assert rates == demands
        assert rates == max_min_allocation_reference(paths, demands)

    def test_fitting_demands_come_back_whole(self):
        # Eight flows that fit on one channel.  Filling from level L to a
        # demand d takes a second round when L + (d - L) rounds short of
        # d, as it does here for several of them; a budget of one round
        # per flow (plus one per channel, plus one) ran out first and
        # left the greediest flow at the previous level.
        link = FakeChannel(1e9)
        demands = [
            15065326.968975345, 43653956.362919904, 35425833.80429726,
            5652202.862658423, 39964102.48428396, 14458890.62108926,
            994642.1644566772, 32932279.45916028,
        ]
        assert max_min_allocation_reference([[link]] * 8, demands) == demands
        assert max_min_allocation([[link]] * 8, demands) == demands


_DEMAND = st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.0, 20.0), st.floats(0.0, 500.0))


class TestPlannedSolve:
    """A plan is what a solve derives from the paths alone: derived
    once, it is filled under any demands to exactly what a solve from
    scratch gives, and filling never changes it."""

    @given(st.one_of(_problem(), _redundant_problem()), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_plan_filled_under_fresh_demands_is_a_solve(self, problem, data):
        paths, demands = problem
        plan = _plan(paths)
        kept = repr(plan)
        for _ in range(3):
            got = _fill(plan, demands)
            assert got == _solve(paths, demands)
            assert got[0] == max_min_allocation_reference(_reduced(paths), demands)
            assert max_min_allocation(paths, demands, plan) == max_min_allocation(paths, demands)
            demands = data.draw(st.lists(_DEMAND, min_size=len(paths), max_size=len(paths)))
        assert repr(plan) == kept


class TestReductionEquivalence:
    @given(_redundant_problem())
    @settings(max_examples=300, deadline=None)
    def test_dispatcher_matches_oracle_on_unreduced_paths(self, problem):
        paths, demands = problem
        assert_equivalent(paths, demands)

    @given(_redundant_problem(st.integers(64, 72), st.integers(2, 4), min_picked=2))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_past_the_old_kernel_floor(self, problem):
        # the size class the numpy kernel used to own: 128 incidence
        # entries or more *after* the reduction
        paths, demands = problem
        assume(sum(len(p) for p in _reduced(paths)) >= 128)
        assert_equivalent(paths, demands)

    @given(_redundant_problem())
    @settings(max_examples=100, deadline=None)
    def test_reduction_only_drops_dominated_channels(self, problem):
        paths, _ = problem
        reduced = _reduced(paths)

        def members(of):
            out = {}
            for i, path in enumerate(of):
                for ch in path:
                    out.setdefault(id(ch), (ch, []))[1].append(i)
            return out

        before, after = members(paths), members(reduced)
        groups = {}
        for ch, flows in before.values():
            groups.setdefault(tuple(flows), []).append(ch)
        # one survivor per member list, a minimum-capacity one, with its
        # member list intact
        assert len(after) == len(groups)
        for flows, chans in groups.items():
            [kept] = [ch for ch in chans if id(ch) in after]
            assert kept.capacity_bps == min(ch.capacity_bps for ch in chans)
            assert tuple(after[id(kept)][1]) == flows
        # path order is the paths' own
        for path, short in zip(paths, reduced):
            assert list(short) == [ch for ch in path if id(ch) in after]


def _components(paths):
    """Indices of flows grouped by transitive channel sharing."""
    owner: dict[int, int] = {}
    parent = list(range(len(paths)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, path in enumerate(paths):
        for ch in path:
            j = owner.setdefault(id(ch), i)
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(paths)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class TestDecouplesAcrossComponents:
    """What lets FlowManager re-solve one component at a time: solving
    each channel-disjoint group of flows alone gives the global answer,
    reduced or not."""

    @given(_problem())
    @settings(max_examples=200, deadline=None)
    def test_per_component_solve_equals_global(self, problem):
        paths, demands = problem
        want = max_min_allocation_reference(paths, demands)
        for solve in (max_min_allocation_reference, max_min_allocation):
            got = [None] * len(paths)
            for members in _components(paths):
                part = solve([paths[i] for i in members], [demands[i] for i in members])
                for i, r in zip(members, part):
                    got[i] = r
            for g, w in zip(got, want):
                if math.isinf(w):
                    assert math.isinf(g) and g > 0
                else:
                    assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_disjoint_groups_are_found(self):
        a, b, c = FakeChannel(10.0), FakeChannel(20.0), FakeChannel(30.0)
        assert _components([[a], [b, c], [a], [c], []]) == [[0, 2], [1, 3], [4]]


class TestUnprunedTwinOnTheChurnWorld:
    """The benchmark's churn world — cross traffic walking on every
    access link, periodic 1 MB probes between all sites, finite
    transfers on top — run three times: as shipped, with the
    demands-fit shortcut switched off, and with the reference solver on
    unreduced paths in place of the one-pass one.  Every rate,
    aggregate, octet counter and completion instant must be the same
    floats, not merely close."""

    @staticmethod
    def _run():
        from repro.collectors.benchmark_collector import BenchmarkCollector
        from repro.netsim.builders import build_random_wan
        from repro.netsim.traffic import RandomWalkTraffic

        world = build_random_wan(8, 2, hosts_per_site=(3, 3))
        net = world.net
        sites = sorted(world.sites)
        for i, name in enumerate(sites):
            peer = sites[(i + 1) % len(sites)]
            cap = min(world.sites[name].spec.access_bps, world.sites[peer].spec.access_bps)
            RandomWalkTraffic(
                net, world.host(name, 1), world.host(peer, 1),
                lo_bps=0.30 * cap, hi_bps=0.40 * cap, sigma_bps=0.02 * cap,
                seed=7000 + i,
            ).start()
        benches = [BenchmarkCollector(s, net, world.host(s, 2)) for s in sites]
        for k, b in enumerate(benches):
            for peer in benches[k + 1:]:
                b.add_peer(peer)
        for k, b in enumerate(benches):
            b.start_periodic(stagger_s=0.5 * k)

        seen = []

        def done(flow):
            seen.append(("done", flow.label, net.now, flow.bytes_done))

        for step in range(40):
            if step % 4 == 0:
                a, b = sites[step % 8], sites[(step + 3) % 8]
                net.flows.start_flow(
                    world.host(a, 0), world.host(b, 0),
                    total_bytes=2e6 + 1e5 * step, on_complete=done, label=f"xfer{step}",
                )
            net.engine.run_until(net.now + 5.0)
            seen.append(("now", net.now))
            for f in net.flows.active_flows():
                seen.append((f.label, f.rate_bps))
            for link in net.links:
                for ch in link.channels():
                    ch.sync(net.now)
                    seen.append((ch.rate_sum, ch.bytes_total))
        seen.extend(m.throughput_bps for b in benches for h in b.history.values() for m in h)
        return seen

    def test_pruned_run_is_bit_identical_to_unpruned(self):
        pruned = self._run()
        # no member-demand sum fits under -inf times a capacity
        with mock.patch.object(flows_mod, "_FIT_SHARE", -math.inf):
            filled = self._run()
        # every solve, planned ones included, goes to the reference
        with mock.patch.object(
            flows_mod,
            "max_min_allocation",
            lambda paths, demands, plan=None: max_min_allocation_reference(paths, demands),
        ):
            unpruned = self._run()
        assert any(entry[0] == "done" for entry in pruned if isinstance(entry, tuple))
        assert pruned == filled
        assert pruned == unpruned
