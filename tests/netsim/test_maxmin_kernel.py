"""Equivalence of the numpy max-min kernel against the scalar oracle.

:func:`repro.netsim.flows.max_min_allocation` dispatches small problems
to :func:`repro.netsim.flows.max_min_allocation_reference` (the
original pure-python solver, kept verbatim as ground truth).  These
tests pin ``_KERNEL_MIN_ENTRIES`` to 0 so the vectorised kernel is
exercised at every problem size, and check agreement within 1e-9 on
randomised problems plus the documented corner cases: zero-length
paths, infinite demands, and shared-bottleneck ladders.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.flows as flows_mod
from repro.netsim.flows import max_min_allocation, max_min_allocation_reference


class FakeChannel:
    def __init__(self, cap):
        self.capacity_bps = cap


def kernel(paths, demands):
    """Run the numpy kernel regardless of problem size."""
    with mock.patch.object(flows_mod, "_KERNEL_MIN_ENTRIES", 0):
        return max_min_allocation(paths, demands)


def assert_equivalent(paths, demands):
    got = kernel(paths, demands)
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
        assert kernel([], []) == []

    def test_all_zero_length_paths(self):
        # src == dst collapses to an empty path: full demand, and a
        # greedy (infinite-demand) flow stays infinite.
        paths = [[], [], []]
        demands = [7.0, 0.0, math.inf]
        assert kernel(paths, demands) == [7.0, 0.0, math.inf]
        assert_equivalent(paths, demands)

    def test_water_filling_example(self):
        # Classic 3-flow / 2-link example: A on link1 (cap 1), B on
        # link2 (cap 2), C on both.  Level freezes A and C at 0.5;
        # B takes the remaining 1.5.
        l1, l2 = FakeChannel(1.0), FakeChannel(2.0)
        rates = kernel([[l1], [l2], [l1, l2]], [math.inf] * 3)
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


class TestDispatch:
    def test_small_problem_uses_reference_solver(self):
        ch = FakeChannel(10.0)
        with mock.patch.object(
            flows_mod,
            "max_min_allocation_reference",
            wraps=max_min_allocation_reference,
        ) as ref:
            max_min_allocation([[ch], [ch]], [math.inf, math.inf])
        assert ref.called

    def test_large_problem_uses_kernel(self):
        # 65 flows x 2 channels = 130 incidence entries >= the 128-entry
        # dispatch floor: the kernel runs, and agrees with the oracle.
        a, b = FakeChannel(100.0), FakeChannel(60.0)
        paths = [[a, b] for _ in range(65)]
        demands = [math.inf if i % 3 else 0.5 for i in range(65)]
        with mock.patch.object(
            flows_mod,
            "max_min_allocation_reference",
            wraps=max_min_allocation_reference,
        ) as ref:
            got = max_min_allocation(paths, demands)
        assert not ref.called
        want = max_min_allocation_reference(paths, demands)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


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
    with either solver."""

    @given(_problem())
    @settings(max_examples=200, deadline=None)
    def test_per_component_solve_equals_global(self, problem):
        paths, demands = problem
        want = max_min_allocation_reference(paths, demands)
        for solve in (max_min_allocation_reference, kernel):
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
