"""A quiet stop restores what its start displaced.

``FlowManager.stop_flow`` of the flow the most recent ``start_flow``
began, with no reallocation since, puts back the allocation that start
displaced instead of re-solving.  Every test here drives two worlds of
one seed through the same script: the world under test, and a twin
whose manager drops the displaced record before every stop, so each of
its stops re-solves.  After every step the two must agree on each flow's
rate, progress and completion instant, each channel's aggregate and
octet counter, and the engine queue:

- bit for bit, when the stop's component is the start's: the script
  changed nothing between the two (a quiet stop) and the allocation the
  start displaced is what a solve of that component gives; and
- bit for bit, when a change came in between, because then both worlds
  re-solve;
- within the solver's 1e-9 otherwise (the displaced rates came from
  solves of other components, whose float rounding can differ).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.units import MBPS
from repro.faults import degrade_link
from repro.netsim.builders import build_random_wan
from repro.netsim.flows import FlowManager, max_min_allocation
from repro.netsim.paths import compute_path

N_SITES = 6


class _ResolvingFlowManager(FlowManager):
    """The twin: every stop drops the displaced record first, so every
    stop re-solves its component."""

    def stop_flow(self, flow):
        self._displaced = None
        super().stop_flow(flow)


def _twins(seed):
    def build():
        return build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3)).net

    net, twin = build(), build()
    twin.flows = _ResolvingFlowManager(twin)
    return net, twin


#: background flows: (kind, src pick, dst pick, size)
_background = st.lists(
    st.tuples(
        st.sampled_from(["greedy", "cbr", "finite"]),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.floats(0.05, 1.0),
    ),
    min_size=1,
    max_size=8,
)
#: what happens between the probe's start and its stop
_between = st.sampled_from([None, None, "demand", "start", "stop", "degrade"])


def _start_background(net, spec):
    hosts = net.hosts()
    flows = []
    for kind, a, b, x in spec:
        src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
        if src is dst:
            continue
        if kind == "greedy":
            flows.append(net.flows.start_flow(src, dst))
        elif kind == "cbr":
            flows.append(net.flows.start_flow(src, dst, demand_bps=x * 20 * MBPS))
        else:
            flows.append(net.flows.start_flow(src, dst, total_bytes=x * 40e6))
    return flows


def _intervene(net, flows, between, pick, x):
    """Change the world between a probe's start and its stop."""
    live = [f for f in flows if f.active]
    if between == "demand" and live:
        net.flows.set_demand(live[pick % len(live)], x * 30 * MBPS)
    elif between == "stop" and live:
        net.flows.stop_flow(live[pick % len(live)])
    elif between == "start":
        hosts = net.hosts()
        src, dst = hosts[pick % len(hosts)], hosts[(pick + 1) % len(hosts)]
        flows.append(net.flows.start_flow(src, dst, total_bytes=x * 10e6))
    elif between == "degrade":
        degrade_link(net, net.links[pick % len(net.links)], 0.5)
    else:
        return False
    return True


def _state(net, flows):
    """Everything the allocation writes, as plain floats."""

    def eta(f):
        timer = f._completion_timer
        return None if timer is None else timer._event.time

    return (
        [
            (f.active, f.rate_bps, f.bytes_done, f.bytes_remaining, f._last_settle, eta(f))
            for f in flows
        ],
        [
            (ch.rate_sum, ch.bytes_total, ch._last_sync)
            for ln in net.links
            for ch in ln.channels()
        ],
        sorted((t, seq) for t, seq, ev in net.engine._queue if not ev.cancelled),
    )


def _synced(net, flows):
    """``_state`` after folding every flow and counter forward to now,
    so that which channels a step happened to sync does not matter."""
    for f in flows:
        if f.active:
            net.flows._settle(f)
    for ln in net.links:
        for ch in ln.channels():
            ch.sync(net.now)
    return _state(net, flows)


def _close(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if not isinstance(a, float) or not isinstance(b, float):
        return a == b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


def _solve_is_fixed(fm, path):
    """Would re-solving the component of ``path`` give, bit for bit,
    the rates and aggregates the flows on it hold now?"""
    flows, channels = fm._component(path)
    rates = max_min_allocation([f.path for f in flows], [f.demand_bps for f in flows])
    if any(f.rate_bps != r for f, r in zip(flows, rates)):
        return False
    sums = dict.fromkeys(channels, 0.0)
    for f, r in zip(flows, rates):
        for ch in f.path:
            sums[ch] += r
    return all(ch.rate_sum == s for ch, s in sums.items())


def _rounds_observed(fn):
    with obs.scoped_registry() as reg:
        fn()
        snap = obs.export.snapshot(reg)
    return snap["histograms"].get("netsim.maxmin.rounds", {"count": 0})["count"]


def _run(seed, background, warm_s, probe, hold_s, between, pick, x):
    """One probe between the worlds; returns whether the stop must be
    bit-equal to the twin's re-solve."""
    net, twin = _twins(seed)
    mine, theirs = _start_background(net, background), _start_background(twin, background)
    net.engine.run_until(warm_s)
    twin.engine.run_until(warm_s)
    assert _state(net, mine) == _state(twin, theirs)

    hosts = net.hosts()
    a, b = probe
    src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
    if src is dst:
        return None
    fixed = _solve_is_fixed(net.flows, compute_path(net, src, dst))
    flow = net.flows.start_flow(src, dst)
    twin_flow = twin.flows.start_flow(src.name, dst.name)
    net.engine.advance(hold_s)
    twin.engine.advance(hold_s)
    changed = _intervene(net, mine, between, pick, x)
    _intervene(twin, theirs, between, pick, x)
    mine.append(flow)
    theirs.append(twin_flow)
    # up to the stop both worlds ran the same code
    assert _state(net, mine) == _state(twin, theirs)

    rounds = _rounds_observed(lambda: net.flows.stop_flow(flow))
    twin.flows.stop_flow(twin_flow)
    assert rounds == (1 if changed else 0), "a changed world must re-solve at the stop"
    exact = changed or fixed
    if exact:
        assert _state(net, mine) == _state(twin, theirs)
    assert _close(_synced(net, mine), _synced(twin, theirs))

    # and the timers the stop armed fire alike
    net.engine.run_until(net.now + 20.0)
    twin.engine.run_until(twin.now + 20.0)
    got, want = _synced(net, mine), _synced(twin, theirs)
    if exact:
        assert got == want
    assert _close(got, want)
    return exact


@given(
    st.integers(0, 40),
    _background,
    st.floats(0.0, 5.0),
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    st.floats(0.001, 3.0),
    _between,
    st.integers(0, 10_000),
    st.floats(0.05, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_stop_equals_a_re_solving_twin(seed, background, warm_s, probe, hold_s, between, pick, x):
    _run(seed, background, warm_s, probe, hold_s, between, pick, x)


def test_a_quiet_probe_over_shared_links_is_bit_equal():
    """Greedy, CBR and finite background crossing the probe's path:
    the stop solves nothing and leaves what a re-solve leaves."""
    background = [
        ("greedy", 0, 7, 1.0),
        ("cbr", 1, 8, 0.3),
        ("finite", 2, 7, 0.5),
        ("finite", 7, 3, 0.8),
    ]
    hits = [
        _run(seed, background, 1.0, (0, 7), 0.4, None, 0, 0.5) for seed in range(4)
    ]
    assert all(hits), "the displaced allocation was not a fixed point"


@pytest.mark.parametrize("between", ["demand", "start", "stop", "degrade"])
def test_any_change_in_between_makes_the_stop_re_solve(between):
    assert _run(3, [("greedy", 0, 7, 1.0), ("finite", 1, 6, 0.5)], 1.0, (0, 7), 0.4,
                between, 0, 0.5)


def test_only_the_started_flow_restores():
    """A record belongs to one flow: stopping an older flow re-solves."""
    net, _ = _twins(5)
    hosts = net.hosts()
    older = net.flows.start_flow(hosts[0], hosts[5])
    probe = net.flows.start_flow(hosts[1], hosts[6])
    assert _rounds_observed(lambda: net.flows.stop_flow(older)) == 1
    assert _rounds_observed(lambda: net.flows.stop_flow(probe)) == 1
    again = net.flows.start_flow(hosts[1], hosts[6])
    assert _rounds_observed(lambda: net.flows.stop_flow(again)) == 0
    assert net.flows._displaced is None
