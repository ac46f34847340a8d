"""``FlowManager.what_if``: the rates ``start_flow`` would give, with
nothing started.

It is ground truth for the representation the stack builds (ROADMAP
items 1, 2 and 15), so it must be exact and it must be invisible:

- the rates equal, bit for bit, those the asked flows get when they are
  started now in the order asked, over greedy and CBR background on
  ``build_random_wan`` worlds; and
- flows, channel counters, ``recomputes``, the displaced record, the
  component memo and the engine queue are as they were, and a live
  metrics registry records nothing.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import TopologyError
from repro.common.units import MBPS
from repro.netsim.builders import build_random_wan

N_SITES = 6

#: background flows: (kind, src pick, dst pick, share of 20 Mb/s)
_background = st.lists(
    st.tuples(
        st.sampled_from(["greedy", "cbr"]),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.floats(0.025, 1.0),
    ),
    max_size=8,
)
#: the asked pairs, each with a demand: None is greedy
_asked = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.one_of(st.none(), st.floats(0.0, 40.0)),
    ),
    min_size=1,
    max_size=8,
)


def _world(seed, background, warm_s=0.0):
    net = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3)).net
    hosts = net.hosts()
    for kind, a, b, x in background:
        src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
        if src is dst:
            continue
        if kind == "greedy":
            net.flows.start_flow(src, dst)
        else:
            net.flows.start_flow(src, dst, demand_bps=x * 20 * MBPS)
    net.engine.run_until(warm_s)
    return net


def _pairs(net, asked):
    hosts = net.hosts()
    pairs, demands = [], []
    for a, b, mbps in asked:
        src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
        if src is not dst:
            pairs.append((src, dst))
            demands.append(math.inf if mbps is None else mbps * MBPS)
    return pairs, demands


@given(st.integers(0, 40), _background, _asked, st.floats(0.0, 5.0), st.booleans())
# worlds where a solve in another order than start_flow's differs in the last
# bits: asked flows in two components, and asked flows beside an active one
@example(19, [("greedy", 3, 0, 1.0)] * 2, [(3, 0, None), (14, 3, None)], 0.0, False)
@example(7, [("greedy", 0, 198, 1.0)], [(0, 283, None), (67, 1203, None), (1942, 3, None),
                                        (2422, 0, None)], 0.0, False)
@settings(max_examples=80, deadline=None)
def test_rates_equal_those_start_flow_gives(seed, background, asked, warm_s, greedy):
    net = _world(seed, background, warm_s)
    pairs, demands = _pairs(net, asked)
    assume(pairs)
    if greedy:
        want = net.flows.what_if(pairs)
        demands = [math.inf] * len(pairs)
    else:
        want = net.flows.what_if(pairs, demands)
    started = [
        net.flows.start_flow(src, dst, demand_bps=d) for (src, dst), d in zip(pairs, demands)
    ]
    assert [f.rate_bps for f in started] == want


def _snapshot(net):
    """Everything ``what_if`` must leave as it was, as one string."""
    fm = net.flows
    return repr(
        (
            [
                (f.id, f.active, f.rate_bps, f.demand_bps, f.bytes_done,
                 f.bytes_remaining, f._last_settle, f._completion_timer)
                for f in fm.flows.values()
            ],
            [
                (ch, ch.rate_sum, ch.bytes_total, ch._last_sync)
                for ln in net.links
                for ch in ln.channels()
            ],
            fm.recomputes,
            fm._displaced,
            fm._epoch,
            sorted(fm._reach.items(), key=repr),
            {ch: list(members) for ch, members in fm._on_channel.items()},
            sorted((t, seq, ev.cancelled) for t, seq, ev in net.engine._queue),
            net.engine.now,
        )
    )


@pytest.mark.parametrize("seed", range(4))
def test_nothing_is_changed_or_recorded(seed):
    net = _world(seed, [("greedy", 0, 7, 1.0), ("cbr", 1, 8, 0.3), ("cbr", 9, 2, 0.6)])
    hosts = net.hosts()
    # finite transfers arm timers; a probe left running holds a displaced record
    net.flows.start_flow(hosts[2], hosts[7], total_bytes=5e6)
    net.engine.run_until(1.0)
    probe = net.flows.start_flow(hosts[0], hosts[7])
    assert net.flows._displaced is not None and net.engine._queue

    before = _snapshot(net)
    with obs.scoped_registry() as reg:
        net.flows.what_if([(hosts[0], hosts[7]), (hosts[3].name, hosts[10].name)])
        net.flows.what_if([(hosts[1], hosts[8])], [5 * MBPS])
    assert _snapshot(net) == before
    assert reg.metric_names() == set() and not reg.spans

    # the displaced record is still the probe's: its stop restores
    with obs.scoped_registry() as reg:
        net.flows.stop_flow(probe)
    assert "netsim.maxmin.rounds" not in reg.metric_names()


def test_bad_arguments_raise():
    net = _world(0, [])
    hosts = net.hosts()
    with pytest.raises(TopologyError):
        net.flows.what_if([(hosts[0], hosts[0])])
    with pytest.raises(ValueError):
        net.flows.what_if([(hosts[0], hosts[1])], [1.0, 2.0])
    with pytest.raises(ValueError):
        net.flows.what_if([(hosts[0], hosts[1])], [math.nan])
    assert net.flows.what_if([]) == []
