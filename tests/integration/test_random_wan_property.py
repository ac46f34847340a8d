"""Property tests: Remos answers match fluid reality on random WANs.

Two worlds.  The star test asks one flow on a 2–5-site star with
background only in the reverse direction.  The random-WAN tests ask
k = 1–8 flows on a 16-site ``build_random_wan`` world whose greedy and
CBR background runs in the forward direction too, and take truth from
``FlowManager.what_if``: the rates the asked flows would get if they
were started now, with nothing started.  Each asked flow is a cell.

- No cell over-promises by more than ``OVER_PROMISE`` (10 %).
- A cell is within ``TOLERANCE`` (1 %) of truth when starting the asked
  flows would slow no background flow.  An answer is the residual with
  the measured load held fixed (ROADMAP item 3); where a background
  flow would yield its share to the new one, truth is more than the
  residual by any amount.  A saturated edge on the path is one such
  case, but not the only one: a greedy flow held back by an edge
  elsewhere yields on a shared edge below saturation too (an access
  link at 57 % load under-promised by 3 %, one at 94 % by a third).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_random_wan


@st.composite
def _wan_spec(draw):
    n_sites = draw(st.integers(2, 5))
    caps = [
        draw(st.floats(0.2, 50.0)) * MBPS  # access capacities, Mbps
        for _ in range(n_sites)
    ]
    src = draw(st.integers(0, n_sites - 1))
    dst = draw(st.integers(0, n_sites - 1).filter(lambda d: d != src))
    bg_demand = draw(st.floats(0.0, 10.0)) * MBPS
    return caps, src, dst, bg_demand


class TestRandomWan:
    @given(_wan_spec())
    @settings(max_examples=25, deadline=None)
    def test_flow_answer_matches_reality(self, spec):
        caps, src_i, dst_i, bg_demand = spec
        sites = [
            SiteSpec(f"s{i}", access_bps=cap, n_hosts=3)
            for i, cap in enumerate(caps)
        ]
        w = build_multisite_wan(sites)
        dep = deploy_wan(
            w,
            bench_config=BenchmarkConfig(probe_bytes=50_000, max_probe_s=10.0),
        )
        src, dst = f"s{src_i}", f"s{dst_i}"
        # background traffic in the opposite direction: must not affect
        # the measured forward bandwidth (full duplex links)
        if bg_demand > 0:
            w.net.flows.start_flow(
                w.host(dst, 1), w.host(src, 1), demand_bps=bg_demand
            )
            w.net.engine.run_until(w.net.now + 5.0)
        ans = dep.session().flow_info(w.host(src, 0), w.host(dst, 0))
        actual = w.net.flows.start_flow(w.host(src, 0), w.host(dst, 0))
        # prediction within 10% of ground truth, and never an
        # over-promise beyond measurement noise
        assert ans.available_bps == pytest.approx(actual.rate_bps, rel=0.1)
        assert ans.available_bps <= actual.rate_bps * 1.1
        # the answer is bottlenecked by the slower access link
        expected = min(caps[src_i], caps[dst_i])
        assert actual.rate_bps == pytest.approx(expected, rel=0.01)


N_SITES = 16
#: an answer may exceed truth by this share, and no more
OVER_PROMISE = 0.10
#: an answer whose flows would slow no background flow is within this of truth
TOLERANCE = 0.01

_pick = st.integers(0, 10_000)
#: background flows: (greedy?, src site, dst site, src host, dst host, CBR Mb/s)
_background = st.lists(
    st.tuples(st.booleans(), _pick, _pick, _pick, _pick, st.floats(0.5, 20.0)),
    min_size=1,
    max_size=6,
)
#: asked pairs: (src site, dst site, src host, dst host)
_asked = st.lists(st.tuples(_pick, _pick, _pick, _pick), min_size=1, max_size=8)


def _host_pair(world, sites, a, b, ha, hb):
    """Hosts at two different sites, neither the site's benchmark endpoint
    (its last host, which ``deploy_wan`` gives the collector)."""
    src_site = sites[a % len(sites)]
    dst_site = sites[(a + 1 + b % (len(sites) - 1)) % len(sites)]
    src_hosts = world.sites[src_site].hosts[:-1]
    dst_hosts = world.sites[dst_site].hosts[:-1]
    return src_hosts[ha % len(src_hosts)], dst_hosts[hb % len(dst_hosts)]


def _cells(seed, background, asked, together):
    """(status, answer, truth, displaces) per asked flow on a deployed
    16-site world after a 30 s warm-up under ``background``.

    The flows are asked in one ``flow_info_many`` and judged against one
    ``what_if`` when ``together``, otherwise each alone.  ``displaces``:
    starting the flows asked with this one slows a background flow.  The
    started flows are stopped before the next question.
    """
    world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3))
    dep = deploy_wan(world, bench_config=BenchmarkConfig(probe_bytes=50_000, max_probe_s=10.0))
    net, sites = world.net, sorted(world.sites)
    flows = []
    for greedy, a, b, ha, hb, mbps in background:
        src, dst = _host_pair(world, sites, a, b, ha, hb)
        flows.append(net.flows.start_flow(src, dst, demand_bps=math.inf if greedy else mbps * MBPS))
    net.engine.run_until(net.now + 30.0)
    pairs = [_host_pair(world, sites, *pick) for pick in asked]
    session = dep.session()
    cells = []
    for group in [pairs] if together else [[pair] for pair in pairs]:
        answers = session.flow_info_many([(str(s.ip), str(d.ip)) for s, d in group])
        truths = net.flows.what_if(group)
        before = [f.rate_bps for f in flows]
        started = [net.flows.start_flow(s, d) for s, d in group]
        displaces = any(f.rate_bps < rate for f, rate in zip(flows, before))
        for f in reversed(started):
            net.flows.stop_flow(f)
        cells += [(a.status, a.available_bps, t, displaces) for a, t in zip(answers, truths)]
    return cells


def _check(cells):
    for status, answer, truth, displaces in cells:
        assert status is QueryStatus.OK
        assert answer <= truth * (1 + OVER_PROMISE)
        if not displaces:
            assert answer == pytest.approx(truth, rel=TOLERANCE)


class TestRandomWanManyFlows:
    @given(st.integers(0, 10_000), _background, _asked)
    @settings(max_examples=60, deadline=None)
    def test_each_of_k_flows_matches_what_if(self, seed, background, asked):
        """Each of k flows asked alone against the rate it alone would get."""
        _check(_cells(seed, background, asked, together=False))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "flow_info_many over-promises when asked flows share a site's "
            "access link but not a site pair: the Modeler's WAN graph holds "
            "one benchmark edge per site pair, so its joint max-min never "
            "sees the access link they share (ROADMAP item 9)"
        ),
    )
    def test_k_flows_asked_together_match_what_if(self):
        """k flows asked together against the rates they would get together.

        Over these 32 worlds 6 of 144 cells over-promise, by up to 2x
        (worlds 14, 23 and 29), and every cell that displaces nothing is
        within tolerance."""
        for seed in range(32):
            k = 1 + seed % 8
            background = [(j % 2 == 0, seed + 3 * j, 7 * j + 1, j, seed, 0.5 + j) for j in range(4)]
            asked = [(seed * 5 + 2 * i, i + seed, i, seed + i) for i in range(k)]
            _check(_cells(seed, background, asked, together=True))
