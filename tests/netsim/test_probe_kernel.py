"""Pins on the fluid kernel's hot path: what a blocking probe records, and
that the start's component memo changes nothing.

A blocking bulk probe starts a flow, advances the clock and stops it.
Its start is one reallocation: it observes ``netsim.maxmin.rounds``,
``netsim.maxmin.constraints`` and ``netsim.flows.realloc_flows`` once
each and adds one to ``FlowManager.recomputes``.  Its stop is quiet: it
restores what the start displaced and observes none of the three.  The
e2e harness counts ``netsim.maxmin.rounds`` observations as
``netsim.flows.recomputes_per_sim_s``, so these pins keep that figure
where the kernel's trims found it.

A start over a path that an earlier start crossed, with no flow started
or stopped since (a quiet stop puts the index back), reuses the
component that start found, and from the second such start on, its
plan: only the filling rounds run.  Twin worlds whose every start walks
the channel index, or derives its plan afresh, must agree with the
memoizing one bit for bit after every step of generated traffic
scripts; a capacity change must leave no plan to reuse; and probe
rounds among topology changes, faults and traffic must leave no probe
flow, no stale restore record and no memo entry a walk would not find.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.flows as flows_mod
from repro import obs
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig
from repro.common.errors import TopologyError
from repro.common.units import MBPS
from repro.faults import degrade_link
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_random_wan
from repro.netsim.failures import fail_link, repair_link
from repro.netsim.flows import FlowManager, _plan
from repro.netsim.mobility import rehome_host
from repro.netsim.paths import peek_path

PINNED = ("netsim.maxmin.rounds", "netsim.maxmin.constraints", "netsim.flows.realloc_flows")


def _observed(fn):
    """Observations of each pinned histogram while ``fn`` runs."""
    with obs.scoped_registry() as reg:
        fn()
        hists = obs.export.snapshot(reg)["histograms"]
    return {name: hists.get(name, {"count": 0})["count"] for name in PINNED}


@pytest.fixture
def shared():
    """Two sites; site a's access link carries cross traffic that the
    probe from a's benchmark host must share."""
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=50 * MBPS, n_hosts=3),
        ]
    )
    w.net.flows.start_flow(w.host("a", 0), w.host("b", 0), demand_bps=3 * MBPS)
    w.net.flows.start_flow(w.host("a", 1), w.host("b", 1))
    a = BenchmarkCollector("a", w.net, w.host("a", 2), BenchmarkConfig(probe_bytes=250_000))
    a.add_peer(BenchmarkCollector("b", w.net, w.host("b", 2)))
    return w, a


def test_a_blocking_probe_observes_one_solve(shared):
    w, a = shared
    fm = w.net.flows
    before = fm.recomputes
    seen = _observed(lambda: a.probe("b"))
    assert seen == dict.fromkeys(PINNED, 1)
    assert fm.recomputes == before + 1
    assert fm.active_flows() and len(fm.active_flows()) == 2


def test_its_quiet_stop_observes_nothing(shared):
    w, _ = shared
    fm = w.net.flows
    flow = fm.start_flow(w.host("a", 2), w.host("b", 2))
    assert flow.rate_bps < 10 * MBPS  # it shares a's access link
    w.net.engine.advance(0.2)
    before = fm.recomputes
    assert _observed(lambda: fm.stop_flow(flow)) == dict.fromkeys(PINNED, 0)
    assert fm.recomputes == before


# -- the component memo ----------------------------------------------------


class _WalkingFlowManager(FlowManager):
    """The twin: every start walks the channel index."""

    def _start_component(self, flow):
        return (*self._component(flow.path), None)


class _PlanlessFlowManager(FlowManager):
    """The plan twin: every start reuses components as shipped, but
    derives its plan afresh from the paths and capacities it meets."""

    def _start_component(self, flow):
        flows, channels, _ = super()._start_component(flow)
        return flows, channels, None


N_SITES = 5

#: one step: (kind, a, b, x); few hosts, so that probes repeat their paths
_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["greedy", "cbr", "finite", "probe", "probe", "probe", "open", "stop",
             "demand", "degrade", "advance"]
        ),
        st.integers(0, 7),
        st.integers(0, 7),
        st.floats(0.05, 1.0),
    ),
    min_size=1,
    max_size=30,
)


def _state(net, flows):
    def eta(f):
        timer = f._completion_timer
        return None if timer is None else timer._event.time

    return (
        [
            (f.active, f.rate_bps, f.bytes_done, f.bytes_remaining, f._last_settle, eta(f))
            for f in flows
        ],
        [(ch.rate_sum, ch.bytes_total, ch._last_sync) for ln in net.links for ch in ln.channels()],
        net.flows.recomputes,
        sorted((t, seq) for t, seq, ev in net.engine._queue if not ev.cancelled),
    )


def _step(net, flows, kind, a, b, x):
    hosts = net.hosts()
    src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
    fm = net.flows
    live = [f for f in flows if f.active]
    if kind in ("greedy", "cbr", "finite", "probe", "open") and src is dst:
        return
    if kind == "greedy":
        flows.append(fm.start_flow(src, dst))
    elif kind == "cbr":
        flows.append(fm.start_flow(src, dst, demand_bps=x * 20 * MBPS))
    elif kind == "finite":
        flows.append(fm.start_flow(src, dst, total_bytes=x * 40e6))
    elif kind in ("probe", "open"):
        flow = fm.start_flow(src, dst)
        flows.append(flow)
        net.engine.advance(x)
        if kind == "probe":
            fm.stop_flow(flow)
    elif kind == "stop" and live:
        fm.stop_flow(live[a % len(live)])
    elif kind == "demand" and live:
        fm.set_demand(live[a % len(live)], x * 30 * MBPS)
    elif kind == "degrade":
        degrade_link(net, net.links[a % len(net.links)], 0.5 + 0.5 * x)
    elif kind == "squeeze" and src is not dst:  # degrade the tightest link from a to b
        path = peek_path(net, src, dst)
        degrade_link(net, min(path, key=lambda ch: ch.capacity_bps).link, 0.5 + 0.5 * x)
    elif kind == "advance":
        net.engine.run_until(net.now + 5 * x)


def _agree_with(twin_cls, seed, steps):
    """Run ``steps`` in a shipped world and in a ``twin_cls`` one; every
    step must leave both in the same state, bit for bit."""

    def build():
        return build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3)).net

    net, twin = build(), build()
    twin.flows = twin_cls(twin)
    mine, theirs = [], []
    for kind, a, b, x in steps:
        _step(net, mine, kind, a, b, x)
        _step(twin, theirs, kind, a, b, x)
        assert _state(net, mine) == _state(twin, theirs)


@given(st.integers(0, 30), _steps)
@settings(max_examples=60, deadline=None)
def test_the_memo_changes_nothing(seed, steps):
    _agree_with(_WalkingFlowManager, seed, steps)


#: as ``_steps``, with probes repeated over few paths and capacity
#: changes on the links they cross
_plan_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["greedy", "cbr", "probe", "probe", "probe", "probe", "stop", "demand",
             "degrade", "squeeze", "squeeze", "advance"]
        ),
        st.integers(0, 1),
        st.integers(4, 5),
        st.floats(0.05, 1.0),
    ),
    min_size=1,
    max_size=30,
)


@given(st.integers(0, 30), st.one_of(_steps, _plan_steps))
@settings(max_examples=60, deadline=None)
def test_the_plan_memo_changes_nothing(seed, steps):
    _agree_with(_PlanlessFlowManager, seed, steps)


#: scripts whose index changes between two probes over one path
_INDEX_CHANGES = [
    # the probe's component loses a flow between two probes
    [("open", 0, 5, 0.3), ("probe", 0, 6, 0.2), ("stop", 0, 0, 0.0), ("probe", 0, 6, 0.2)],
    [("greedy", 0, 5, 0.3), ("probe", 0, 6, 0.2), ("stop", 0, 0, 0.0), ("probe", 0, 6, 0.2)],
    # ... or gains one
    [("probe", 0, 6, 0.2), ("cbr", 0, 5, 0.3), ("probe", 0, 6, 0.2)],
    [("probe", 0, 6, 0.2), ("open", 0, 5, 0.3), ("probe", 0, 6, 0.2)],
    # a finite transfer completes in between
    [("finite", 0, 5, 0.01), ("probe", 0, 6, 0.2), ("advance", 0, 0, 1.0), ("probe", 0, 6, 0.2)],
]


@pytest.mark.parametrize("script", _INDEX_CHANGES)
def test_the_memo_follows_the_index(script):
    _agree_with(_WalkingFlowManager, 2, script)


@pytest.mark.parametrize("script", _INDEX_CHANGES)
def test_the_plan_memo_follows_the_index(script):
    # each probe is run three times, so the second probe over the path
    # keeps a plan and the third fills it
    _agree_with(_PlanlessFlowManager, 2, [s for s in script for _ in range(3)])


def test_a_degrade_between_probes_re_derives_the_plan_once(shared, monkeypatch):
    w, a = shared
    fm = w.net.flows
    derived = []
    monkeypatch.setattr(flows_mod, "_plan", lambda paths: derived.append(1) or _plan(paths))
    path = tuple(peek_path(w.net, w.host("a", 2), w.host("b", 2)))
    access = min({ch.link for ch in path}, key=lambda ln: ln.capacity_bps)

    def probe():
        derived.clear()
        a.probe("b")
        return len(derived)

    # the first start solves from scratch, the second keeps the plan,
    # the third only fills it
    assert [probe(), probe(), probe()] == [1, 1, 0]
    kept = fm._reach[path].plan
    degrade_link(w.net, access, 0.5)
    assert [probe(), probe(), probe()] == [1, 1, 0]
    # a new plan, kept once, at the new capacity
    entry = fm._reach[path]
    assert entry.plan is not kept
    assert entry.plan == _plan([f.path for f in entry.flows] + [list(path)])
    assert min(entry.plan.caps) == access.capacity_bps == 5 * MBPS


# -- probe rounds among topology changes, faults and traffic ---------------

#: one step: (kind, a, b, x)
_world_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["round", "round", "round", "round", "start", "stop", "fail", "repair",
             "rehome", "degrade", "degrade", "advance"]
        ),
        st.integers(0, 63),
        st.integers(0, 63),
        st.floats(0.05, 1.0),
    ),
    min_size=1,
    max_size=25,
)


def _memo_holds(fm):
    """No probe flow is left, a restore record belongs to a live start,
    and each memo entry that a start could read is what a walk of the
    index finds now, with the plan those paths have now."""
    assert not [f for f in fm.flows.values() if f.label.startswith("bench:")]
    assert fm._displaced is None or fm._displaced.started.active
    if fm._reach_epoch != fm._epoch:
        return  # the next start drops every entry unread
    for key, entry in fm._reach.items():
        flows, channels = fm._component(key)
        assert entry.flows == flows and set(entry.channels) == set(channels)
        if entry.plan is not None:
            assert entry.plan == _plan([f.path for f in flows] + [list(key)])


@given(st.integers(0, 30), _world_steps)
@settings(max_examples=40, deadline=None)
def test_probe_rounds_among_changes_leave_a_true_memo(seed, steps):
    world = build_random_wan(N_SITES, seed=seed, hosts_per_site=(2, 3), multi_switch_fraction=1.0)
    net = world.net
    fm = net.flows
    sites = sorted(world.sites)
    benches = [
        BenchmarkCollector(s, net, world.host(s, 0), BenchmarkConfig(probe_bytes=200_000))
        for s in sites
    ]
    for b in benches:
        for peer in benches:
            if peer is not b:
                b.add_peer(peer)
    nominal = {ln: ln.capacity_bps for ln in net.links}
    failed = []
    for kind, a, b, x in steps:
        hosts = net.hosts()
        live = fm.active_flows()
        try:
            if kind == "round":  # two collectors, so that rounds repeat
                benches[a % 2].probe_all()
            elif kind == "start":
                src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
                if src is not dst:
                    fm.start_flow(src, dst, demand_bps=x * 20 * MBPS if b % 2 else float("inf"))
            elif kind == "stop" and live:
                fm.stop_flow(live[a % len(live)])
            elif kind == "fail":
                link = net.links[a % len(net.links)]
                fail_link(net, link)
                failed.append(link)
            elif kind == "repair" and failed:
                repair_link(net, failed.pop(a % len(failed)))
            elif kind == "rehome":
                name = sites[a % len(sites)]
                host = world.sites[name].hosts[b % len(world.sites[name].hosts)]
                switches = [world.extras[name].leaf_switch, net.node(f"{name}-sw")]
                rehome_host(net, host, switches[b % 2])
            elif kind == "degrade":  # a link the first two collectors' probes cross
                src, dst = world.host(sites[a % 2], 0), world.host(sites[b % len(sites)], 0)
                path = peek_path(net, src, dst) if src is not dst else net.links[0].channels()
                link = min(path, key=lambda ch: ch.capacity_bps).link  # it binds the probe
                degrade_link(net, link, 0.5 + 0.5 * x, duration_s=20 * x)
            elif kind == "advance":
                net.engine.run_until(net.now + 10 * x)
        except TopologyError:
            pass  # a move or a flow the changed topology does not allow
        _memo_holds(fm)
    # every degradation was timed: once they have all ended, each link
    # the world began with is back at its own capacity
    net.engine.run_until(net.now + 30.0)
    assert {ln: ln.capacity_bps for ln in nominal} == nominal


def test_a_repeated_probe_round_walks_the_index_once_per_path():
    net = build_random_wan(N_SITES, seed=4, hosts_per_site=(2, 3)).net
    hosts = net.hosts()
    for i in range(0, len(hosts) - 1, 2):
        net.flows.start_flow(hosts[i], hosts[i + 1], demand_bps=2 * MBPS)
    walks = []
    walk = net.flows._component
    net.flows._component = lambda seed: walks.append(1) or walk(seed)
    pairs = [(hosts[0], h) for h in hosts[3:9]]

    def probe_round():
        for src, dst in pairs:
            flow = net.flows.start_flow(src, dst)
            net.engine.advance(0.5)
            net.flows.stop_flow(flow)

    probe_round()
    assert len(walks) == len(pairs)
    net.engine.run_until(net.now + 30.0)  # cross traffic keeps running
    probe_round()
    assert len(walks) == len(pairs), "a start at an unchanged index walked it again"
    net.flows.start_flow(hosts[1], hosts[2])  # a walk, and a new epoch
    probe_round()
    assert len(walks) == 2 * len(pairs) + 1
