"""Fluid flows with max-min fair bandwidth sharing.

Traffic is modelled at flow granularity: each :class:`Flow` occupies a
fixed path of directed channels and receives a rate from the global
**max-min fair allocation** (progressive filling / water-filling) over
all active flows, honouring per-flow demand caps.  This is the standard
fluid approximation of many concurrent TCP flows and is what makes
octet counters exactly integrable: between allocation changes every
rate is constant.

The :class:`FlowManager` recomputes the allocation whenever a flow
starts, stops, or changes demand, synchronising all affected channel
counters first so the integral stays exact.  Max-min rates decouple
across sets of flows that share no channel, so a change re-solves only
the connected component of flows the changed one shares channels with
(found through a channel -> flows index); the result equals a global
solve.  Finite transfers (``total_bytes``) get completion events
scheduled on the engine and re-scheduled whenever their component is
re-solved.

A quiet stop restores instead of re-solving.  The manager keeps one
record: the rates the most recent ``start_flow`` displaced, and the
aggregates of the channels it changed.  Any reallocation drops it.  A
``stop_flow`` of that same flow while the record stands finds the world
as the start left it: the stop's component is the start's minus the
stopped flow, with the same demands and capacities, so the allocation
the start displaced is the answer.  The restore settles the bytes,
writes back the rates, syncs and writes back the channels the start
changed (exactly those differ) and re-arms finite-transfer timers, as a
re-solve does; it runs no solver.

A blocking probe (start, advance the clock, stop; ``Engine.advance``
dispatches no events) thus pays for one max-min solve and little else.
Each change reads the clock once and settles every component flow in
the pass that gathers its path and demand; timers are re-armed only
when the component holds a finite transfer.  A start also skips the
walk of the channel index when it can: the index has an epoch, which a
start or a stop replaces and a quiet stop puts back, so a start over a
path another start crossed at the same epoch finds the same component
(see ``FlowManager._start_component``).  The second start over such a
path also keeps the component's *plan* (:func:`_plan`: what a solve
derives from the paths alone) in that memo entry, so every later start
over it runs only the filling rounds (:func:`_fill`).  Demands move
between probe rounds; the shape of a component does not.

A capacity changes only through :meth:`FlowManager.set_link_capacity`,
which draws a fresh index epoch: a plan holds its constraints'
capacities, so no plan survives the change.

:meth:`FlowManager.what_if` answers "what rate would these flows get?"
for ground truth: it solves each component the asked flows would join
with :func:`_solve`, the unobserved inner solve that
:func:`max_min_allocation` wraps with its two observations, and
changes, starts and records nothing.

Progressive filling (Bertsekas & Gallager): grow all unfrozen flow
rates at one common level; the first constraint to bind is either a
flow's demand (freeze that flow) or a link's capacity (freeze every
unfrozen flow crossing it).  Repeat until all flows are frozen.

Only the tightest channel can bind: channels crossed by exactly the same
flows constrain those flows identically except for capacity, so
:func:`max_min_allocation` keeps the minimum-capacity channel of each
such group (:func:`_binding_channels`).  A probe over six hops of which
it shares one with cross traffic is a two-constraint problem, not a
six-constraint one.

:func:`max_min_allocation` solves in one pass: it groups the channels
(or takes the plan it is handed), returns the demands untouched when
every constraint has room for its members' demands (no filling round;
``netsim.maxmin.rounds`` observes 0), and otherwise runs progressive
filling over the constraints with their per-round state cached.
Either way the result is bit for bit what a scalar progressive-filling
loop gives on the reduced paths.
That loop, ``max_min_allocation_reference`` in
``tests/netsim/maxmin_reference.py``, is the tests' oracle: they hold
the solver to it, and feed it the *unreduced* paths as the oracle for
the reduction (agreement within 1e-9 across randomised path/demand
sets).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Protocol, Sequence

from repro import obs
from repro.common.errors import TopologyError
from repro.common.units import BITS_PER_BYTE
from repro.netsim.engine import Timer
from repro.netsim.paths import compute_path, peek_path

if TYPE_CHECKING:
    from repro.netsim.topology import Channel, Host, Link, Network

#: freeze threshold of the progressive-filling solver
_EPS = 1e-12
#: share of a constraint's capacity its member demands may sum to for
#: :func:`max_min_allocation` to return the demands without a filling
#: round
_FIT_SHARE = 1.0 - 1e-9


class CapacityLike(Protocol):
    """What the allocator needs from a constraint: a capacity.

    Satisfied by :class:`~repro.netsim.topology.Channel` (the fluid
    substrate) and by the Modeler's directed residual constraints
    (:class:`repro.modeler.maxmin._DirCap`).  The solver keys
    constraints by hash and equality, so both keep ``object``'s: two
    constraints are one only if they are the same object.
    """

    capacity_bps: float


class Flow:
    """One fluid flow: a path, a demand cap, and an allocated rate.

    ``demand_bps=inf`` models a greedy (TCP-saturating) flow;
    ``total_bytes`` turns it into a finite transfer whose completion
    fires ``on_complete(flow)``.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        src: "Host",
        dst: "Host",
        path: "list[Channel]",
        demand_bps: float = math.inf,
        total_bytes: float | None = None,
        on_complete: "Callable[[Flow], None] | None" = None,
        label: str = "",
    ) -> None:
        self.id = next(Flow._ids)
        self.src = src
        self.dst = dst
        self.path = path
        self.demand_bps = demand_bps
        self.total_bytes = total_bytes
        self.bytes_remaining = total_bytes
        self.on_complete = on_complete
        self.label = label or f"flow{self.id}"
        #: current max-min allocated rate (maintained by FlowManager)
        self.rate_bps = 0.0
        #: cumulative bytes actually delivered
        self.bytes_done = 0.0
        self.active = False
        self.start_time: float | None = None
        self.end_time: float | None = None
        self._completion_timer: Timer | None = None
        self._last_settle = 0.0

    def __repr__(self) -> str:
        return f"Flow({self.label}: {self.src.name}->{self.dst.name}, rate={self.rate_bps:.0f}bps)"


class _Displaced(NamedTuple):
    """The allocation a ``start_flow`` displaced, kept for its stop."""

    started: Flow
    #: the component's other flows ...
    flows: "list[Flow]"
    #: ... and their rates before the start
    rates: list[float]
    #: the channels whose aggregate the start changed, each with its
    #: ``rate_sum`` before it
    sums: "list[tuple[Channel, float]]"
    #: whether the component holds a finite transfer, whose completion
    #: timer a restore must re-arm
    finite: bool
    #: the index epoch the start found (see ``FlowManager._epoch``)
    epoch: int


class _Reach(NamedTuple):
    """What a start over a path found, kept for the next start over it
    at the same index epoch (see ``FlowManager._start_component``)."""

    #: the component, the started flow left out
    flows: "list[Flow]"
    channels: "tuple[Channel, ...]"
    #: the component's plan with the started flow last, kept by the
    #: first start that reuses this entry
    plan: "_Plan | None"


class FlowManager:
    """Owns the set of active flows and the max-min allocation."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.flows: dict[int, Flow] = {}
        #: max-min solves performed (diagnostics); a stop that restores
        #: what its start displaced solves nothing and is not counted
        self.recomputes = 0
        #: channel -> the active flows crossing it, keyed by flow id.
        #: Two flows can only affect each other's max-min rate through a
        #: chain of shared channels, so a change re-solves the connected
        #: component this index spans from the changed flow's path and
        #: nothing else: its cost scales with the traffic it can affect,
        #: not with the flows or the links the network holds.
        self._on_channel: "dict[Channel, dict[int, Flow]]" = {}
        #: what the most recent ``start_flow`` displaced.  Every
        #: ``_reallocate`` drops it, so while it stands nothing in the
        #: allocation has changed since that start.
        self._displaced: _Displaced | None = None
        #: names the state of ``_on_channel`` and of the capacities: a
        #: start, a stop or a capacity change draws a fresh value, and a
        #: quiet stop puts back the one its start found, since the index
        #: is then exactly as it was
        self._epoch = 0
        self._epochs = itertools.count(1)
        #: path -> what a start over it found (a probe mesh keeps one
        #: entry per path); every entry is of index epoch ``_reach_epoch``
        self._reach: "dict[tuple[Channel, ...], _Reach]" = {}
        self._reach_epoch = 0

    # -- public API ------------------------------------------------------

    def start_flow(
        self,
        src: "Host | str",
        dst: "Host | str",
        demand_bps: float = math.inf,
        total_bytes: float | None = None,
        on_complete: "Callable[[Flow], None] | None" = None,
        label: str = "",
    ) -> Flow:
        """Begin a flow now; the allocation is recomputed immediately."""
        if not demand_bps >= 0:  # NaN included
            raise ValueError(f"demand must be >= 0, got {demand_bps!r}")
        src, dst = self._endpoints(src, dst)
        path = compute_path(self.network, src, dst)
        now = self.network.now
        flow = Flow(src, dst, path, demand_bps, total_bytes, on_complete, label)
        flow.active = True
        flow.start_time = now
        flow._last_settle = now
        fid = flow.id
        self.flows[fid] = flow
        on_channel = self._on_channel
        for ch in path:
            members = on_channel.get(ch)
            if members is None:
                on_channel[ch] = {fid: flow}
            else:
                members[fid] = flow
        self._reallocate(path, now, started=flow)
        self._epoch = next(self._epochs)
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """End a flow now (idempotent)."""
        if not flow.active:
            return
        now = self.network.now
        _settle_to(flow, now)
        flow.active = False
        flow.end_time = now
        flow.rate_bps = 0.0
        if flow._completion_timer is not None:
            flow._completion_timer.cancel()
            flow._completion_timer = None
        fid = flow.id
        del self.flows[fid]
        on_channel = self._on_channel
        for ch in flow.path:
            members = on_channel.get(ch)
            if members is None:
                continue  # the path crosses this channel twice
            members.pop(fid, None)
            if not members:
                del on_channel[ch]
        displaced, self._displaced = self._displaced, None
        if displaced is not None and displaced.started is flow:
            self._epoch = displaced.epoch
            self._restore(displaced, now)
        else:
            self._epoch = next(self._epochs)
            self._reallocate(flow.path, now)

    def set_demand(self, flow: Flow, demand_bps: float) -> None:
        """Change a flow's demand cap; rates are re-balanced."""
        if not demand_bps >= 0:  # NaN included
            raise ValueError(f"demand must be >= 0, got {demand_bps!r}")
        if not flow.active:
            raise ValueError("flow is not active")
        now = self.network.now
        _settle_to(flow, now)
        flow.demand_bps = demand_bps
        self._reallocate(flow.path, now)

    def set_link_capacity(self, link: "Link", capacity_bps: float) -> None:
        """Give ``link`` and both its channels ``capacity_bps`` now.

        The channels' counters are synced first, the index epoch is
        replaced (no memoized component or plan outlives a capacity
        change) and the flows crossing the link are re-balanced.
        """
        now = self.network.now
        channels = link.channels()
        for ch in channels:
            ch.sync(now)
        link.capacity_bps = capacity_bps
        for ch in channels:
            ch.capacity_bps = capacity_bps
        self._epoch = next(self._epochs)
        self._reallocate(channels, now)

    def active_flows(self) -> list[Flow]:
        return list(self.flows.values())

    def flows_on(self, *channels: "Channel") -> list[Flow]:
        """Active flows crossing any of ``channels``, oldest first."""
        found: dict[int, Flow] = {}
        for ch in channels:
            found.update(self._on_channel.get(ch, {}))
        return [found[fid] for fid in sorted(found)]

    def what_if(
        self,
        pairs: "Iterable[tuple[Host | str, Host | str]]",
        demands: Sequence[float] | None = None,
    ) -> list[float]:
        """The rates ``start_flow`` would give flows between ``pairs``,
        started now in this order with ``demands`` (greedy by default).

        Nothing is started, mutated or observed: each connected
        component the asked flows join is solved as the last of their
        starts would solve it, the asked flows appended after the
        active ones in the order asked, so each rate equals, bit for
        bit, the one ``start_flow`` gives.
        """
        net = self.network
        paths: "list[Sequence[Channel]]" = []
        for src, dst in pairs:
            paths.append(peek_path(net, *self._endpoints(src, dst)))
        wants = [math.inf] * len(paths) if demands is None else list(demands)
        if len(wants) != len(paths):
            raise ValueError(f"{len(wants)} demands for {len(paths)} pairs")
        if not all(d >= 0 for d in wants):  # NaN included
            raise ValueError(f"demands must be >= 0, got {wants!r}")
        rates = [0.0] * len(paths)
        left = list(range(len(paths)))
        while left:
            group, left = left[:1], left[1:]
            while True:  # grow the group until no other asked path touches it
                flows, channels = self._component(ch for i in group for ch in paths[i])
                reached = set(channels)
                joined = [i for i in left if not reached.isdisjoint(paths[i])]
                if not joined:
                    break
                group = sorted(group + joined)
                left = [i for i in left if i not in joined]
            got, _, _ = _solve(
                [f.path for f in flows] + [paths[i] for i in group],
                [f.demand_bps for f in flows] + [wants[i] for i in group],
            )
            for i, r in zip(group, got[len(flows):]):
                rates[i] = r
        return rates

    def _endpoints(self, src: "Host | str", dst: "Host | str") -> "tuple[Host, Host]":
        net = self.network
        if isinstance(src, str):
            src = net.host(src)
        if isinstance(dst, str):
            dst = net.host(dst)
        if src is dst:
            raise TopologyError("flow endpoints must differ")
        return src, dst

    # -- allocation --------------------------------------------------------

    def _settle(self, flow: Flow) -> None:
        """Fold a flow's progress forward to `now` at its current rate."""
        if flow.start_time is not None:
            _settle_to(flow, self.network.now)

    def _component(
        self, seed: "Iterable[Channel]"
    ) -> "tuple[list[Flow], Iterable[Channel]]":
        """Flows reachable from the ``seed`` channels through shared
        channels, in flow-id order (the order a global solve would see
        them in), and every channel visited, seed included.  It reads
        the index and changes nothing."""
        on_channel = self._on_channel
        flows: dict[int, Flow] = {}
        channels: "dict[Channel, None]" = dict.fromkeys(seed)
        frontier = list(channels)
        while frontier:
            members = on_channel.get(frontier.pop())
            if members is None:
                continue
            for fid, flow in members.items():
                if fid in flows:
                    continue
                flows[fid] = flow
                for ch in flow.path:
                    if ch not in channels:
                        channels[ch] = None
                        frontier.append(ch)
        return [flows[fid] for fid in sorted(flows)], channels

    def _start_component(
        self, flow: Flow
    ) -> "tuple[list[Flow], Iterable[Channel], _Plan | None]":
        """The component of ``flow``, just started over an index of
        epoch ``_epoch`` plus itself, and its plan when one is kept.

        It is the component of its path on the index before the start,
        with the started flow, whose id is the highest, last.  So a
        start over the same path at the same epoch finds what an earlier
        one found: a probe repeated while the traffic it crosses
        neither started nor stopped walks the index once.  Its paths
        are then those of the earlier start too, so the first start
        that reuses the entry keeps their plan in it, and later ones
        run only the filling rounds.  A path started once at an epoch
        keeps no plan.
        """
        key = tuple(flow.path)
        if self._reach_epoch == self._epoch:
            known = self._reach.get(key)
            if known is not None:
                flows = known.flows + [flow]
                plan = known.plan
                if plan is None:
                    plan = _plan([f.path for f in flows])
                    self._reach[key] = known._replace(plan=plan)
                return flows, known.channels, plan
        else:
            self._reach.clear()
            self._reach_epoch = self._epoch
        flows, channels = self._component(flow.path)
        self._reach[key] = _Reach(flows[:-1], tuple(channels), None)
        return flows, channels, None

    def _reallocate(
        self, changed: "Iterable[Channel]", now: float, started: Flow | None = None
    ) -> None:
        """Recompute max-min fair rates around the ``changed`` channels.

        ``changed`` is the path of the flow that started, stopped or
        changed demand (or the channels of a link whose capacity
        changed), and
        ``now`` the clock the change happens at.  Only the connected
        component of flows sharing channels with it, transitively, is
        settled, re-solved and re-armed; max-min allocation decouples
        across channel-disjoint components, so every flow outside keeps
        the rate, the counters and the completion timer it has.  Each
        flow's progress is synchronised to `now` in the pass that
        gathers its path and demand, before any rate changes, so
        integrals remain exact, and a channel's counter is synced and
        written only when its aggregate rate actually changed.
        ``started`` is the flow whose start this is: the allocation it
        displaces is kept for its stop.
        """
        self.recomputes += 1
        self._displaced = None
        plan = None
        if started is None:
            flows, channels = self._component(changed)
        else:
            flows, channels, plan = self._start_component(started)
        obs.histogram("netsim.flows.realloc_flows").observe(len(flows))

        paths: "list[list[Channel]]" = []
        demands: list[float] = []
        finite = False
        for f in flows:
            if _settle_to(f, now):
                finite = True
            paths.append(f.path)
            demands.append(f.demand_bps)
        rates = max_min_allocation(paths, demands, plan)
        if not flows:
            # an empty solve observes nothing; keep one sample per recompute
            obs.histogram("netsim.maxmin.rounds").observe(0)

        # what a start displaces: the rates of the flows before it (it
        # comes last) and the aggregates the loop below changes
        before = [f.rate_bps for f in flows[:-1]] if started is not None else []
        # Apply new rates to flows and channel aggregates.  The
        # component is closed under channel sharing, so summing its
        # flows gives each visited channel's whole aggregate (zero for a
        # seed channel that just lost its last flow).
        per_channel: "dict[Channel, float]" = dict.fromkeys(channels, 0.0)
        for f, r in zip(flows, rates):
            f.rate_bps = r
            for ch in f.path:
                per_channel[ch] += r
        sums: "list[tuple[Channel, float]]" = []
        for ch, new_rate in per_channel.items():
            old = ch.rate_sum
            if old != new_rate:
                ch.sync(now)
                ch.rate_sum = new_rate
                sums.append((ch, old))
        obs.counter("netsim.flows.realloc_channels_touched").inc(len(sums))
        if started is not None:
            self._displaced = _Displaced(
                started, flows[:-1], before, sums, finite, self._epoch
            )
        if finite:
            self._rearm(flows)

    def _restore(self, displaced: _Displaced, now: float) -> None:
        """Put back the allocation a start displaced (see the module
        docstring): what re-solving the stop's component would give,
        without the solve.  Only the channels the start changed can
        differ from it, and each of them does."""
        for f, r in zip(displaced.flows, displaced.rates):
            _settle_to(f, now)
            f.rate_bps = r
        for ch, rate_sum in displaced.sums:
            ch.sync(now)
            ch.rate_sum = rate_sum
        obs.counter("netsim.flows.realloc_channels_touched").inc(len(displaced.sums))
        if displaced.finite:
            self._rearm(displaced.flows)

    def _rearm(self, flows: "list[Flow]") -> None:
        """Re-schedule completion events for finite transfers."""
        for f in flows:
            if f.bytes_remaining is None:
                continue
            if f._completion_timer is not None:
                f._completion_timer.cancel()
                f._completion_timer = None
            if f.bytes_remaining <= 0:
                self.network.engine.after(0.0, lambda f=f: self._complete(f))
            elif f.rate_bps > 0:
                eta = f.bytes_remaining * BITS_PER_BYTE / f.rate_bps
                f._completion_timer = self.network.engine.after(
                    eta, lambda f=f: self._complete(f)
                )

    def _complete(self, flow: Flow) -> None:
        if not flow.active:
            return
        self._settle(flow)
        if flow.bytes_remaining is not None and flow.bytes_remaining > 1e-6:
            return  # a reallocation slowed it down; a newer timer exists
        cb = flow.on_complete
        self.stop_flow(flow)
        if cb is not None:
            cb(flow)


def _settle_to(flow: Flow, now: float) -> bool:
    """Fold a started flow's progress forward to ``now`` at its current
    rate.  True when it is a finite transfer (a completion to re-arm)."""
    remaining = flow.bytes_remaining
    last = flow._last_settle
    if now > last:
        moved = flow.rate_bps * (now - last) / BITS_PER_BYTE
        flow.bytes_done += moved
        if remaining is not None:
            flow.bytes_remaining = max(0.0, remaining - moved)
    flow._last_settle = now
    return remaining is not None


def max_min_allocation(
    paths: "Sequence[Sequence[CapacityLike]]",
    demands: Sequence[float],
    plan: "_Plan | None" = None,
) -> list[float]:
    """Max-min fair rates for flows over shared channels (see
    :func:`_fill`), recorded: a non-empty solve observes
    ``netsim.maxmin.constraints`` and ``netsim.maxmin.rounds`` once
    each, an empty one nothing.  ``plan``, when given, is what
    :func:`_plan` derived from these same paths at the capacities they
    have now; only the filling rounds run."""
    rates, constraints, rounds = _fill(_plan(paths) if plan is None else plan, demands)
    if rates:
        obs.histogram("netsim.maxmin.constraints").observe(constraints)
        obs.histogram("netsim.maxmin.rounds").observe(rounds)
    return rates


def _solve(
    paths: "Sequence[Sequence[CapacityLike]]", demands: Sequence[float]
) -> tuple[list[float], int, int]:
    """Max-min fair rates for flows over shared channels, unobserved:
    the rates, the constraints handed to the filling and the filling
    rounds run.  The plan of the paths, then its filling rounds."""
    return _fill(_plan(paths), demands)


class _Plan(NamedTuple):
    """What a solve derives from the paths alone: the constraints that
    can bind (:func:`_binding_channels`), as capacities and member
    lists, and the constraints each flow crosses.  It holds for any
    demands, and for as long as no constraint's capacity changes."""

    caps: list[float]
    #: per constraint, the flows crossing it (a flow crossing twice
    #: is listed twice)
    members: list[list[int]]
    #: per flow, the constraints it crosses: none only for a
    #: zero-length path (src == dst within one node), since every
    #: channel a flow crosses leaves a constraint the flow is a member of
    crosses: list[list[int]]


def _plan(paths: "Sequence[Sequence[CapacityLike]]") -> _Plan:
    """The plan of ``paths`` at their channels' current capacities."""
    constraints = _binding_channels(paths)
    members = [m for _, m in constraints]
    crosses: list[list[int]] = [[] for _ in paths]
    for k, m in enumerate(members):
        for i in m:
            crosses[i].append(k)
    return _Plan([ch.capacity_bps for ch, _ in constraints], members, crosses)


def _fill(plan: _Plan, demands: Sequence[float]) -> tuple[list[float], int, int]:
    """Progressive filling over a plan's constraints, unobserved: the
    rates, the constraints and the filling rounds run.

    Each constraint carries its active count between rounds (an
    integer, decremented as members freeze) and its frozen load, which
    is summed again, with the same builtin ``sum`` over the same member
    order, only when one of its members has frozen.  So every float
    operation is one the tests' scalar oracle
    (``tests/netsim/maxmin_reference.py``) performs on the reduced
    paths, in its order, and the result equals it bit for bit — on
    Python 3.12 too, whose float ``sum`` is compensated.  Zero-length
    paths get their full demand.  The plan is read, never changed.

    **When the demands fit, they are the answer.**  If every demand is
    finite and non-negative and each constraint's member demands sum to
    at most ``_FIT_SHARE`` (1 - 1e-9) of its capacity, the demands are
    returned without a filling round.  Progressive filling would freeze
    every flow at exactly ``rates[i] = demands[i]``: at any level ``L``
    a constraint's unfrozen members each demand more than ``L + _EPS``,
    so its headroom ``(cap - frozen_load - L * active) / active``
    exceeds ``_EPS`` by about ``1e-9 * cap / active``, far above the
    rounding of the sums it is made of.  No capacity ever saturates and
    the next level is always the smallest unfrozen demand, where that
    flow freezes by its demand rule, at its demand.  The level reaches a
    demand ``d`` in one round, or in two when ``L + (d - L)`` rounds
    below ``d`` by more than ``_EPS`` (the second difference is exact,
    by Sterbenz's lemma).  The round budget, like the reference's, allows
    two rounds per flow plus one per constraint, so filling never stops
    short of the demands the shortcut returns.
    """
    caps, members, crosses = plan
    if all(0.0 <= d < math.inf for d in demands) and all(
        sum([demands[i] for i in m]) <= _FIT_SHARE * cap for cap, m in zip(caps, members)
    ):
        return list(demands), len(caps), 0

    n = len(demands)
    rates = [0.0] * n
    frozen = [False] * n
    unfrozen: list[int] = []
    for i, crossed in enumerate(crosses):
        if crossed:
            unfrozen.append(i)
        else:
            rates[i] = demands[i] if math.isfinite(demands[i]) else math.inf
            frozen[i] = True
    # Per constraint: its unfrozen members (a flow crossing twice counts
    # twice), kept exact by decrementing; and the sum of its frozen
    # members' rates, taken again only when a member has frozen since.
    active = [len(m) for m in members]
    load = [0.0] * len(members)
    stale = [False] * len(members)
    ks = range(len(members))

    level = 0.0
    rounds = 0
    budget = 2 * n + len(caps) + 1  # filling rounds, as the reference allows
    for _ in range(budget):
        if not unfrozen:
            break
        rounds += 1
        # Next demand bind.
        delta_demand = math.inf
        for i in unfrozen:
            d = demands[i] - level
            if d < delta_demand:
                delta_demand = d
        # Next capacity bind.
        delta_cap = math.inf
        for k in ks:
            a = active[k]
            if a:
                if stale[k]:
                    load[k] = sum([rates[i] for i in members[k] if frozen[i]])
                    stale[k] = False
                d = (caps[k] - load[k] - level * a) / a
                if d < delta_cap:
                    delta_cap = d
        delta = min(delta_demand, delta_cap)
        if not math.isfinite(delta):
            # Only infinite demands remain and no capacity binds: the
            # paths must be capacity-free (impossible for real links).
            for i in unfrozen:
                rates[i] = math.inf
            unfrozen = []
            break
        delta = max(delta, 0.0)
        level += delta
        # Freeze at binding constraints.
        for i in unfrozen:
            if demands[i] - level <= _EPS:
                rates[i] = demands[i]
                frozen[i] = True
                for k in crosses[i]:
                    active[k] -= 1
                    stale[k] = True
        for k in ks:
            a = active[k]
            if a:
                if stale[k]:
                    load[k] = sum([rates[i] for i in members[k] if frozen[i]])
                    stale[k] = False
                if (caps[k] - load[k] - level * a) / a <= _EPS:
                    for i in members[k]:
                        if not frozen[i]:
                            rates[i] = level
                            frozen[i] = True
                            for j in crosses[i]:
                                active[j] -= 1
                                stale[j] = True
        unfrozen = [i for i in unfrozen if not frozen[i]]
    for i in unfrozen:
        rates[i] = min(level, demands[i])
    return rates, len(caps), rounds


def _binding_channels(
    paths: "Sequence[Sequence[CapacityLike]]",
) -> "list[tuple[CapacityLike, list[int]]]":
    """The channels of ``paths`` that can bind, each with the indices of
    the flows crossing it, in first-appearance order.

    Two channels crossed by the same list of flow indices (a path
    crossing a channel twice lists its flow twice, so it is its own
    list) see the same active count and the same frozen load in every
    round of progressive filling; they differ only in capacity.  The
    headroom ``(cap - frozen_load - level * n) / n`` is monotone in
    ``cap`` under IEEE rounding, so the looser channel never sets the
    next water level, and it can pass the saturation test only when the
    tighter one does — which freezes the same flows at the same level.
    Of each such group only the minimum-capacity channel is kept (the
    first of equals), at the place it first appears in ``paths``: the
    order in which the reference solver, handed the paths cut to these
    channels, would meet them.

    The reference tests channels one after another within a round, so
    two equal-capacity channels of a group can meet different roundings
    of the same load; the reduction is therefore held to the solver's
    own 1e-9 against the oracle on unreduced paths, and to bit-equality
    on whole simulated worlds (``tests/netsim``,
    ``tests/integration/test_sim_clock_golden.py``).
    """
    crossed: "dict[CapacityLike, list[int]]" = {}
    for i, path in enumerate(paths):
        for ch in path:
            members = crossed.get(ch)
            if members is None:
                crossed[ch] = [i]
            else:
                members.append(i)
    tightest: "dict[tuple[int, ...], CapacityLike]" = {}
    for ch, members in crossed.items():
        key = tuple(members)
        best = tightest.get(key)
        if best is None or ch.capacity_bps < best.capacity_bps:
            tightest[key] = ch
    if len(tightest) == len(crossed):
        return list(crossed.items())
    keep = set(tightest.values())
    return [(ch, members) for ch, members in crossed.items() if ch in keep]
