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

:func:`max_min_allocation` solves in one pass: it groups the channels,
returns the demands untouched when every constraint has room for its
members' demands (no filling round; ``netsim.maxmin.rounds`` observes
0), and otherwise runs progressive filling over the constraints with
their per-round state cached.  Either way the result is bit for bit
what the scalar loop :func:`max_min_allocation_reference` gives on the
reduced paths; tests hold it to that, and feed the reference the
*unreduced* paths as the oracle for the reduction (agreement within
1e-9 across randomised path/demand sets).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from repro import obs
from repro.common.errors import TopologyError
from repro.common.units import BITS_PER_BYTE
from repro.netsim.engine import Timer

if TYPE_CHECKING:
    from repro.netsim.topology import Channel, Host, Network

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


class FlowManager:
    """Owns the set of active flows and the max-min allocation."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.flows: dict[int, Flow] = {}
        #: allocation recomputations performed (diagnostics)
        self.recomputes = 0
        #: channel -> the active flows crossing it, keyed by flow id.
        #: Two flows can only affect each other's max-min rate through a
        #: chain of shared channels, so a change re-solves the connected
        #: component this index spans from the changed flow's path and
        #: nothing else: its cost scales with the traffic it can affect,
        #: not with the flows or the links the network holds.
        self._on_channel: "dict[Channel, dict[int, Flow]]" = {}

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
        from repro.netsim.paths import compute_path

        if not demand_bps >= 0:  # NaN included
            raise ValueError(f"demand must be >= 0, got {demand_bps!r}")
        net = self.network
        if isinstance(src, str):
            src = net.host(src)
        if isinstance(dst, str):
            dst = net.host(dst)
        if src is dst:
            raise TopologyError("flow endpoints must differ")
        path = compute_path(net, src, dst)
        flow = Flow(src, dst, path, demand_bps, total_bytes, on_complete, label)
        flow.active = True
        flow.start_time = net.now
        flow._last_settle = net.now
        self.flows[flow.id] = flow
        for ch in path:
            self._on_channel.setdefault(ch, {})[flow.id] = flow
        self._reallocate(path)
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """End a flow now (idempotent)."""
        if not flow.active:
            return
        self._settle(flow)
        flow.active = False
        flow.end_time = self.network.now
        flow.rate_bps = 0.0
        if flow._completion_timer is not None:
            flow._completion_timer.cancel()
            flow._completion_timer = None
        del self.flows[flow.id]
        for ch in flow.path:
            members = self._on_channel.get(ch)
            if members is None:
                continue  # the path crosses this channel twice
            members.pop(flow.id, None)
            if not members:
                del self._on_channel[ch]
        self._reallocate(flow.path)

    def set_demand(self, flow: Flow, demand_bps: float) -> None:
        """Change a flow's demand cap; rates are re-balanced."""
        if not demand_bps >= 0:  # NaN included
            raise ValueError(f"demand must be >= 0, got {demand_bps!r}")
        if not flow.active:
            raise ValueError("flow is not active")
        self._settle(flow)
        flow.demand_bps = demand_bps
        self._reallocate(flow.path)

    def active_flows(self) -> list[Flow]:
        return list(self.flows.values())

    def flows_on(self, *channels: "Channel") -> list[Flow]:
        """Active flows crossing any of ``channels``, oldest first."""
        found: dict[int, Flow] = {}
        for ch in channels:
            found.update(self._on_channel.get(ch, {}))
        return [found[fid] for fid in sorted(found)]

    # -- allocation --------------------------------------------------------

    def _settle(self, flow: Flow) -> None:
        """Fold a flow's progress forward to `now` at its current rate."""
        now = self.network.now
        if flow.start_time is None:
            return
        last = flow._last_settle
        if now > last:
            moved = flow.rate_bps * (now - last) / BITS_PER_BYTE
            flow.bytes_done += moved
            if flow.bytes_remaining is not None:
                flow.bytes_remaining = max(0.0, flow.bytes_remaining - moved)
        flow._last_settle = now

    def _component(
        self, seed: "Iterable[Channel]"
    ) -> "tuple[list[Flow], Iterable[Channel]]":
        """Flows reachable from the ``seed`` channels through shared
        channels, in flow-id order (the order a global solve would see
        them in), and every channel visited, seed included."""
        flows: dict[int, Flow] = {}
        channels: "dict[Channel, None]" = dict.fromkeys(seed)
        frontier = list(channels)
        while frontier:
            for fid, flow in self._on_channel.get(frontier.pop(), {}).items():
                if fid in flows:
                    continue
                flows[fid] = flow
                for ch in flow.path:
                    if ch not in channels:
                        channels[ch] = None
                        frontier.append(ch)
        return [flows[fid] for fid in sorted(flows)], channels

    def _reallocate(self, changed: "Iterable[Channel]") -> None:
        """Recompute max-min fair rates around the ``changed`` channels.

        ``changed`` is the path of the flow that started, stopped or
        changed demand (or the channels whose capacity changed).  Only
        the connected component of flows sharing channels with it,
        transitively, is settled, re-solved and re-armed; max-min
        allocation decouples across channel-disjoint components, so
        every flow outside keeps the rate, the counters and the
        completion timer it has.  Progress is synchronised to `now`
        before any rate changes so integrals remain exact, and a
        channel's counter is synced and written only when its aggregate
        rate actually changed.
        """
        now = self.network.now
        self.recomputes += 1
        flows, channels = self._component(changed)
        obs.histogram("netsim.flows.realloc_flows").observe(len(flows))

        # Settle byte accounting at the old rates.
        for f in flows:
            self._settle(f)

        rates = max_min_allocation(
            [f.path for f in flows], [f.demand_bps for f in flows]
        )
        if not flows:
            # an empty solve observes nothing; keep one sample per recompute
            obs.histogram("netsim.maxmin.rounds").observe(0)

        # Apply new rates to flows and channel aggregates.  The
        # component is closed under channel sharing, so summing its
        # flows gives each visited channel's whole aggregate (zero for a
        # seed channel that just lost its last flow).
        per_channel: "dict[Channel, float]" = dict.fromkeys(channels, 0.0)
        for f, r in zip(flows, rates):
            f.rate_bps = r
            for ch in f.path:
                per_channel[ch] += r
        touched = 0
        for ch, new_rate in per_channel.items():
            if ch.rate_sum != new_rate:
                ch.sync(now)
                ch.rate_sum = new_rate
                touched += 1
        obs.counter("netsim.flows.realloc_channels_touched").inc(touched)

        # Re-schedule completion events for finite transfers.
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


def max_min_allocation(
    paths: "Sequence[Sequence[CapacityLike]]", demands: Sequence[float]
) -> list[float]:
    """Max-min fair rates for flows over shared channels.

    One pass over the problem.  The channels are first grouped by the
    flows crossing them and each group is cut to its tightest channel
    (:func:`_binding_channels`); progressive filling then runs over those
    constraints.  Each constraint carries its active count between
    rounds (an integer, decremented as members freeze) and its frozen
    load, which is summed again, with the same builtin ``sum`` over the
    same member order, only when one of its members has frozen.  So
    every float operation is one :func:`max_min_allocation_reference`
    performs on the reduced paths, in its order, and the result equals
    it bit for bit — on Python 3.12 too, whose float ``sum`` is
    compensated.  Zero-length paths (src == dst within one node) get
    their full demand.

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
    n = len(paths)
    if n == 0:
        return []
    constraints = _binding_channels(paths)
    obs.histogram("netsim.maxmin.constraints").observe(len(constraints))
    budget = 2 * n + len(constraints) + 1  # filling rounds, as the reference allows
    if all(0.0 <= d < math.inf for d in demands) and all(
        sum([demands[i] for i in members]) <= _FIT_SHARE * ch.capacity_bps
        for ch, members in constraints
    ):
        obs.histogram("netsim.maxmin.rounds").observe(0)
        return list(demands)

    rates = [0.0] * n
    frozen = [False] * n
    unfrozen: list[int] = []
    for i, path in enumerate(paths):
        if path:
            unfrozen.append(i)
        else:
            rates[i] = demands[i] if math.isfinite(demands[i]) else math.inf
            frozen[i] = True
    # Per constraint: its unfrozen members (a flow crossing twice counts
    # twice), kept exact by decrementing; and the sum of its frozen
    # members' rates, taken again only when a member has frozen since.
    caps = [ch.capacity_bps for ch, _ in constraints]
    members = [m for _, m in constraints]
    active = [len(m) for m in members]
    load = [0.0] * len(members)
    stale = [False] * len(members)
    crosses: list[list[int]] = [[] for _ in range(n)]
    for k, m in enumerate(members):
        for i in m:
            crosses[i].append(k)
    ks = range(len(members))

    level = 0.0
    rounds = 0
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
    obs.histogram("netsim.maxmin.rounds").observe(rounds)
    return rates


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


def max_min_allocation_reference(
    paths: "Sequence[Sequence[CapacityLike]]", demands: Sequence[float]
) -> list[float]:
    """Pure-python progressive filling over the paths as given.

    :func:`max_min_allocation` calls it on the reduced paths; tests call
    it on the unreduced ones as ground truth for the reduction.  Runs in
    O(iterations × flows × path length).  The iteration count is bounded
    by 2 × flows + channels + 1: a demand can take two rounds, when the
    level lands a rounding short of it (see :func:`max_min_allocation`).
    """
    n = len(paths)
    if n == 0:
        return []
    rates = [0.0] * n
    frozen = [False] * n

    # channel id -> (capacity, list of flow indices)
    chan_cap: dict[int, float] = {}
    chan_flows: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        if not path:
            rates[i] = demands[i] if math.isfinite(demands[i]) else math.inf
            frozen[i] = True
            continue
        for ch in path:
            if id(ch) not in chan_cap:
                chan_cap[id(ch)] = ch.capacity_bps
                chan_flows[id(ch)] = []
            chan_flows[id(ch)].append(i)

    level = 0.0
    rounds = 0
    for _ in range(2 * n + len(chan_cap) + 1):
        unfrozen = [i for i in range(n) if not frozen[i]]
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
        for cid, members in chan_flows.items():
            active = [i for i in members if not frozen[i]]
            if not active:
                continue
            frozen_load = sum(rates[i] for i in members if frozen[i])
            residual = chan_cap[cid] - frozen_load - level * len(active)
            d = residual / len(active)
            if d < delta_cap:
                delta_cap = d
        delta = min(delta_demand, delta_cap)
        if not math.isfinite(delta):
            # Only infinite demands remain and no capacity binds: the
            # paths must be capacity-free (impossible for real links).
            for i in unfrozen:
                rates[i] = math.inf
                frozen[i] = True
            break
        delta = max(delta, 0.0)
        level += delta
        # Freeze at binding constraints.
        for i in unfrozen:
            if demands[i] - level <= _EPS:
                rates[i] = demands[i]
                frozen[i] = True
        for cid, members in chan_flows.items():
            active = [i for i in members if not frozen[i]]
            if not active:
                continue
            frozen_load = sum(rates[i] for i in members if frozen[i])
            residual = chan_cap[cid] - frozen_load - level * len(active)
            if residual / len(active) <= _EPS:
                for i in active:
                    rates[i] = level
                    frozen[i] = True
    for i in range(n):
        if not frozen[i]:
            rates[i] = min(level, demands[i])
    obs.histogram("netsim.maxmin.rounds").observe(rounds)
    return rates
