"""The scalar oracle of the max-min solver.

:func:`max_min_allocation_reference` is the original pure-python
progressive-filling loop, kept verbatim so the one-pass solver in
:mod:`repro.netsim.flows` has something to be bit-identical to.  It
observes ``netsim.maxmin.rounds`` as the solver does, so a simulated
world run on it records what one run on the solver would.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import obs
from repro.netsim.flows import _EPS, CapacityLike


def max_min_allocation_reference(
    paths: Sequence[Sequence[CapacityLike]], demands: Sequence[float]
) -> list[float]:
    """Pure-python progressive filling over the paths as given.

    Called on the paths cut to the binding channels, it is what
    :func:`~repro.netsim.flows.max_min_allocation` must equal bit for
    bit; called on the unreduced ones, it is ground truth for that
    reduction.  Runs in O(iterations × flows × path length).  The
    iteration count is bounded by 2 × flows + channels + 1: a demand can
    take two rounds, when the level lands a rounding short of it (see
    :func:`~repro.netsim.flows.max_min_allocation`).
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
