"""repro.faults — deterministic, seedable fault injection for the stack.

The paper sells Remos as a monitoring service that keeps answering
while the network it measures misbehaves: agents stop responding, WAN
probes fail, collectors restart (§6.2).  This module makes those
failures *reproducible experiments*: a :class:`FaultPlan` describes
which faults fire with what probability, a :class:`FaultInjector`
rolls the dice from one seeded generator, and :func:`install` points
a deployment at the injector.

Only faults live here.  The survival policy that copes with them —
SNMP retries with backoff (:mod:`repro.snmp.client`), the Master's
fragment deadline, re-delegation, quarantine and last-known-good store
(:mod:`repro.collectors.master`) — is how the stack always runs, with
or without a plan installed.

Design rules:

* **Deterministic.**  One ``numpy`` generator seeded from the plan
  drives every probabilistic decision, so two runs with the same seed
  inject the identical fault sequence.
* **Zero-overhead default.**  Nothing consults the injector unless one
  is installed (``net.faults`` is ``None`` otherwise), and a plan with
  all probabilities at zero injects nothing — results are identical to
  a run without the module.
* **Visible.**  Every injected fault increments
  ``faults.injected{kind=...}`` in :mod:`repro.obs`.

Probabilistic faults (rolled per operation):

=================  ====================================================
``snmp_drop``      an agent silently drops a PDU (client times out)
``snmp_delay``     an answered PDU suffers a delay spike
``counter_reset``  an octet counter rebases to zero (device reboot)
``counter_wrap``   32-bit octet counters wrap modulo 2**32
``probe_fail``     a WAN benchmark probe fails outright
=================  ====================================================

Scripted faults (invoked from test/experiment code at a chosen time):
:func:`crash_collector`, :func:`crash_shard`, :func:`crash_agent`,
:func:`spike_link_latency`, :func:`degrade_link`.  Timed faults of one
kind on one target overlap cleanly: each restore undoes only its own
fault, so a target comes back when the last fault in force on it ends.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.common.rng import make_rng
from repro.netsim.engine import Engine
from repro.netsim.topology import Link, Network, Node

log = obs.get_logger(__name__)

#: per degraded link: its nominal capacity and the factors of the
#: degradations in force, oldest first
_degraded: "weakref.WeakKeyDictionary[Link, tuple[float, list[float]]]" = (
    weakref.WeakKeyDictionary()
)
#: per device whose agent is crashed: whether the agent was reachable
#: before the first crash in force, and how many are in force
_agents_down: "weakref.WeakKeyDictionary[Node, list[Any]]" = weakref.WeakKeyDictionary()


def _record_fault(kind: str) -> None:
    """Count an injected fault and wake the flight recorder, if any."""
    obs.counter("faults.injected", kind=kind).inc()
    recorder = obs.get_registry().flight_recorder
    if recorder is not None:
        recorder.on_fault(kind)


@dataclass
class FaultPlan:
    """Declarative description of an injection campaign: which faults
    fire, how often and how hard.  A plan with every probability at 0
    injects nothing."""

    seed: int = 0
    # -- SNMP transport faults ----------------------------------------
    #: probability an agent silently drops one PDU
    snmp_drop_prob: float = 0.0
    #: probability an answered PDU suffers a delay spike
    snmp_delay_prob: float = 0.0
    snmp_delay_s: float = 0.25
    # -- counter pathologies ------------------------------------------
    #: probability (per counter read) the counter rebases to zero
    counter_reset_prob: float = 0.0
    #: serve octet counters modulo 2**32 (legacy 32-bit agents)
    counter_wrap32: bool = False
    # -- WAN probe faults ---------------------------------------------
    #: probability one benchmark probe fails outright
    probe_fail_prob: float = 0.0
    #: simulated time a failing probe burns before giving up
    probe_timeout_s: float = 5.0
    # -- service-plane faults (repro.service) -------------------------
    #: probability one service backend call raises a transient error
    #: (exercises the breaker and shed-to-STALE paths)
    service_error_prob: float = 0.0
    #: probability one service request suffers an artificial stall
    service_delay_prob: float = 0.0
    service_delay_s: float = 0.2

    @property
    def injects_anything(self) -> bool:
        return (
            self.snmp_drop_prob > 0
            or self.snmp_delay_prob > 0
            or self.counter_reset_prob > 0
            or self.counter_wrap32
            or self.probe_fail_prob > 0
            or self.service_error_prob > 0
            or self.service_delay_prob > 0
        )


class FaultInjector:
    """Rolls the plan's dice, deterministically, and counts what fired."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = make_rng(plan.seed)
        #: total faults injected (mirror of the obs counter)
        self.injected = 0
        #: per-(agent, oid) rebase offsets from injected counter resets
        self._offsets: dict[tuple[str, str], float] = {}

    def _fire(self, kind: str, prob: float) -> bool:
        if prob <= 0.0:
            return False
        if float(self.rng.random()) >= prob:
            return False
        self._count(kind)
        return True

    def _count(self, kind: str) -> None:
        self.injected += 1
        _record_fault(kind)

    # -- hooks consulted by the stack ---------------------------------

    def drop_pdu(self, ip: object) -> bool:
        """Should this PDU be silently dropped (client times out)?"""
        return self._fire("snmp_drop", self.plan.snmp_drop_prob)

    def pdu_delay_s(self, ip: object) -> float:
        """Extra latency to charge on an answered PDU (usually 0)."""
        if self._fire("snmp_delay", self.plan.snmp_delay_prob):
            return self.plan.snmp_delay_s
        return 0.0

    def counter_read(self, ip: object, oid: object, value: float) -> float:
        """Mangle one octet-counter reading (reset rebase, 32-bit wrap)."""
        key = (str(ip), str(oid))
        if self._fire("counter_reset", self.plan.counter_reset_prob):
            # the device "rebooted": counters restart from zero and
            # grow again from this raw value onward
            self._offsets[key] = float(value)
        v = float(value) - self._offsets.get(key, 0.0)
        if self.plan.counter_wrap32:
            wrapped = v % 2.0**32
            if wrapped != v:
                self._count("counter_wrap")
            v = wrapped
        return v

    def probe_fails(self, src_site: str, dst_site: str) -> bool:
        """Should this WAN benchmark probe fail?"""
        return self._fire("probe_fail", self.plan.probe_fail_prob)

    def service_error(self) -> bool:
        """Should this service backend call raise a transient error?"""
        return self._fire("service_error", self.plan.service_error_prob)

    def service_delay(self) -> float:
        """Artificial stall to add to one service request (usually 0)."""
        if self._fire("service_delay", self.plan.service_delay_prob):
            return self.plan.service_delay_s
        return 0.0


def install(dep: Any, plan: FaultPlan) -> FaultInjector:
    """Inject per ``plan`` into a deployment.

    Sets ``dep.net.faults``, which the SNMP client, the benchmark
    collectors and the service plane consult.  Returns the injector
    for inspection; :func:`uninstall` clears it.
    """
    injector = FaultInjector(plan)
    dep.net.faults = injector
    log.info("fault plan installed (seed=%d)", plan.seed)
    return injector


def uninstall(dep: Any) -> None:
    """Stop injecting."""
    dep.net.faults = None
    log.info("fault plan uninstalled")


# -- scripted faults ---------------------------------------------------


def crash_collector(collector: Any, down_s: float) -> None:
    """Crash a collector for ``down_s`` simulated seconds.

    While crashed it refuses queries (:class:`CollectorUnavailableError`
    — the Master quarantines it and serves last-known-good fragments).
    On restart it comes back *cold*: discovery caches and counter
    history are flushed, like a real process restart.
    """
    def _restart() -> None:
        flush = getattr(collector, "flush_caches", None)
        if callable(flush):
            flush()

    _crash_until(collector, collector.net.engine, down_s, _restart)
    _record_fault("collector_crash")
    log.debug("%s crashed until t=%.1f", collector.name, collector.crashed_until)


def _crash_until(
    target: Any, engine: Engine, down_s: float, on_restart: Callable[[], None] | None = None
) -> None:
    """Take ``target`` down for ``down_s`` through its ``crashed_until``.

    A crash that overlaps one in force extends the outage, and never
    shortens it; each crash's end restarts the target (and calls
    ``on_restart``) only if no later crash is still in force.
    """
    until = engine.now + down_s
    if target.crashed_until is None or target.crashed_until < until:
        target.crashed_until = until

    def _restart() -> None:
        if target.crashed_until is None or engine.now < target.crashed_until:
            return  # a later crash is still in force
        target.crashed_until = None
        if on_restart is not None:
            on_restart()

    engine.after(down_s, _restart)


def crash_shard(master: Any, shard_index: int, down_s: float,
                include_replicas: bool = True) -> None:
    """Crash one shard of a :class:`~repro.collectors.sharding.ShardedMaster`.

    With ``include_replicas`` every replica in the shard's chain goes
    down together: the ShardedMaster serves each of the shard's sites
    from its registration's fragment in the plane's last-known-good
    store, or FAILED when none is held.  Otherwise only the primary
    crashes and the next query promotes a replica, which still answers
    *fresh* from the shared site collectors and holds what the primary
    stored.  The plane's store stands for one replicated across its
    Masters, so a crash does not wipe it.
    """
    shard = master.shards[shard_index]
    targets = shard.masters if include_replicas else shard.masters[:1]
    engine = master.net.engine
    for m in targets:
        _crash_until(m, engine, down_s)
    _record_fault("shard_crash")
    log.debug(
        "shard %d crashed (%d master(s)) until t=%.1f",
        shard_index, len(targets), engine.now + down_s,
    )


def crash_agent(world: Any, ip: object, down_s: float | None = None) -> None:
    """Take one SNMP agent down (optionally restoring after ``down_s``).

    The agent comes back as it was before it went down, once every
    crash in force on it has ended; one without ``down_s`` never ends.
    """
    agent = world.agent_at(ip)
    if agent is None:
        raise ValueError(f"no agent at {ip}")
    down = _agents_down.setdefault(agent.device, [agent.reachable, 0])
    down[1] += 1
    agent.reachable = False
    _record_fault("agent_crash")
    if down_s is not None:
        def _restore() -> None:
            down[1] -= 1
            if not down[1]:
                del _agents_down[agent.device]
                agent.reachable = down[0]

        world.net.engine.after(down_s, _restore)


def spike_link_latency(
    net: Network, link: Link, extra_s: float, duration_s: float | None = None
) -> None:
    """Add a delay spike to one link (optionally reverting later)."""
    link.latency_s += extra_s
    _record_fault("latency_spike")
    if duration_s is not None:
        def _revert() -> None:
            link.latency_s = max(0.0, link.latency_s - extra_s)

        net.engine.after(duration_s, _revert)


def degrade_link(
    net: Network, link: Link, factor: float, duration_s: float | None = None
) -> None:
    """Cut a link's usable capacity to ``factor`` of its current value.

    The fluid model has no packets, so sustained packet loss appears as
    goodput reduction: scale the link (and both channels) and
    re-balance all flows (:meth:`FlowManager.set_link_capacity`).
    Degradations compose: the link runs at its nominal capacity (the
    one it had before the first degradation in force) times the factors
    in force, oldest first.  ``duration_s`` ends this degradation
    afterwards, and the nominal capacity is back once none is in force.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("factor must be in (0, 1]")
    _, factors = _degraded.setdefault(link, (link.capacity_bps, []))
    factors.append(factor)
    _record_fault("link_degrade")
    _set_degraded(net, link)
    if duration_s is not None:
        def _restore() -> None:
            factors.remove(factor)
            _set_degraded(net, link)

        net.engine.after(duration_s, _restore)


def _set_degraded(net: Network, link: Link) -> None:
    """Give ``link`` its nominal capacity times the factors in force."""
    cap, factors = _degraded[link]
    for factor in factors:
        cap *= factor
    if not factors:
        del _degraded[link]
    net.flows.set_link_capacity(link, cap)
