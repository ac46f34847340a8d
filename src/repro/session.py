"""RemosSession: the documented application entry point to Remos.

The paper's API gives applications three questions — flow information,
topology, and node (compute-resource) information.  This facade asks
them through a :class:`~repro.modeler.api.Modeler` and always answers
with the status-carrying ``Answer`` family: every result reports a
:class:`~repro.common.status.QueryStatus`, the age of the data behind
it, and which sites contributed (provenance).

A session never raises just because part of the network stopped
answering: failed pairs come back as ``FAILED`` answers with zeroed
bandwidths, partially-covered topologies come back ``PARTIAL`` with the
reachable fragments merged, and last-known-good data is served
``STALE``.  Exceptions are reserved for caller mistakes
(bad detail level, no provider configured) and for a completely
unreachable Master.

    session = deployment.session()
    ans = session.flow_info("10.1.0.1", "10.2.0.7")
    if ans.ok:
        plan_transfer(ans.available_bps)
    elif ans.degraded:
        log.warning("degraded answer: %s (age %.1fs)", ans.status, ans.data_age_s)

Every session call opens a *root span* (``session.flow_info`` etc.)
when a live metrics registry is installed, so the entire causal tree
below it — modeler, Master delegation per site, individual SNMP PDUs
and retries — shares one ``trace_id``, which is also stamped into each
answer.  Degraded answers are reported to the registry's flight
recorder (if one is attached; see :mod:`repro.obs.flightrec`), which
dumps the trace evidence for post-mortem rendering with
``repro trace``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro import obs
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Host
from repro.modeler.api import (
    Answer,
    FlowAnswer,
    Modeler,
    NodeAnswer,
    TopologyAnswer,
)

__all__ = ["RemosSession"]

#: how a query may name a host: the object, its address, or a dotted quad
HostLike = Host | IPv4Address | str


class RemosSession:
    """One application's Remos handle, wrapping a Modeler."""

    def __init__(self, modeler: Modeler) -> None:
        self.modeler = modeler

    @staticmethod
    def _finish(answers: Sequence[Answer]) -> None:
        """Report degraded answers to the flight recorder, if attached.

        Called after the root span has closed, so the dump sees the
        complete causal tree for the trace.
        """
        recorder = obs.get_registry().flight_recorder
        if recorder is None:
            return
        for ans in answers:
            if isinstance(ans, Answer) and ans.degraded:
                recorder.on_answer(ans)

    # -- flows ---------------------------------------------------------

    def flow_info(
        self, src: HostLike, dst: HostLike, predict: bool = False, horizon_steps: int = 1
    ) -> FlowAnswer:
        """Expected bandwidth for one new flow src -> dst."""
        with obs.span("session.flow_info"):
            answers = self.modeler._flow_answers([(src, dst)], predict, horizon_steps, None)
        self._finish(answers)
        return answers[0]

    def flow_info_many(
        self,
        pairs: Iterable[tuple[HostLike, HostLike]],
        predict: bool = False,
        horizon_steps: int = 1,
        own_flows: Iterable[tuple[HostLike, HostLike, float]] | None = None,
    ) -> list[FlowAnswer]:
        """Expected bandwidth for simultaneous new flows (joint max-min).

        ``own_flows`` declares the application's existing traffic as
        ``(src, dst, rate_bps)`` triples so it is not mistaken for
        competing load (see Modeler docs).
        """
        with obs.span("session.flow_info_many"):
            answers = self.modeler._flow_answers(pairs, predict, horizon_steps, own_flows)
        self._finish(answers)
        return answers

    # -- topology ------------------------------------------------------

    def topology(
        self,
        hosts: Iterable[HostLike],
        detail: str = "simplified",
        include_dynamics: bool = True,
    ) -> TopologyAnswer:
        """The virtual topology spanning ``hosts``.

        ``detail`` is ``"raw"``, ``"simplified"``, or ``"summary"``;
        hosts no collector could cover are listed in
        ``answer.unresolved`` and reflected in ``answer.status``.
        The graph of a derived level is a frozen snapshot shared with
        other answers (``answer.graph.copy()`` to edit); ``"raw"`` is a
        private mutable copy.
        """
        with obs.span("session.topology", detail=detail):
            answer = self.modeler._topology_answer(hosts, detail, include_dynamics)
        self._finish([answer])
        return answer

    # -- nodes ---------------------------------------------------------

    def node_info(
        self, hosts: Iterable[HostLike], predict: bool = False, horizon_steps: int = 1
    ) -> list[NodeAnswer]:
        """Current (and optionally forecast) load of compute nodes."""
        with obs.span("session.node_info"):
            answers = self.modeler._node_answers(hosts, predict, horizon_steps)
        self._finish(answers)
        return answers

    # -- plumbing ------------------------------------------------------

    def invalidate_cache(self, sites: Iterable[str] | None = None) -> None:
        """Drop the Modeler's memoized Master responses.

        Pass ``sites`` (site names) to scope the eviction to answers
        that actually depended on those sites; other memoized answers
        survive.  Same name and signature as
        :meth:`repro.modeler.api.Modeler.invalidate_cache`, which it
        forwards to.
        """
        self.modeler.invalidate_cache(sites)

    def __repr__(self) -> str:
        return f"RemosSession({self.modeler!r})"
