"""SNMP client with simulated request costs.

Every PDU exchanged charges simulated time to the engine via a
:class:`SnmpCostModel` — this is what gives the Fig. 3 scalability
curves their shape: a cold topology discovery costs thousands of PDUs,
a warm one costs a handful.  The client also counts PDUs so experiments
can report message complexity directly.

A client is bound to a source address (for agent ACLs) and an
:class:`~repro.snmp.agent.SnmpWorld` (for addressing).  ``walk`` is the
standard GETNEXT loop bounded to one subtree; ``bulk_walk`` covers the
same subtree with GetBulk PDUs, charging one round-trip per
``max_repetitions`` varbinds instead of one per varbind — the batching
that makes cold table walks cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.common.errors import AgentUnreachableError, NoSuchObjectError
from repro.faults import FaultInjector
from repro.netsim.address import IPv4Address
from repro.snmp import oid as O
from repro.snmp.agent import SnmpAgent, SnmpWorld
from repro.snmp.oid import Oid


#: re-sends after a timed-out request, before the client gives up
RETRIES = 2
#: wait before the first re-send; each later one waits BACKOFF_MULT
#: times longer (all charged on the simulation clock)
BACKOFF_BASE_S = 0.25
BACKOFF_MULT = 2.0


@dataclass
class SnmpCostModel:
    """Simulated time charged per SNMP exchange.

    ``rtt_s`` covers network round trip + agent dispatch; each varbind
    adds ``per_varbind_s`` of marshalling/processing.  A request to a
    dead agent costs ``timeout_s`` per attempt.  The defaults
    approximate a busy campus LAN and reproduce the paper's cold-cache
    query times within an order of magnitude.

    Only costs live here.  The retry policy is the same for every
    client: a timed-out request is re-sent up to :data:`RETRIES` times,
    waiting ``BACKOFF_BASE_S * BACKOFF_MULT**k`` before attempt k+2.
    """

    rtt_s: float = 0.002
    per_varbind_s: float = 0.0002
    timeout_s: float = 2.0
    #: varbinds requested per GetBulk PDU (bulk-walk batch size)
    bulk_max_repetitions: int = 32


class SnmpClient:
    """GET/GETNEXT/WALK against agents in one :class:`SnmpWorld`."""

    def __init__(
        self,
        world: SnmpWorld,
        source_ip: IPv4Address | str,
        community: str = "public",
        cost: SnmpCostModel | None = None,
    ) -> None:
        self.world = world
        self.source_ip = IPv4Address(source_ip)
        self.community = community
        self.cost = cost or SnmpCostModel()
        #: PDUs sent (diagnostics / message-complexity reporting)
        self.pdu_count = 0
        #: timeouts observed
        self.timeout_count = 0
        #: retries spent after timeouts
        self.retry_count = 0

    # -- internals -------------------------------------------------------

    def _injector(self) -> FaultInjector | None:
        inj: FaultInjector | None = getattr(self.world.net, "faults", None)
        return inj

    def _charge(self, n_varbinds: int, op: str, ip: IPv4Address | str | None = None) -> None:
        self.pdu_count += 1
        obs.counter("snmp.client.pdus", op=op).inc()
        dt = self.cost.rtt_s + n_varbinds * self.cost.per_varbind_s
        if ip is not None:
            inj = self._injector()
            if inj is not None:
                dt += inj.pdu_delay_s(ip)
        # a leaf span per PDU exchange ties the transport cost into the
        # query's causal trace (sim-clock interval == the charge)
        with obs.span("snmp.client.pdu", op=op):
            self.world.net.engine.advance(dt)

    def _timeout(self, op: str) -> None:
        self.pdu_count += 1
        self.timeout_count += 1
        obs.counter("snmp.client.pdus", op=op).inc()
        obs.counter("snmp.client.timeouts").inc()
        with obs.span("snmp.client.timeout", op=op):
            self.world.net.engine.advance(self.cost.timeout_s)

    def _attempt(self, ip: IPv4Address | str, op: str) -> SnmpAgent:
        """One request attempt: the agent, or an unreachable timeout."""
        agent = self.world.agent_at(ip)
        if agent is None:
            self._timeout(op)
            raise AgentUnreachableError(f"no agent at {ip} (timeout)")
        inj = self._injector()
        if inj is not None and inj.drop_pdu(ip):
            self._timeout(op)
            raise AgentUnreachableError(f"{ip}: request dropped (timeout)")
        try:
            agent.authorize(self.source_ip, self.community)
        except AgentUnreachableError:
            self._timeout(op)
            raise
        return agent

    def _agent(self, ip: IPv4Address | str, op: str) -> SnmpAgent:
        """The agent behind ``ip``, re-sending up to :data:`RETRIES`
        times after a timeout.

        Each retry waits an exponentially growing backoff on the sim
        clock before re-sending.  Authorization refusals are explicit
        answers, not timeouts, so they never retry.
        """
        backoff = BACKOFF_BASE_S
        for attempt in range(RETRIES + 1):
            if attempt > 0:
                self.retry_count += 1
                obs.counter("snmp.retries", op=op).inc()
                with obs.span("snmp.client.retry", op=op):
                    self.world.net.engine.advance(backoff)
                backoff *= BACKOFF_MULT
            try:
                return self._attempt(ip, op)
            except AgentUnreachableError:
                if attempt == RETRIES:
                    raise
        raise AgentUnreachableError(f"no agent at {ip} (timeout)")

    def _counter_value(self, ip: IPv4Address | str, oid: Oid, value: Any) -> object:
        """Pass octet-counter readings through the fault injector."""
        inj = self._injector()
        if inj is None:
            return value
        if not (oid.starts_with(O.IF_IN_OCTETS) or oid.starts_with(O.IF_OUT_OCTETS)):
            return value
        return inj.counter_read(ip, oid, float(value))

    # -- operations ---------------------------------------------------------

    def get(self, ip: IPv4Address | str, oid: Oid | str) -> object:
        """GET a single object."""
        agent = self._agent(ip, "get")
        self._charge(1, "get", ip)
        oid = Oid(oid)
        return self._counter_value(ip, oid, agent.get(oid))

    def get_many(self, ip: IPv4Address | str, oids: list[Oid]) -> list[object]:
        """GET several objects in one PDU (missing OIDs raise)."""
        agent = self._agent(ip, "get")
        self._charge(len(oids), "get", ip)
        return [self._counter_value(ip, o, agent.get(o)) for o in oids]

    def walk(self, ip: IPv4Address | str, prefix: Oid | str) -> list[tuple[Oid, object]]:
        """All objects under ``prefix`` via repeated GETNEXT."""
        prefix = Oid(prefix)
        agent = self._agent(ip, "getnext")
        results: list[tuple[Oid, object]] = []
        current = prefix
        while True:
            self._charge(1, "getnext", ip)
            try:
                nxt, value = agent.get_next(current)
            except NoSuchObjectError:
                break
            if not nxt.starts_with(prefix):
                break
            results.append((nxt, value))
            current = nxt
        obs.histogram("snmp.client.walk_len").observe(len(results))
        return results

    def get_bulk(
        self,
        ip: IPv4Address | str,
        oid: Oid | str,
        max_repetitions: int | None = None,
    ) -> list[tuple[Oid, object]]:
        """GetBulk: up to ``max_repetitions`` GETNEXT results, one PDU."""
        n = max_repetitions or self.cost.bulk_max_repetitions
        agent = self._agent(ip, "getbulk")
        chunk = agent.get_bulk(Oid(oid), n)
        # a PDU goes out (and the agent answers) even when empty
        self._charge(max(1, len(chunk)), "getbulk", ip)
        obs.counter("snmp.bulk_varbinds").inc(len(chunk))
        return chunk

    def bulk_walk(
        self,
        ip: IPv4Address | str,
        prefix: Oid | str,
        max_repetitions: int | None = None,
    ) -> list[tuple[Oid, object]]:
        """All objects under ``prefix`` via GetBulk PDUs.

        Returns exactly what :meth:`walk` returns for the same subtree,
        at roughly ``1/max_repetitions`` of the PDU (and round-trip)
        cost.
        """
        prefix = Oid(prefix)
        n = max_repetitions or self.cost.bulk_max_repetitions
        results: list[tuple[Oid, object]] = []
        current: Oid = prefix
        while True:
            chunk = self.get_bulk(ip, current, n)
            for nxt, value in chunk:
                if not nxt.starts_with(prefix):
                    break
                results.append((nxt, value))
            else:
                if len(chunk) == n:
                    current = chunk[-1][0]
                    continue
            break  # left the subtree, or the agent hit end of MIB
        obs.histogram("snmp.client.bulk_walk_len").observe(len(results))
        return results

    def table_column(
        self, ip: IPv4Address | str, column: Oid | str
    ) -> dict[tuple[int, ...], object]:
        """A table column as {row-index-suffix: value} (bulk-walked)."""
        # bulk_walk returns only OIDs under the column: slice, don't re-test
        n = len(Oid(column))
        return {oid.parts[n:]: value for oid, value in self.bulk_walk(ip, column)}
