"""SNMP agents and the per-world agent registry.

An :class:`SnmpAgent` fronts one device's :class:`~repro.snmp.mib.MibStore`
with the two access-control mechanisms the paper's collectors must cope
with: a community string (wrong community = silent drop = timeout) and a
source-address ACL ("SNMP agents are normally only accessible from local
IP addresses" — §3.1.1).  Devices can also be marked plainly
unreachable, modelling the misconfigured or non-standard agents §6.2
complains about.

:class:`SnmpWorld` maps every management/interface IP to its agent —
the "DNS + UDP reachability" a collector implicitly uses when it sends
a PDU to an address it learned from a routing table.

``instrument_network`` builds MIBs for every router and switch of a
simulated network and registers them, returning the world.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import obs
from repro.common.errors import AgentUnreachableError, AuthorizationError
from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.topology import Host, Network, Node, Router, Switch
from repro.netsim.wireless import Basestation
from repro.snmp.mib import (
    MibStore,
    build_basestation_mib,
    build_host_mib,
    build_router_mib,
    build_switch_mib,
    on_link_stations,
)
from repro.snmp.oid import Oid


@dataclass
class SnmpAgent:
    """One device's SNMP personality."""

    device: Node
    mib: MibStore
    community: str = "public"
    #: source prefixes allowed to query; empty list = allow everyone
    allowed_sources: list[IPv4Network] = field(default_factory=list)
    #: hard off-switch (agent not running / device filtered)
    reachable: bool = True
    #: MIB objects this agent served (diagnostics / per-agent load)
    requests_served: int = 0

    def authorize(self, source: IPv4Address, community: str) -> None:
        """Raise unless this (source, community) pair may query.

        Wrong community behaves like a dead agent (SNMP drops silently,
        the querier times out); a disallowed source address gets an
        explicit refusal.
        """
        if not self.reachable or not getattr(self.device, "snmp_reachable", True):
            obs.counter("snmp.agent.dropped", reason="down").inc()
            raise AgentUnreachableError(f"{self.device.name}: agent down")
        if community != self.community:
            obs.counter("snmp.agent.dropped", reason="community").inc()
            raise AgentUnreachableError(
                f"{self.device.name}: bad community (request dropped)"
            )
        if self.allowed_sources and not any(
            source in n for n in self.allowed_sources
        ):
            obs.counter("snmp.agent.dropped", reason="acl").inc()
            raise AuthorizationError(
                f"{self.device.name}: source {source} not permitted"
            )

    def get(self, oid: Oid) -> object:
        self.requests_served += 1
        obs.counter("snmp.agent.requests", device=self.device.name).inc()
        return self.mib.get(oid)

    def get_next(self, oid: Oid) -> tuple[Oid, object]:
        self.requests_served += 1
        obs.counter("snmp.agent.requests", device=self.device.name).inc()
        return self.mib.get_next(oid)

    def get_bulk(self, oid: Oid, max_repetitions: int) -> list[tuple[Oid, object]]:
        """GetBulk: up to ``max_repetitions`` successive GETNEXT results
        in one exchange, stopping early at the end of the MIB."""
        out = self.mib.get_next_n(oid, max_repetitions)
        self.requests_served += len(out)
        obs.counter("snmp.agent.requests", device=self.device.name).inc(len(out))
        return out


class SnmpWorld:
    """Registry of agents by IP address within one simulated network."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self._by_ip: dict[IPv4Address, SnmpAgent] = {}
        #: the same agents by canonical dotted quad: collectors address
        #: PDUs by the text they read, and it needs no parse to find
        self._by_text: dict[str, SnmpAgent] = {}
        self._by_device: dict[str, SnmpAgent] = {}

    def register(self, agent: SnmpAgent, ips: list[IPv4Address]) -> None:
        for ip in ips:
            addr = IPv4Address(ip)
            self._by_ip[addr] = agent
            self._by_text[str(addr)] = agent
        self._by_device[agent.device.name] = agent

    def agent_at(self, ip: IPv4Address | str) -> SnmpAgent | None:
        agent = self._by_text.get(ip) if isinstance(ip, str) else None
        # else an address, or text not canonical ("010.0.0.1") or not an address (raises)
        return agent or self._by_ip.get(IPv4Address(ip))

    def agent_for(self, device_name: str) -> SnmpAgent | None:
        return self._by_device.get(device_name)

    def agents(self) -> list[SnmpAgent]:
        return list(self._by_device.values())

    def refresh_device(self, device: Node) -> None:
        """Rebuild a device's MIB after a topology change (new ports,
        moved stations).  Keeps the agent object — and therefore its
        community/ACL settings — intact."""
        agent = self._by_device.get(device.name)
        if agent is None:
            return
        if isinstance(device, Router):
            agent.mib = build_router_mib(device, self.net)
        elif isinstance(device, Basestation):
            agent.mib = build_basestation_mib(device, self.net)
        elif isinstance(device, Switch):
            agent.mib = build_switch_mib(device, self.net)


def instrument_network(
    net: Network,
    community: str = "public",
    allowed_sources: list[IPv4Network] | None = None,
) -> SnmpWorld:
    """Give every router and managed switch an SNMP agent.

    Routers answer on all their interface addresses; switches answer on
    their management address.  Devices whose ``snmp_reachable`` flag is
    False get an agent marked down (they exist, but won't answer —
    the collector will represent them as virtual switches).
    """
    world = SnmpWorld(net)
    acl = list(allowed_sources or [])
    stations = on_link_stations(net)
    for router in net.routers():
        agent = SnmpAgent(
            router,
            build_router_mib(router, net, stations),
            community=community,
            allowed_sources=acl,
            reachable=router.snmp_reachable,
        )
        world.register(agent, [i.ip for i in router.interfaces if i.ip is not None])
    for switch in net.switches():
        if switch.management_ip is None:
            continue
        agent = SnmpAgent(
            switch,
            build_switch_mib(switch, net),
            community=community,
            allowed_sources=acl,
            reachable=switch.snmp_reachable,
        )
        world.register(agent, [switch.management_ip])
    # basestations: wireless APs answering on their management address
    for node in net.nodes.values():
        if isinstance(node, Basestation) and node.management_ip is not None:
            agent = SnmpAgent(
                node,
                build_basestation_mib(node, net),
                community=community,
                allowed_sources=acl,
                reachable=node.snmp_reachable,
            )
            world.register(agent, [node.management_ip])
    return world


def instrument_hosts(
    world: SnmpWorld,
    hosts: Iterable[Node] | None = None,
    community: str = "public",
    allowed_sources: list[IPv4Network] | None = None,
) -> int:
    """Give end hosts SNMP agents with the Host Resources MIB.

    Most sites don't run SNMP on workstations, so this is opt-in and
    separate from :func:`instrument_network`.  Returns how many agents
    were registered.
    """
    net = world.net
    targets: Iterable[Node] = net.hosts() if hosts is None else hosts
    acl = list(allowed_sources or [])
    count = 0
    for host in targets:
        if not isinstance(host, Host):
            continue
        ips = [i.ip for i in host.interfaces if i.ip is not None]
        if not ips:
            continue
        agent = SnmpAgent(
            host,
            build_host_mib(host, net),
            community=community,
            allowed_sources=acl,
        )
        world.register(agent, ips)
        count += 1
    return count
