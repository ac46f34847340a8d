"""Network element model: hosts, routers, switches, hubs, links.

This is the ground-truth world the collectors observe.  Devices own
:class:`Interface` objects; a :class:`Link` joins exactly two interfaces
and carries two directed :class:`Channel` s (one per direction), each
with its own capacity, octet counter, and set of fluid flows.

The :class:`Network` container ties the pieces to a simulation
:class:`~repro.netsim.engine.Engine` and hands out addresses.  After
construction, call :meth:`Network.freeze` to compute routing tables,
spanning trees and forwarding databases (see :mod:`repro.netsim.routing`
and :mod:`repro.netsim.bridging`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.common.errors import TopologyError
from repro.common.units import BITS_PER_BYTE
from repro.netsim.address import (
    IPv4Address,
    IPv4Network,
    MacAddress,
    MacAllocator,
    PrefixTable,
)
from repro.netsim.engine import Engine

if TYPE_CHECKING:  # circular at runtime
    from repro.netsim.bridging import Segment
    from repro.netsim.flows import Flow, FlowManager


class Channel:
    """One direction of a link: capacity, flows, and an octet counter.

    The byte counter is integrated lazily: ``sync(now)`` folds in the
    traffic carried at the current aggregate rate since the previous
    sync.  Rate changes must therefore sync *before* mutating
    ``rate_sum`` — the :class:`~repro.netsim.flows.FlowManager` enforces
    this ordering.
    """

    __slots__ = ("link", "src", "dst", "capacity_bps", "rate_sum", "bytes_total", "_last_sync")

    def __init__(self, link: "Link", src: "Interface", dst: "Interface", capacity_bps: float) -> None:
        self.link = link
        self.src = src
        self.dst = dst
        self.capacity_bps = capacity_bps
        #: aggregate allocated rate of all flows currently on this channel
        self.rate_sum = 0.0
        #: cumulative bytes carried (what ifOutOctets of ``src`` reports)
        self.bytes_total = 0.0
        self._last_sync = 0.0

    def sync(self, now: float) -> None:
        """Integrate the octet counter up to simulated time ``now``."""
        if now > self._last_sync:
            self.bytes_total += self.rate_sum * (now - self._last_sync) / BITS_PER_BYTE
            self._last_sync = now

    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        if self.capacity_bps <= 0:
            return 0.0
        return min(1.0, self.rate_sum / self.capacity_bps)

    def __repr__(self) -> str:
        return f"Channel({self.src.fqname}->{self.dst.fqname})"


class Interface:
    """A network interface on a device.

    Mirrors the observable MIB-II attributes: ``ifIndex`` (1-based per
    device), ``ifSpeed`` (bits/s, taken from the attached link), and the
    octet counters (delegated to the attached link's channels).
    """

    def __init__(self, device: "Node", name: str, index: int) -> None:
        self.device = device
        self.name = name
        self.index = index  # ifIndex, 1-based
        self.link: Link | None = None
        self.ip: IPv4Address | None = None
        self.network: IPv4Network | None = None
        self.mac: MacAddress | None = None

    @property
    def fqname(self) -> str:
        return f"{self.device.name}.{self.name}"

    @property
    def speed_bps(self) -> float:
        """ifSpeed: the capacity of the attached link (0 if unattached)."""
        return self.link.capacity_bps if self.link is not None else 0.0

    def tx_channel(self) -> Channel | None:
        """The directed channel this interface transmits on."""
        if self.link is None:
            return None
        return self.link.channel_from(self)

    def rx_channel(self) -> Channel | None:
        """The directed channel this interface receives on."""
        if self.link is None:
            return None
        return self.link.channel_to(self)

    def out_octets(self, now: float) -> float:
        """ifOutOctets at simulated time ``now``."""
        ch = self.tx_channel()
        if ch is None:
            return 0.0
        ch.sync(now)
        return ch.bytes_total

    def in_octets(self, now: float) -> float:
        """ifInOctets at simulated time ``now``."""
        ch = self.rx_channel()
        if ch is None:
            return 0.0
        ch.sync(now)
        return ch.bytes_total

    def peer(self) -> "Interface | None":
        """The interface on the far side of the attached link."""
        if self.link is None:
            return None
        return self.link.other(self)

    def __repr__(self) -> str:
        ip = f" ip={self.ip}" if self.ip else ""
        return f"Interface({self.fqname}{ip})"


class Link:
    """A full-duplex point-to-point link between two interfaces."""

    def __init__(
        self,
        a: Interface,
        b: Interface,
        capacity_bps: float,
        latency_s: float = 0.0005,
    ) -> None:
        if a.link is not None or b.link is not None:
            raise TopologyError(f"interface already linked: {a.fqname if a.link else b.fqname}")
        if capacity_bps <= 0:
            raise TopologyError("link capacity must be positive")
        self.a = a
        self.b = b
        self.capacity_bps = capacity_bps
        self.latency_s = latency_s
        self._ab = Channel(self, a, b, capacity_bps)
        self._ba = Channel(self, b, a, capacity_bps)
        a.link = self
        b.link = self

    def channel_from(self, iface: Interface) -> Channel:
        if iface is self.a:
            return self._ab
        if iface is self.b:
            return self._ba
        raise TopologyError(f"{iface.fqname} is not on {self!r}")

    def channel_to(self, iface: Interface) -> Channel:
        if iface is self.a:
            return self._ba
        if iface is self.b:
            return self._ab
        raise TopologyError(f"{iface.fqname} is not on {self!r}")

    def other(self, iface: Interface) -> Interface:
        if iface is self.a:
            return self.b
        if iface is self.b:
            return self.a
        raise TopologyError(f"{iface.fqname} is not on {self!r}")

    def channels(self) -> tuple[Channel, Channel]:
        return (self._ab, self._ba)

    def __repr__(self) -> str:
        return f"Link({self.a.fqname}<->{self.b.fqname})"


class Node:
    """Base class for all devices."""

    kind = "node"

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.interfaces: list[Interface] = []

    def add_interface(self, name: str | None = None) -> Interface:
        idx = len(self.interfaces) + 1
        iface = Interface(self, name or f"eth{idx - 1}", idx)
        iface.mac = self.network.macs.allocate()
        self.interfaces.append(iface)
        return iface

    def iface(self, index: int) -> Interface:
        """Interface by 1-based ifIndex."""
        return self.interfaces[index - 1]

    def neighbors(self) -> Iterator["Node"]:
        for i in self.interfaces:
            p = i.peer()
            if p is not None:
                yield p.device

    def ips(self) -> list[IPv4Address]:
        return [i.ip for i in self.interfaces if i.ip is not None]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end host: usually one interface, a default gateway, and a load.

    ``load_source`` is an optional callable ``f(now) -> float`` giving
    the host's CPU load average, sampled by RPS host-load sensors.
    """

    kind = "host"

    def __init__(self, network: "Network", name: str) -> None:
        super().__init__(network, name)
        self.gateway_ip: IPv4Address | None = None
        self.load_source: Callable[[float], float] | None = None

    @property
    def ip(self) -> IPv4Address:
        for i in self.interfaces:
            if i.ip is not None:
                return i.ip
        raise TopologyError(f"host {self.name} has no IP address")

    def load(self, now: float) -> float:
        """Current load average (0.0 if no load source attached)."""
        if self.load_source is None:
            return 0.0
        return float(self.load_source(now))


class Router(Node):
    """An L3 router.  The forwarding table is built by ``Network.freeze``.

    ``snmp_reachable`` models administrative reach: the paper's SNMP
    Collector can only talk to agents inside its own domain, and some
    devices simply refuse SNMP — those become virtual switches in the
    discovered topology.
    """

    kind = "router"

    def __init__(self, network: "Network", name: str) -> None:
        super().__init__(network, name)
        #: rows of (prefix, next_hop_ip or None for direct, out Interface)
        self.routes: PrefixTable[tuple[IPv4Network, IPv4Address | None, Interface]] = PrefixTable()
        self.snmp_reachable = True
        #: whether the agent implements the RFC 2096 ipCidrRouteTable
        #: (old gear only has the classic ipRouteTable)
        self.supports_cidr_mib = True

    def lookup_route(self, dst: IPv4Address) -> tuple[IPv4Network, IPv4Address | None, Interface] | None:
        """Longest-prefix-match forwarding decision for ``dst``."""
        return self.routes.match(dst)


class Switch(Node):
    """An L2 learning bridge.

    The forwarding database maps MAC -> port (ifIndex); entries exist
    for every station the spanning tree can reach once the network is
    frozen, mimicking a bridge that has seen traffic from everyone
    (the Bridge-MIB dot1dTpFdbTable view).  ``bridge_id`` orders
    switches for spanning tree election.
    """

    kind = "switch"

    def __init__(self, network: "Network", name: str, bridge_priority: int = 32768) -> None:
        super().__init__(network, name)
        self.bridge_priority = bridge_priority
        #: MAC -> ifIndex of the port leading toward that MAC
        self.fdb: dict[MacAddress, int] = {}
        #: set of ifIndex values blocked by spanning tree
        self.blocked_ports: set[int] = set()
        self.snmp_reachable = True
        #: management address assigned on the segment (switches answer SNMP)
        self.management_ip: IPv4Address | None = None

    @property
    def bridge_id(self) -> tuple[int, int]:
        mac = self.interfaces[0].mac if self.interfaces else None
        return (self.bridge_priority, mac.value if mac else 0)

    def management_mac(self) -> MacAddress:
        """The MAC this switch sources management traffic from."""
        if not self.interfaces:
            raise TopologyError(f"switch {self.name} has no interfaces")
        return self.interfaces[0].mac  # type: ignore[return-value]


class Hub(Node):
    """A shared Ethernet segment (repeater).

    Hubs forward on all ports and have no FDB and no SNMP agent; the
    collectors represent them as *virtual switches* in discovered
    topologies, exactly as the paper describes for shared Ethernet.
    """

    kind = "hub"


class Network:
    """Container for one simulated internetwork.

    Construction protocol::

        net = Network(Engine())
        r = net.add_router("r1")
        h = net.add_host("h1")
        ... net.link(...) / net.assign_subnet(...) ...
        net.freeze()        # routing tables, spanning tree, FDBs
    """

    def __init__(self, engine: Engine | None = None) -> None:
        self.engine = engine or Engine()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self.macs = MacAllocator()
        self._ip_to_iface: dict[IPv4Address, Interface] = {}
        self._frozen = False
        #: L2 state written by ``bridging.run_spanning_tree``: the
        #: segments, attachment point -> its segment, ids of blocked links
        self._segments: "list[Segment] | None" = None
        self._segment_index: "dict[object, Segment]" = {}
        self._blocked_links: set[int] = set()
        #: (src, dst) -> channels of ``paths.compute_path``, valid for
        #: the current forwarding state: cleared by the two functions
        #: that write it (``routing.build_routing_tables``,
        #: ``bridging.run_spanning_tree``)
        self._path_memo: "dict[tuple[Host, Host], tuple[Channel, ...]]" = {}
        #: installed FaultInjector, or None (see repro.faults); kept on
        #: the network so the SNMP client and benchmark collectors can
        #: consult it without new plumbing through every constructor
        self.faults = None
        from repro.netsim.flows import FlowManager  # deferred: circular import

        self.flows: FlowManager = FlowManager(self)

    # -- construction ---------------------------------------------------

    def _add_node(self, node: Node) -> None:
        if self._frozen:
            raise TopologyError("network is frozen")
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def add_host(self, name: str) -> Host:
        host = Host(self, name)
        self._add_node(host)
        return host

    def add_router(self, name: str) -> Router:
        router = Router(self, name)
        self._add_node(router)
        return router

    def add_switch(self, name: str, bridge_priority: int = 32768) -> Switch:
        sw = Switch(self, name, bridge_priority)
        self._add_node(sw)
        return sw

    def add_hub(self, name: str) -> Hub:
        hub = Hub(self, name)
        self._add_node(hub)
        return hub

    def link(
        self,
        a: Node | Interface,
        b: Node | Interface,
        capacity_bps: float,
        latency_s: float = 0.0005,
    ) -> Link:
        """Join two devices (fresh interfaces) or two explicit interfaces."""
        if self._frozen:
            raise TopologyError("network is frozen")
        ia = a if isinstance(a, Interface) else a.add_interface()
        ib = b if isinstance(b, Interface) else b.add_interface()
        ln = Link(ia, ib, capacity_bps, latency_s)
        self.links.append(ln)
        return ln

    def assign_ip(self, iface: Interface, ip: IPv4Address | str, network: IPv4Network | str) -> None:
        ip = IPv4Address(ip)
        network = IPv4Network(network)
        if ip not in network:
            raise TopologyError(f"{ip} not in {network}")
        if ip in self._ip_to_iface:
            raise TopologyError(f"duplicate IP {ip}")
        iface.ip = ip
        iface.network = network
        self._ip_to_iface[ip] = iface

    # -- lookup ---------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no node named {name!r}") from None

    def host(self, name: str) -> Host:
        n = self.node(name)
        if not isinstance(n, Host):
            raise TopologyError(f"{name!r} is a {n.kind}, not a host")
        return n

    def iface_for_ip(self, ip: IPv4Address | str) -> Interface | None:
        return self._ip_to_iface.get(IPv4Address(ip))

    def node_for_ip(self, ip: IPv4Address | str) -> Node | None:
        iface = self.iface_for_ip(ip)
        return iface.device if iface is not None else None

    def addressed_interfaces(self) -> list[Interface]:
        """All interfaces that carry an IP address."""
        return [self._ip_to_iface[ip] for ip in sorted(self._ip_to_iface)]

    def hosts(self) -> list[Host]:
        return [n for n in self.nodes.values() if isinstance(n, Host)]

    def routers(self) -> list[Router]:
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    def switches(self) -> list[Switch]:
        return [n for n in self.nodes.values() if isinstance(n, Switch)]

    @property
    def now(self) -> float:
        return self.engine.now

    # -- finalisation -----------------------------------------------------

    def freeze(self) -> None:
        """Compute routing tables, spanning trees, and bridge FDBs.

        Idempotent; must be called before starting traffic or querying
        paths.
        """
        from repro.netsim import bridging, routing  # deferred: circular import

        routing.build_routing_tables(self)
        bridging.run_spanning_tree(self)
        bridging.populate_fdbs(self)
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen
