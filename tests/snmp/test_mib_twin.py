"""Device MIBs and agent lookup against the code they replaced.

``build_router_mib`` spells a route row's index and text from the
prefix's ints, and addresses and MACs format their text and octets from
the int, where each used to mint address objects and join generators.
The oracle is that previous code, kept verbatim below (with the two
``IPv4Network`` properties it read, since deleted) and patched in
while a twin world of the same seed is instrumented: every agent's full
``(oid, value)`` sequence must come out equal.  The previous build had
no ``ipAddrTable``; the oracle gains its rows (:func:`_oracle_addr_rows`)
and nothing else.  ``build_router_mib`` loads the route tables when
first read, and the full walk below reads them.  ``SnmpWorld.agent_at``
finds a text address without parsing it; it must answer as the
address-keyed lookup does.
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.address import IPv4Address, IPv4Network, MacAddress
from repro.netsim.builders import build_campus, build_hub_lan, build_random_wan
from repro.netsim.topology import Interface, Network, Router
from repro.snmp import agent as agent_module
from repro.snmp import oid as O
from repro.snmp.agent import SnmpWorld, instrument_network
from repro.snmp.mib import (
    _ARP_COLUMNS,
    _CIDR_ROUTE_COLUMNS,
    _ROUTE_COLUMNS,
    MibStore,
    _put_if_table,
    _put_rows,
    _Row,
    on_link_stations,
)
from repro.snmp.oid import Oid

# -- the oracle: the previous code, verbatim ---------------------------------


def _parent_ipv4_octets(self: IPv4Address) -> tuple[int, int, int, int]:
    """The four octets, most significant first (the SNMP row index)."""
    v = self._value
    return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)


def _parent_ipv4_str(self: IPv4Address) -> str:
    if self._str is None:
        self._str = ".".join(str(o) for o in self.octets())
    return self._str


def _parent_network_address(self: IPv4Network) -> IPv4Address:
    return IPv4Address(self._net)


def _parent_netmask(self: IPv4Network) -> IPv4Address:
    return IPv4Address(self._mask_for(self._prefixlen))


def _parent_mac_octets(self: MacAddress) -> tuple[int, ...]:
    return tuple((self._value >> (8 * i)) & 0xFF for i in range(5, -1, -1))


def _parent_mac_str(self: MacAddress) -> str:
    return ":".join(f"{o:02x}" for o in self.octets())


def _parent_build_router_mib(
    router: Router,
    net: Network,
    stations: dict[IPv4Network, list[Interface]] | None = None,
) -> MibStore:
    store = MibStore()
    _put_if_table(store, router, net)
    store.put(O.IP_FORWARDING, 1)  # acting as a gateway
    routes: list[_Row] = []
    cidr_routes: list[_Row] = []
    for prefix, next_hop, out_iface in router.routes:
        dest, mask = prefix.network_address, prefix.netmask
        direct = next_hop is None
        # Direct route: next hop is the router's own interface address.
        hop = out_iface.ip if direct else next_hop
        hop_text = str(hop) if hop is not None else "0.0.0.0"
        route_type = O.ROUTE_TYPE_DIRECT if direct else O.ROUTE_TYPE_INDIRECT
        routes.append(
            (dest.octets(), (str(dest), out_iface.index, str(mask), hop_text, route_type))
        )
        if router.supports_cidr_mib:
            # RFC 2096 row: index = (dest, mask, tos=0, next hop)
            hop_octets = hop.octets() if hop is not None else (0, 0, 0, 0)
            cidr_type = O.CIDR_TYPE_LOCAL if direct else O.CIDR_TYPE_REMOTE
            cidr_routes.append(
                (dest.octets() + mask.octets() + (0,) + hop_octets, (out_iface.index, cidr_type))
            )
    _put_rows(store, _ROUTE_COLUMNS, routes)
    _put_rows(store, _CIDR_ROUTE_COLUMNS, cidr_routes)
    _oracle_addr_rows(store, router)

    # ipNetToMediaTable: the router's ARP view of its attached subnets.
    # A steady-state router has seen every on-link station, so one row
    # per addressed interface in each directly attached network.
    if stations is None:
        stations = on_link_stations(net)
    arp: list[_Row] = []
    for iface in router.interfaces:
        if iface.network is None:
            continue
        for other in stations[iface.network]:
            if other.device is router or other.ip is None:
                continue
            index = (iface.index,) + other.ip.octets()
            arp.append((index, (iface.index, str(other.mac), str(other.ip))))
    _put_rows(store, _ARP_COLUMNS, arp)
    return store


def _oracle_addr_rows(store: MibStore, router: Router) -> None:
    """The one addition to the previous build: ipAddrTable, a row per
    address the router holds (RFC 1213), spelled through the address
    objects."""
    for iface in router.interfaces:
        if iface.ip is None or iface.network is None:
            continue
        row = iface.ip.octets()
        store.put(O.IP_AD_ENT_ADDR + row, str(iface.ip))
        store.put(O.IP_AD_ENT_IF_INDEX + row, iface.index)
        store.put(O.IP_AD_ENT_NET_MASK + row, str(iface.network.netmask))


# -- worlds -------------------------------------------------------------------


def _random_wan(seed: int) -> Network:
    rng = random.Random(seed)
    return build_random_wan(
        rng.randint(3, 8),
        seed=seed,
        multi_switch_fraction=0.5,
        wireless_fraction=0.3,
        n_cores=rng.randint(1, 3),
    ).net


BUILDERS = {
    **{f"random_wan_{s}": (lambda s=s: _random_wan(s)) for s in range(20)},
    "campus_3_4": lambda: build_campus(3, 4).net,
    "hub_lan": lambda: build_hub_lan().net,
}


def _instrumented(net: Network) -> SnmpWorld:
    return instrument_network(net)


def _cells(world: SnmpWorld) -> dict[str, list[tuple[tuple[int, ...], object]]]:
    """Every agent's full (oid, value) sequence, in MIB order."""
    return {
        a.device.name: [(o.parts, v) for o, v in a.mib.get_next_n(Oid(()), len(a.mib))]
        for a in world.agents()
    }


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_cell_equals_the_previous_build(name, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(IPv4Address, "octets", _parent_ipv4_octets)
        m.setattr(IPv4Address, "__str__", _parent_ipv4_str)
        m.setattr(IPv4Network, "network_address", property(_parent_network_address), raising=False)
        m.setattr(IPv4Network, "netmask", property(_parent_netmask), raising=False)
        m.setattr(MacAddress, "octets", _parent_mac_octets)
        m.setattr(MacAddress, "__str__", _parent_mac_str)
        m.setattr(agent_module, "build_router_mib", _parent_build_router_mib)
        expected = _cells(_instrumented(BUILDERS[name]()))
    got = _cells(_instrumented(BUILDERS[name]()))
    assert got.keys() == expected.keys()
    for device in expected:
        assert got[device] == expected[device], device


class TestAgentAt:
    @staticmethod
    def _addresses(net: Network) -> list[IPv4Address]:
        return [ip for node in net.nodes.values() for ip in node.ips()]

    def _check(self, world: SnmpWorld, addresses: list[IPv4Address]) -> None:
        for ip in addresses:
            by_address = world.agent_at(ip)
            assert world.agent_at(str(ip)) is by_address
            padded = ".".join(f"{o:03d}" for o in ip.octets())
            assert world.agent_at(padded) is by_address

    def test_text_and_address_find_the_same_agent(self):
        net = _random_wan(3)
        world = instrument_network(net)
        addresses = self._addresses(net)
        assert any(world.agent_at(ip) is None for ip in addresses)  # a host with no agent
        self._check(world, addresses)
        for agent in world.agents():
            world.refresh_device(agent.device)
        self._check(world, addresses)

    def test_register_moves_both_keys(self):
        net = _random_wan(4)
        world = instrument_network(net)
        first, other = world.agents()[:2]
        ip = first.device.ips()[0]
        world.register(other, [ip])
        assert world.agent_at(ip) is other
        assert world.agent_at(str(ip)) is other

    def test_unknown_and_malformed_text(self):
        world = instrument_network(_random_wan(5))
        assert world.agent_at("203.0.113.9") is None
        assert world.agent_at(IPv4Address("203.0.113.9")) is None
        with pytest.raises(ValueError):
            world.agent_at("10.1.0.1_0")
