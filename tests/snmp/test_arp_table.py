"""ipNetToMediaTable against a brute-force scan of the network.

``instrument_network`` groups the attached, addressed interfaces by
subnet once and hands the grouping to every router's MIB builder; the
rows must be the ones a scan of every interface per router interface
finds, and the whole MIB the one the two-argument builder makes.
"""

import pytest

from repro.common.units import MBPS
from repro.netsim.builders import (
    SiteSpec,
    build_multisite_wan,
    build_random_wan,
    build_switched_lan,
)
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.mib import build_router_mib
from repro.snmp.oid import Oid


def _overlapping_prefixes() -> Network:
    """10.0.0.0/8 and 10.0.0.0/16 behind one router: a station of the
    /16 is on link for the /8 interface too, and one of the /8 for the
    /16 interface only if its address falls inside it."""
    net = Network()
    r = net.add_router("r")
    wide = [net.add_host(f"w{i}") for i in range(2)]
    narrow = net.add_host("n0")
    for host, ip, subnet, gw in (
        (wide[0], "10.0.255.10", "10.0.0.0/8", "10.0.255.1"),
        (wide[1], "10.77.0.10", "10.0.0.0/8", "10.77.0.1"),
        (narrow, "10.0.0.10", "10.0.0.0/16", "10.0.0.1"),
    ):
        link = net.link(r, host, 100 * MBPS)
        net.assign_ip(link.a, gw, subnet)
        net.assign_ip(link.b, ip, subnet)
    net.freeze()
    return net


WORLDS = {
    "random_wan_16": lambda: build_random_wan(16, seed=3, hosts_per_site=(2, 4)).net,
    "multisite_wan_8": lambda: build_multisite_wan(
        [SiteSpec(f"s{i}", access_bps=10 * MBPS, n_hosts=3) for i in range(8)]
    ).net,
    "switched_lan_6": lambda: build_switched_lan(6, fanout=8).net,
    "overlapping_prefixes": _overlapping_prefixes,
}


def _walk(mib) -> list[tuple[Oid, object]]:
    return [(oid, mib.get(oid)) for oid in mib.oids()]


def _arp_rows(mib) -> dict[tuple[int, ...], tuple[object, object, object]]:
    """{(ifIndex, a, b, c, d): (ifIndex, MAC, address)} as served."""
    n = len(O.IP_NET_TO_MEDIA_IF_INDEX)
    columns = [
        {oid.parts[n:]: value for oid, value in _walk(mib) if oid.starts_with(column)}
        for column in (
            O.IP_NET_TO_MEDIA_IF_INDEX,
            O.IP_NET_TO_MEDIA_PHYS_ADDRESS,
            O.IP_NET_TO_MEDIA_NET_ADDRESS,
        )
    ]
    assert columns[0].keys() == columns[1].keys() == columns[2].keys()
    return {k: (columns[0][k], columns[1][k], columns[2][k]) for k in columns[0]}


def _brute_force(router, net) -> dict[tuple[int, ...], tuple[object, object, object]]:
    """Every addressed interface with a link, inside the router
    interface's subnet, not the router itself."""
    rows = {}
    for iface in router.interfaces:
        if iface.network is None:
            continue
        for node in net.nodes.values():
            for other in node.interfaces:
                if other.ip is None or other.link is None or node is router:
                    continue
                if other.ip in iface.network:
                    rows[(iface.index,) + other.ip.octets()] = (
                        iface.index, str(other.mac), str(other.ip),
                    )
    return rows


@pytest.mark.parametrize("name", sorted(WORLDS))
class TestArpOracle:
    def test_rows_equal_brute_force_scan(self, name):
        net = WORLDS[name]()
        world = instrument_network(net)
        assert net.routers()
        n_rows = 0
        for router in net.routers():
            expected = _brute_force(router, net)
            assert _arp_rows(world.agent_for(router.name).mib) == expected
            n_rows += len(expected)
        assert n_rows > 0

    def test_grouped_build_equals_two_argument_build(self, name):
        net = WORLDS[name]()
        world = instrument_network(net)
        for router in net.routers():
            assert _walk(world.agent_for(router.name).mib) == _walk(
                build_router_mib(router, net)
            )

    def test_detached_station_ages_out_on_refresh(self, name):
        net = WORLDS[name]()
        world = instrument_network(net)
        host = net.hosts()[0]
        iface = host.interfaces[0]
        gateway = next(
            r for r in net.routers()
            if any(i.network == iface.network for i in r.interfaces)
        )

        def has_row():
            rows = _arp_rows(world.agent_for(gateway.name).mib)
            return any(key[1:] == iface.ip.octets() for key in rows)

        assert has_row()
        iface.link = None
        assert has_row()  # the MIB is a snapshot until the device is refreshed
        world.refresh_device(gateway)
        assert not has_row()
        assert _arp_rows(world.agent_for(gateway.name).mib) == _brute_force(gateway, net)


def test_overlapping_prefixes_cross_subnets():
    """The case the per-subnet grouping must not lose: rows that come
    from a station's address, not from the subnet it was configured in."""
    net = _overlapping_prefixes()
    rows = _arp_rows(instrument_network(net).agent_for("r").mib)
    # interfaces 1 and 2 are on the /8, 3 on the /16: the /16 station
    # shows on all three
    assert {k[0] for k in rows if k[1:] == (10, 0, 0, 10)} == {1, 2, 3}
    # of the /8 stations only 10.0.255.10 falls inside 10.0.0.0/16
    assert (3, 10, 0, 255, 10) in rows
    assert (3, 10, 77, 0, 10) not in rows
