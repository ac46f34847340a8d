"""The gateway's interface on a host's subnet, read from ``ipAddrTable``.

A path that ends at a host's gateway learns the gateway's interface on
the host's subnet from one GET of the gateway's own ``ipAddrTable`` row
(``Discovery.iface_on_subnet``); a path that goes on past the gateway
walks the route table and reads it there.  The oracle is that route
table: for every router and every subnet it is attached to, in campus,
hub and random-WAN worlds, both reads must name the same interface.
Where the row cannot answer — an address on another subnet, an agent
with no ``ipAddrTable`` rows — the lookup falls back to the route table;
a dropped PDU is an error, as it is for every other discovery read.

A cold 16-site WAN answer reads no route table at all, and a cold
discovery on the campus and hub worlds costs no more PDUs than the walk
did (campus 73, hub 16 before ``ipAddrTable`` existed).
"""

from __future__ import annotations

import random

import pytest

from repro import faults, obs
from repro.collectors.discovery import Discovery
from repro.collectors.snmp_collector import SnmpCollectorConfig
from repro.common.errors import AgentUnreachableError
from repro.deploy import deploy_campus, deploy_lan, deploy_wan
from repro.netsim.address import IPv4Network
from repro.netsim.builders import build_campus, build_hub_lan, build_random_wan
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp import client as snmp_client
from repro.snmp.agent import SnmpWorld, instrument_network
from repro.snmp.client import SnmpClient
from repro.snmp.oid import Oid

def _random_wan(seed: int) -> Network:
    rng = random.Random(seed)
    return build_random_wan(
        rng.randint(3, 8),
        seed=seed,
        multi_switch_fraction=0.5,
        wireless_fraction=0.3,
        n_cores=rng.randint(1, 3),
    ).net


WORLDS = {
    "campus": lambda: build_campus(3, 4).net,
    "hub": lambda: build_hub_lan().net,
    **{f"random_wan_{seed}": (lambda seed=seed: _random_wan(seed)) for seed in range(8)},
}

#: PDUs of one cold ``topology()`` before routers served ipAddrTable
PARENT_COLD_PDUS = {"campus": 73, "hub": 16}


def _discovery(world: SnmpWorld) -> Discovery:
    """A discovery with no state, asking as a host of the world would."""
    host = next(h for h in world.net.hosts() if h.ip is not None)
    config = SnmpCollectorConfig(domains=[IPv4Network("0.0.0.0/0")], gateways=[])
    return Discovery(SnmpClient(world, host.ip), config, {})


def _attachments(net: Network):
    """(router address, subnet) for every addressed router interface."""
    for router in net.routers():
        for iface in router.interfaces:
            if iface.ip is not None and iface.network is not None:
                yield str(iface.ip), iface.network


def _from_route_table(world: SnmpWorld, router_ip: str, subnet: IPv4Network) -> int:
    """The route-table answer: walk first, then ask."""
    discovery = _discovery(world)
    discovery.route_table(router_ip)
    return discovery.iface_on_subnet(router_ip, subnet)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_the_address_row_names_the_route_tables_interface(name):
    net = WORLDS[name]()
    world = instrument_network(net)
    attachments = list(_attachments(net))
    assert attachments
    for router_ip, subnet in attachments:
        discovery = _discovery(world)
        got = discovery.iface_on_subnet(router_ip, subnet)
        # one GET, no route table walked, the answer kept
        assert discovery.client.pdu_count == 1, (router_ip, subnet)
        assert discovery.state.route_tables == {}
        assert discovery.state.subnet_ifaces == {(router_ip, subnet): got}
        assert got == _from_route_table(world, router_ip, subnet), (router_ip, subnet)
        # asked again: from the memo, no PDU
        assert discovery.iface_on_subnet(router_ip, subnet) == got
        assert discovery.client.pdu_count == 1


class TestFallbacks:
    @staticmethod
    def _campus():
        net = build_campus(3, 4).net
        return net, instrument_network(net)

    def test_an_address_on_another_subnet_falls_back_to_the_walk(self):
        net, world = self._campus()
        router = next(r for r in net.routers() if len([i for i in r.interfaces if i.ip]) >= 2)
        own, other = [i for i in router.interfaces if i.ip is not None][:2]
        assert other.network is not None
        discovery = _discovery(world)
        # own.ip's row puts it on own.network, not on other.network
        got = discovery.iface_on_subnet(str(own.ip), other.network)
        assert got == other.index
        assert str(own.ip) in discovery.state.route_tables
        assert discovery.state.subnet_ifaces == {}

    def test_an_agent_without_address_rows_falls_back_to_the_walk(self):
        net, world = self._campus()
        router_ip, subnet = next(_attachments(net))
        mib = world.agent_at(router_ip).mib
        for column in (O.IP_AD_ENT_ADDR, O.IP_AD_ENT_IF_INDEX, O.IP_AD_ENT_NET_MASK):
            for oid in [o for o in mib.oids() if o.starts_with(column)]:
                mib.remove(oid)
        assert not any(o.starts_with(O.IP_ADDR_TABLE) for o in mib.oids())
        discovery = _discovery(world)
        assert discovery.iface_on_subnet(router_ip, subnet) == _from_route_table(
            world, router_ip, subnet
        )
        assert router_ip in discovery.state.route_tables
        assert discovery.state.subnet_ifaces == {}

    def test_a_dropped_pdu_raises_and_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(snmp_client, "RETRIES", 0)
        hub = build_hub_lan()
        dep = deploy_lan(hub)
        faults.install(dep, faults.FaultPlan(seed=1, snmp_drop_prob=1.0))
        discovery = _discovery(dep.world)
        with pytest.raises(AgentUnreachableError):
            discovery.iface_on_subnet("10.9.0.1", IPv4Network(hub.subnet))
        assert discovery.client.pdu_count == 1  # the GET, timed out: no walk after it
        assert discovery.state.route_tables == {}
        assert discovery.state.subnet_ifaces == {}


class TestColdPduCounts:
    def test_campus_and_hub_cost_no_more_than_the_walk(self):
        campus = build_campus(3, 4)
        dep = deploy_campus(campus)
        # hosts on three subnets, two of one: cross-subnet and same-subnet paths
        dep.session().topology([s.hosts[0] for s in campus.subnets] + [campus.subnets[0].hosts[1]])
        hub = build_hub_lan()
        hub_dep = deploy_lan(hub)
        hub_dep.session().topology(hub.hosts)
        for name, d in (("campus", dep), ("hub", hub_dep)):
            pdus = sum(c.client.pdu_count for c in d.snmp_collectors.values())
            assert pdus <= PARENT_COLD_PDUS[name], name

    def test_a_cold_wan_answer_builds_and_walks_no_route_table(self):
        world = build_random_wan(16, seed=7, hosts_per_site=(2, 4))
        dep = deploy_wan(world)
        sites = sorted(world.sites)
        pairs = [
            (world.host(a, 0), world.host(b, 0))
            for a, b in zip(sites, sites[1:] + sites[:1])
        ]
        walked: list[Oid] = []
        for agent in dep.world.agents():
            get_next_n = agent.mib.get_next_n

            def spy(oid, n, get_next_n=get_next_n):
                walked.append(oid)
                return get_next_n(oid, n)

            agent.mib.get_next_n = spy
        with obs.scoped_registry():
            answers = dep.session().flow_info_many(pairs)
        assert all(a.status.name == "OK" for a in answers)
        routers = [a for a in dep.world.agents() if a.device.kind == "router"]
        assert routers and all(a.mib._deferred for a in routers)
        tables = (O.IP_ROUTE_TABLE, O.IP_CIDR_ROUTE_TABLE)
        assert not [o for o in walked if any(o.starts_with(t) for t in tables)]
