"""Failure injection and robustness across the full stack.

§6.2: "Problems range from: network features that we had not
encountered before ..., and network elements that were misconfigured or
have non-standard features (e.g. non-standard SNMP implementations) ...
Remos currently assumes a fairly static environment, so network
failures and host movement can confuse Remos."

These tests inject exactly those faults and check the system degrades
the way the paper prescribes (virtual switches for what it cannot see,
stale-but-served answers, graceful skips) rather than falling over.
"""

from repro.common.errors import SnmpError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.collectors.base import TopologyRequest
from repro.deploy import deploy_lan, deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.netsim.mobility import rehome_host
from repro.snmp import oid as O


class TestAgentFailuresMidRun:
    def test_polling_survives_dead_agent(self):
        lan = build_switched_lan(8, fanout=8)
        dep = deploy_lan(lan)
        dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.start_monitoring()
        lan.net.engine.run_until(lan.net.now + 30.0)
        # the switch agent dies
        lan.switches[0].snmp_reachable = False
        lan.net.engine.run_until(lan.net.now + 30.0)
        coll = dep.snmp_collectors["lan"]
        failures = sum(m.sample_failures for m in coll.monitors.values())
        assert failures > 0, "poller must have hit the dead agent"
        # queries still answered from the last known data
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        assert ans.available_bps > 0

    def test_dead_router_mid_run_degrades_new_discovery(self):
        w = build_multisite_wan(
            [
                SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
                SiteSpec("b", access_bps=10 * MBPS, n_hosts=3),
            ]
        )
        dep = deploy_wan(w)
        # warm the a-site collector
        dep.session().flow_info(w.host("a", 0), w.host("a", 1))
        # now the a gateway stops answering SNMP
        w.sites["a"].router.snmp_reachable = False
        # cached paths still answer
        ans = dep.session().flow_info(w.host("a", 0), w.host("a", 1))
        assert ans.available_bps > 0
        # brand-new discovery that needs the dead gateway cannot resolve
        coll = dep.snmp_collectors["a"]
        coll.flush_caches()
        resp = coll.topology(
            TopologyRequest.of([w.host("a", 0).ip, w.host("a", 2).ip])
        )
        assert resp.unresolved, "nothing reachable without the gateway"


class TestNonStandardMibs:
    def test_switch_missing_fdb_status_column(self):
        """A vendor that never implemented dot1dTpFdbStatus: the bridge
        collector treats rows as learned entries and carries on."""
        from repro.snmp.agent import instrument_network
        from repro.collectors.bridge_collector import BridgeCollector

        lan = build_switched_lan(8, fanout=4)
        world = instrument_network(lan.net)
        # strip the status column from one switch's MIB
        broken = lan.switches[1]
        agent = world.agent_for(broken.name)
        for mac in list(broken.fdb):
            agent.mib.remove(O.DOT1D_TP_FDB_STATUS + mac.octets())
        bc = BridgeCollector(
            "bc", lan.net, world, lan.hosts[0].ip,
            {sw.name: sw.management_ip for sw in lan.switches},
        )
        db = bc.startup()
        # all hosts still located (the broken switch's self entry now
        # looks like a station, which the inference tolerates)
        for h in lan.hosts:
            assert db.locate(h.interfaces[0].mac) is not None

    def test_router_missing_arp_rows_falls_back_to_vswitch(self):
        """No ipNetToMedia support: L2 expansion cannot resolve MACs,
        so the subnet is represented as a virtual switch."""
        from repro.snmp.agent import instrument_network
        from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
        from repro.netsim.address import IPv4Address, IPv4Network

        lan = build_switched_lan(6, fanout=8)
        world = instrument_network(lan.net)
        gw_ip = next(i.ip for i in lan.router.interfaces if i.ip is not None)
        agent = world.agent_for("gw")
        # strip the whole ARP table
        doomed = [o for o in agent.mib.oids() if o.starts_with(O.IP_NET_TO_MEDIA_TABLE)]
        for o in doomed:
            agent.mib.remove(o)
        coll = SnmpCollector(
            "snmp", lan.net, world, lan.hosts[0].ip,
            SnmpCollectorConfig(
                domains=[IPv4Network(lan.subnet)],
                gateways=[(IPv4Network(lan.subnet), gw_ip)],
            ),
        )
        resp = coll.topology(
            TopologyRequest.of([lan.hosts[0].ip, lan.hosts[5].ip])
        )
        assert not resp.unresolved
        kinds = {n.kind for n in resp.graph.nodes()}
        assert "vswitch" in kinds
        # still connected
        path = resp.graph.path(str(lan.hosts[0].ip), str(lan.hosts[5].ip))
        assert len(path) == 3  # host - vswitch - host


class TestHostMovementConfusion:
    def test_stale_cache_then_recovery(self):
        """The §6.2 confusion and its remedy: after a host moves, the
        SNMP collector's cached path is stale; the bridge collector's
        location monitoring notices, and a cache flush re-discovers the
        true path."""
        lan = build_switched_lan(16, fanout=4)
        dep = deploy_lan(lan)
        coll = dep.snmp_collectors["lan"]
        bridge = dep.bridge_collectors["lan"]
        h = lan.hosts[0]
        mac = h.interfaces[0].mac
        r1 = coll.topology(TopologyRequest.of([h.ip, lan.hosts[15].ip]))
        old_path = r1.graph.path(str(h.ip), str(lan.hosts[15].ip))

        # the host moves to the far leaf switch
        new_leaf = lan.hosts[15].interfaces[0].peer().device
        rehome_host(lan.net, h, new_leaf)
        dep.world.refresh_device(new_leaf)
        for sw in lan.switches:
            dep.world.refresh_device(sw)

        # Remos is confused: the cached answer still shows the old path
        r2 = coll.topology(TopologyRequest.of([h.ip, lan.hosts[15].ip]))
        assert r2.graph.path(str(h.ip), str(lan.hosts[15].ip)) == old_path

        # the bridge collector's monitoring notices the move...
        assert bridge.verify_location(mac) is True
        # ...and after a flush the collector discovers the new reality
        coll.flush_caches()
        r3 = coll.topology(TopologyRequest.of([h.ip, lan.hosts[15].ip]))
        new_path = r3.graph.path(str(h.ip), str(lan.hosts[15].ip))
        assert new_path != old_path
        assert new_leaf.name in new_path


class TestOverlappingDomains:
    def test_longest_prefix_wins_in_directory(self):
        w = build_multisite_wan(
            [
                SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
                SiteSpec("b", access_bps=10 * MBPS, n_hosts=3),
            ]
        )
        dep = deploy_wan(w)
        # register a bogus catch-all collector; real sites are more specific
        bogus = dep.snmp_collectors["b"]
        dep.directory.register(bogus, ["10.0.0.0/8"], site="catchall")
        reg = dep.directory.lookup(w.host("a", 0).ip)
        assert reg.site == "a", "the /16 must beat the /8"


class TestBenchmarkFailureModes:
    def test_unstitched_sites_answer_failed(self):
        """Without benchmark endpoints the WAN edge cannot be built;
        flow queries across sites answer FAILED, not a crash."""
        w = build_multisite_wan(
            [
                SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
                SiteSpec("b", access_bps=10 * MBPS, n_hosts=3),
            ]
        )
        dep = deploy_wan(w)
        # remove benchmark endpoints
        dep.directory._benchmarks.clear()
        ans = dep.session().flow_info(w.host("a", 0), w.host("b", 0))
        assert ans.status == QueryStatus.FAILED
        assert ans.available_bps == 0.0 and ans.path == ()
        # intra-site queries unaffected
        ans = dep.session().flow_info(w.host("a", 0), w.host("a", 1))
        assert ans.available_bps > 0
