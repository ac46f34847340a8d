"""Concurrent Master delegation and batched monitor polling.

The Master charges the *makespan* of its sub-queries (on
``rpc.max_parallel`` workers) rather than their sum; the SNMP
collector's polling sweep coalesces all links behind one agent into a
single multi-varbind PDU.  Both must change only costs, never answers.
"""

import pytest

from repro import obs
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.netsim.engine import Engine
from repro.collectors.base import TopologyRequest
from repro.deploy import deploy_lan, deploy_wan
from repro.modeler.graph import TopologyGraph
from repro.snmp import oid as O
from repro.snmp.client import RETRIES, SnmpClient


class TestOverlapScope:
    def test_unbounded_width_charges_max(self):
        eng = Engine()
        with eng.overlap() as ov:
            for d in (0.3, 0.1, 0.2):
                with ov.task():
                    eng.advance(d)
        assert ov.serial_s == pytest.approx(0.6)
        assert ov.overlapped_s == pytest.approx(0.3)
        assert ov.saved_s == pytest.approx(0.3)
        assert eng.now == pytest.approx(0.3)

    def test_width_limits_concurrency(self):
        eng = Engine()
        with eng.overlap(width=2) as ov:
            for d in (1.0, 1.0, 1.0, 1.0):
                with ov.task():
                    eng.advance(d)
        # 4 unit tasks on 2 workers: makespan 2, not 1 and not 4
        assert ov.overlapped_s == pytest.approx(2.0)
        assert eng.now == pytest.approx(2.0)

    def test_empty_scope_is_free(self):
        eng = Engine()
        with eng.overlap() as ov:
            pass
        assert ov.saved_s == 0.0
        assert eng.now == 0.0

    def test_negative_width_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            with eng.overlap(width=-1):
                pass


@pytest.fixture
def wan4():
    w = build_multisite_wan(
        [
            SiteSpec(f"s{i}", access_bps=10 * MBPS, n_hosts=2)
            for i in range(4)
        ]
    )
    dep = deploy_wan(w)
    # model site collectors as remote peers so delegation RPC cost
    # (the thing being overlapped) dominates the warm query
    for r in dep.directory.registrations():
        r.remote = True
    ips = [w.host(f"s{i}", 0).ip for i in range(4)]
    dep.master.topology(TopologyRequest.of(ips))  # cold pass
    return w, dep, ips


class TestConcurrentDelegation:
    def _warm_query_cost(self, w, dep, ips):
        req = TopologyRequest(
            tuple(str(ip) for ip in ips), include_dynamics=False
        )
        t0 = w.net.now
        resp = dep.master.topology(req)
        return w.net.now - t0, resp

    def test_parallel_charges_makespan_not_sum(self, wan4):
        w, dep, ips = wan4
        dep.master.rpc.max_parallel = 1
        serial_cost, serial_resp = self._warm_query_cost(w, dep, ips)
        dep.master.rpc.max_parallel = 8
        with obs.scoped_registry() as reg:
            parallel_cost, parallel_resp = self._warm_query_cost(w, dep, ips)
        assert parallel_cost < serial_cost * 0.6
        saved = reg.histogram("collectors.master.overlap_saved_s")
        assert saved.count == 1 and saved.sum > 0
        # same answer either way
        assert {n.id for n in parallel_resp.graph.nodes()} == {
            n.id for n in serial_resp.graph.nodes()
        }
        assert parallel_resp.graph.num_edges() == serial_resp.graph.num_edges()

    def test_width_one_saves_nothing(self, wan4):
        w, dep, ips = wan4
        dep.master.rpc.max_parallel = 1
        with obs.scoped_registry() as reg:
            self._warm_query_cost(w, dep, ips)
        saved = reg.histogram("collectors.master.overlap_saved_s")
        assert saved.sum == pytest.approx(0.0)


class TestWanEdgeOrdering:
    def test_missing_anchor_skips_probing_entirely(self, wan4):
        """has_node is checked before any benchmark measurement, so a
        missing anchor costs neither sim time nor probe RPCs."""
        w, dep, _ = wan4
        g = TopologyGraph()
        t0 = w.net.now
        with obs.scoped_registry() as reg:
            dep.master._add_wan_edge(g, "s0", "ghost-a", "s1", "ghost-b", t0)
        assert w.net.now == t0
        assert reg.counter("collectors.master.wan_edges").value == 0.0
        assert g.num_edges() == 0


@pytest.fixture
def monitored_lan():
    lan = build_switched_lan(8, fanout=4)  # several switches = several agents
    dep = deploy_lan(lan)
    dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # creates monitors
    coll = dep.snmp_collectors["lan"]
    assert coll.monitors
    return lan, dep, coll


class TestBatchedPolling:
    def test_one_pdu_per_agent(self, monitored_lan):
        lan, dep, coll = monitored_lan
        agents = {k.agent_ip for k in coll.monitors}
        before = coll.client.pdu_count
        with obs.scoped_registry() as reg:
            coll.poll_once()
        assert coll.client.pdu_count - before == len(agents)
        batches = reg.histogram("collectors.snmp.poll.batch_links")
        assert batches.count == len(agents)
        assert batches.sum == len(coll.monitors)

    def test_batched_values_match_direct_reads(self, monitored_lan):
        """The coalesced PDU records exactly the counters a per-link
        read would have seen (no flows running, so counters are
        static)."""
        lan, dep, coll = monitored_lan
        coll.poll_once()
        probe = SnmpClient(dep.world, lan.hosts[1].ip)
        for key, mon in coll.monitors.items():
            t, inb, outb = mon.samples[-1]
            expect_in, expect_out = probe.get_many(
                key.agent_ip,
                [O.IF_IN_OCTETS + key.ifindex, O.IF_OUT_OCTETS + key.ifindex],
            )
            assert (inb, outb) == (float(expect_in), float(expect_out))

    def test_dead_agent_fails_whole_batch_cheaply(self, monitored_lan):
        lan, dep, coll = monitored_lan
        agents = sorted({k.agent_ip for k in coll.monitors})
        assert len(agents) > 1
        victim_ip = agents[0]
        dep.world.agent_at(victim_ip).device.snmp_reachable = False
        dead_keys = {k for k in coll.monitors if k.agent_ip == victim_ip}
        timeouts_before = coll.client.timeout_count
        coll.poll_once()
        # one request (first try plus its retries) covers every link
        # behind the dead agent, not one timeout per link
        assert len(dead_keys) > 1
        assert coll.client.timeout_count - timeouts_before == 1 + RETRIES
        for k in dead_keys:
            assert coll.monitors[k].sample_failures == 1
        # monitors behind live agents still got their sample
        live = [m for k, m in coll.monitors.items() if k not in dead_keys]
        assert live and all(m.sample_failures == 0 for m in live)
