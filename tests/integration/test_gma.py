"""Tests for the GMA compatibility layer."""

import pytest

from repro import faults
from repro.common.errors import QueryError
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.gma import (
    EVENT_FLOW,
    EVENT_HISTORY,
    EVENT_TOPOLOGY,
    CollectingConsumer,
    CollectorProducer,
    ModelerProducer,
    deregister_producer,
    find_producers,
    register_producer,
)
from repro.netsim.builders import SiteSpec, build_multisite_wan


@pytest.fixture
def stack():
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=5 * MBPS, n_hosts=3),
        ]
    )
    dep = deploy_wan(w)
    return w, dep


class TestProducers:
    def test_master_is_joint_consumer_producer(self, stack):
        w, dep = stack
        producer = CollectorProducer(dep.master)
        ev = producer.query(
            EVENT_TOPOLOGY,
            node_ips=[w.host("a", 0).ip, w.host("b", 0).ip],
        )
        assert ev.type == EVENT_TOPOLOGY
        assert ev.source == "gma:master"
        assert ev.payload.graph.has_node(str(w.host("a", 0).ip))
        # the query consumed from the site collectors underneath
        assert any(c.queries_served > 0 for c in dep.snmp_collectors.values())

    def test_site_collector_as_producer(self, stack):
        w, dep = stack
        producer = CollectorProducer(dep.snmp_collectors["a"])
        ev = producer.query(EVENT_TOPOLOGY, node_ips=[w.host("a", 0).ip, w.host("a", 1).ip])
        assert ev.payload.graph.has_node(str(w.host("a", 1).ip))

    def test_history_events(self, stack):
        w, dep = stack
        # create history first
        dep.session().flow_info(w.host("a", 0), w.host("a", 1))
        dep.start_monitoring()
        w.net.engine.run_until(w.net.now + 60.0)
        producer = CollectorProducer(dep.snmp_collectors["a"])
        ev = producer.query(EVENT_HISTORY, edge_a=str(w.host("a", 0).ip), edge_b="a-sw")
        assert ev.type == EVENT_HISTORY
        assert len(ev.payload.rates_bps) > 3

    def test_missing_params_rejected(self, stack):
        w, dep = stack
        producer = CollectorProducer(dep.master)
        with pytest.raises(QueryError):
            producer.query(EVENT_TOPOLOGY)
        with pytest.raises(QueryError):
            producer.query(EVENT_HISTORY, edge_a="x")
        with pytest.raises(QueryError):
            producer.query("remos.unknown")

    def test_modeler_producer_flow_events(self, stack):
        w, dep = stack
        producer = ModelerProducer(dep.modeler)
        ev = producer.query(EVENT_FLOW, src=w.host("a", 0), dst=w.host("b", 0))
        assert ev.type == EVENT_FLOW
        assert ev.payload.available_bps == pytest.approx(5 * MBPS, rel=0.1)


class TestDirectory:
    """Producers are found through the deployment's SLP directory agent."""

    def test_find_by_event_type(self, stack):
        w, dep = stack
        agent = dep.directory.agent
        cp = CollectorProducer(dep.master)
        mp = ModelerProducer(dep.modeler)
        register_producer(agent, cp)
        register_producer(agent, mp)
        assert find_producers(agent, EVENT_TOPOLOGY) == [cp]
        assert find_producers(agent, EVENT_HISTORY) == [cp]
        assert find_producers(agent, EVENT_FLOW) == [mp]
        assert find_producers(agent, "nope") == []
        # the Master's own view of the same agent is untouched
        assert dep.directory.sites() == ["a", "b"]

    def test_unregister(self, stack):
        w, dep = stack
        agent = dep.directory.agent
        cp = CollectorProducer(dep.master)
        register_producer(agent, cp)
        deregister_producer(agent, cp)
        deregister_producer(agent, cp)  # idempotent
        assert find_producers(agent, EVENT_TOPOLOGY) == []
        assert find_producers(agent, EVENT_HISTORY) == []

    def test_double_register_no_dup(self, stack):
        w, dep = stack
        agent = dep.directory.agent
        cp = CollectorProducer(dep.master)
        register_producer(agent, cp)
        register_producer(agent, cp)
        assert find_producers(agent, EVENT_TOPOLOGY) == [cp]


class TestSubscriptions:
    def test_periodic_delivery(self, stack):
        w, dep = stack
        producer = ModelerProducer(dep.modeler)
        consumer = CollectingConsumer()
        sub = producer.subscribe(
            EVENT_FLOW, consumer, period_s=30.0,
            src=w.host("a", 0), dst=w.host("b", 0),
        )
        w.net.engine.run_until(w.net.now + 100.0)
        assert len(consumer.events) == 3
        assert all(e.type == EVENT_FLOW for e in consumer.events)
        sub.cancel()
        n = len(consumer.events)
        w.net.engine.run_until(w.net.now + 100.0)
        assert len(consumer.events) == n
        assert not sub.active

    def test_a_degraded_answer_is_delivered_with_its_status(self, stack):
        w, dep = stack
        consumer = CollectingConsumer()
        ModelerProducer(dep.modeler).subscribe(
            EVENT_FLOW, consumer, period_s=30.0,
            src=w.host("a", 0), dst=w.host("b", 0),
        )
        w.net.engine.run_until(w.net.now + 40.0)
        faults.crash_collector(dep.snmp_collectors["b"], 1000.0)
        w.net.engine.run_until(w.net.now + 60.0)
        assert [str(e.payload.status) for e in consumer.events] == ["ok", "stale", "stale"]

    def test_subscribe_unknown_type_rejected(self, stack):
        w, dep = stack
        producer = ModelerProducer(dep.modeler)
        with pytest.raises(QueryError):
            producer.subscribe("remos.nope", CollectingConsumer(), 10.0)
