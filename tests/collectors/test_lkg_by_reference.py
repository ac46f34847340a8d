"""The Master keeps the fragment a collector returns, frozen, not a copy.

``MasterCollector._store_lkg`` stores the response graph itself as the
registration's last-known-good fragment, and ``_serve_lkg`` copies it on
the way out.  That is only sound while nothing edits a fragment after
the collector hands it over.  The merged answer shares node and edge
records with its fragments, and own-flow crediting used to write into
those records.  These tests hold the contract on flat and sharded
planes: the stored object is the collector's, it refuses edits, and an
own-flows query, fresh or served from the store while the site's
collector is down, leaves it equal by ``repr`` to what the collector
returned.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.collectors.master import MasterCollector
from repro.collectors.sharding import ShardingConfig
from repro.common.errors import TopologyError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.modeler.graph import TopoEdge, TopologyGraph, TopoNode
from repro.netsim.builders import SiteSpec, build_multisite_wan

SITES = ("a", "b", "c")


def _content(graph: TopologyGraph) -> str:
    return repr((graph.nodes(), graph.edges()))


@pytest.fixture(params=[False, True], ids=["flat", "sharded"])
def stack(request, monkeypatch):
    """A loaded three-site WAN whose Masters record, for every fragment
    they store, the graph object and its content at that moment."""
    stored: list[tuple[TopologyGraph, str]] = []
    store = MasterCollector._store_lkg

    def recording(self, d, sub):
        stored.append((sub.graph, _content(sub.graph)))
        store(self, d, sub)

    monkeypatch.setattr(MasterCollector, "_store_lkg", recording)
    world = build_multisite_wan(
        [SiteSpec(name, access_bps=10 * MBPS, n_hosts=2) for name in SITES]
    )
    dep = deploy_wan(
        world, sharding=ShardingConfig(n_shards=2) if request.param else None
    )
    world.net.flows.start_flow(
        world.host("a", 0), world.host("b", 0), demand_bps=4 * MBPS, label="app"
    )
    world.net.engine.run_until(10.0)
    return world, dep, stored


def _held(dep) -> list[TopologyGraph]:
    return [graph for m in dep.master.iter_masters() for graph, *_ in m._lkg.values()]


def _ask(world, dep):
    a, b = world.host("a", 0), world.host("b", 0)
    return dep.session().flow_info_many([(a, b)], own_flows=[(a, b, 4 * MBPS)])


def test_the_store_holds_the_collectors_graph_frozen(stack):
    world, dep, stored = stack
    (answer,) = _ask(world, dep)
    assert answer.status == QueryStatus.OK
    held = _held(dep)
    assert held and all(g.frozen for g in held)
    assert {id(g) for g in held} <= {id(g) for g, _ in stored}


def test_an_own_flows_query_leaves_the_held_fragment_as_returned(stack):
    world, dep, stored = stack
    (first,) = _ask(world, dep)
    # the credit took effect on the answer ...
    assert first.available_bps > 6 * MBPS
    # ... and not on what the store holds
    as_returned = {id(g): content for g, content in stored}
    for graph in _held(dep):
        assert _content(graph) == as_returned[id(graph)]


def test_a_forced_serve_copies_and_leaves_the_held_fragment_as_returned(stack):
    world, dep, stored = stack
    _ask(world, dep)
    before = [(g, _content(g)) for g in _held(dep)]
    faults.crash_collector(dep.snmp_collectors["b"], 600.0)
    with obs.scoped_registry() as reg:
        (served,) = _ask(world, dep)
    assert served.status == QueryStatus.STALE
    assert any(
        name.endswith(".lkg_served") for name in reg.metric_names()
    ), "the answer did not come from the store"
    for graph, content in before:
        assert _content(graph) == content


def test_editing_a_held_fragment_raises(stack):
    world, dep, _ = stack
    _ask(world, dep)
    graph = _held(dep)[0]
    node = graph.nodes()[0]
    with pytest.raises(TopologyError):
        graph.add_node(TopoNode("intruder", node.kind))
    with pytest.raises(TopologyError):
        graph.add_edge(TopoEdge(node.id, node.id))
    with pytest.raises(TopologyError):
        graph.merge(TopologyGraph())
    with pytest.raises(TopologyError):
        graph.remove_node(node.id)
