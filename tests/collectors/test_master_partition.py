"""Master Collector partitioning and merging edge cases."""

import pytest

from repro import obs
from repro.common.errors import UnknownHostError
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.collectors.base import TopologyRequest
from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.slp import DirectoryAgent
from repro.deploy import deploy_wan


@pytest.fixture
def wan():
    return build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
        ]
    )


class TestPartitioning:
    def test_single_site_query_is_one_group_no_stitching(self, wan):
        dep = deploy_wan(wan)
        with obs.scoped_registry() as reg:
            resp = dep.master.topology(
                TopologyRequest.of([wan.host("cmu", 0).ip, wan.host("cmu", 1).ip])
            )
        fanout = reg.histogram("collectors.master.fanout")
        assert fanout.count == 1 and fanout.max == 1.0
        # no benchmark probing, no fabricated WAN edge within one site
        assert reg.counter("collectors.master.wan_edges").value == 0.0
        ids = {n.id for n in resp.graph.nodes()}
        assert str(wan.host("cmu", 0).ip) in ids
        assert "eth-gw" not in ids

    def test_empty_query_rejected_at_construction(self, wan):
        with pytest.raises(ValueError):
            TopologyRequest.of([])

    def test_unknown_host_raises_in_directory(self, wan):
        dep = deploy_wan(wan)
        with pytest.raises(UnknownHostError):
            dep.directory.lookup("172.16.0.1")

    def test_all_unknown_addresses_reported_unresolved(self, wan):
        dep = deploy_wan(wan)
        with obs.scoped_registry() as reg:
            resp = dep.master.topology(
                TopologyRequest.of(["172.16.0.1", "172.16.0.2"])
            )
        assert set(resp.unresolved) == {"172.16.0.1", "172.16.0.2"}
        assert list(resp.graph.nodes()) == []
        assert reg.counter("collectors.master.unresolved_ips").value == 2.0

    def test_mixed_query_merges_known_and_reports_unknown(self, wan):
        dep = deploy_wan(wan)
        resp = dep.master.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, "172.16.0.1"])
        )
        ids = {n.id for n in resp.graph.nodes()}
        assert str(wan.host("cmu", 0).ip) in ids
        assert resp.unresolved == ("172.16.0.1",)


class TestStackedMasters:
    def _stack(self, wan, extra_prefixes=()):
        dep = deploy_wan(wan)
        top_dir = CollectorDirectory(DirectoryAgent(wan.net))
        top_dir.register(
            dep.master,
            ["10.0.0.0/8", "192.168.0.0/16", *extra_prefixes],
            site="everything",
            remote=True,
        )
        return dep, MasterCollector("top", wan.net, top_dir)

    def test_master_of_masters_merges_and_stitches(self, wan):
        _, top = self._stack(wan)
        with obs.scoped_registry() as reg:
            resp = top.topology(
                TopologyRequest.of([wan.host("cmu", 0).ip, wan.host("eth", 0).ip])
            )
        path = resp.graph.path(
            str(wan.host("cmu", 0).ip), str(wan.host("eth", 0).ip)
        )
        assert "cmu-gw" in path and "eth-gw" in path
        # the inner master's query span nests under the outer master's
        # per-fragment delegation span, which nests under the outer
        # query span — follow the explicit parent_id links
        by_id = {s.span_id: s for s in reg.spans}
        inner = [
            s for s in reg.spans
            if s.name == "collectors.master.topology" and s.parent_id
        ]
        assert inner
        delegate = by_id[inner[0].parent_id]
        assert delegate.name == "collectors.master.delegate"
        outer = by_id[delegate.parent_id]
        assert outer.name == "collectors.master.topology"
        assert outer.parent_id is None
        # one trace spans the whole stacked query
        assert {inner[0].trace_id} == {delegate.trace_id, outer.trace_id}

    def test_unresolved_propagates_through_stack(self, wan):
        # the top master delegates 172.16/12 down; the inner master
        # cannot resolve it either, and the miss surfaces at the top
        _, top = self._stack(wan, extra_prefixes=["172.16.0.0/12"])
        resp = top.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, "172.16.0.1"])
        )
        assert "172.16.0.1" in resp.unresolved
