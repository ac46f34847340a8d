"""RemosSession: the status-carrying API facade — the only query path
into the Modeler now that the strict (raising) shims are deleted."""

import pytest

from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_lan, deploy_wan
from repro.modeler.api import FlowAnswer, Modeler, NodeAnswer, TopologyAnswer
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.session import RemosSession


@pytest.fixture
def lan_dep():
    lan = build_switched_lan(8, fanout=4)
    return lan, deploy_lan(lan)


@pytest.fixture
def wan_dep():
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=10 * MBPS, n_hosts=3),
        ]
    )
    return w, deploy_wan(w)


class TestSessionAnswers:
    def test_flow_info_carries_status_age_provenance(self, wan_dep):
        w, dep = wan_dep
        ans = dep.session().flow_info(w.host("a", 0), w.host("b", 0))
        assert isinstance(ans, FlowAnswer)
        assert ans.status == QueryStatus.OK
        assert ans.ok and not ans.degraded
        assert ans.provenance == ("a", "b")
        assert ans.available_bps > 0

    def test_topology_answer(self, wan_dep):
        w, dep = wan_dep
        ans = dep.session().topology([w.host("a", 0), w.host("b", 0)])
        assert isinstance(ans, TopologyAnswer)
        assert ans.status == QueryStatus.OK
        assert ans.unresolved == ()
        assert set(ans.site_status) == {"a", "b"}
        assert ans.graph.has_node(str(w.host("a", 0).ip))

    def test_unknown_host_degrades_instead_of_raising(self, wan_dep):
        w, dep = wan_dep
        s = dep.session()
        good, bad = s.flow_info_many(
            [
                (w.host("a", 0), w.host("b", 0)),
                (w.host("a", 0), "10.99.0.1"),  # covered by no collector
            ]
        )
        assert good.available_bps > 0
        assert bad.status == QueryStatus.FAILED
        assert bad.available_bps == 0.0 and bad.path == ()
        topo = s.topology([w.host("a", 0), "10.99.0.1"])
        assert topo.degraded
        assert "10.99.0.1" in topo.unresolved

    def test_node_info_answers(self, lan_dep):
        lan, dep = lan_dep
        from repro.netsim.agents import attach_trace
        from repro.rps.hostload import host_load_trace

        h = lan.hosts[0]
        attach_trace(h, host_load_trace(200, seed=1), dt=1.0)
        dep.attach_host_sensor(h, "AR(4)")
        lan.net.engine.run_until(lan.net.now + 10.0)
        [ans, missing] = dep.session().node_info([h, "10.9.9.9"])
        assert isinstance(ans, NodeAnswer)
        assert ans.load is not None and ans.status == QueryStatus.OK
        assert ans.provenance == ("host-sensor",)
        # a host no sensor covers answers load=None, FAILED — not an error
        assert missing.load is None
        assert missing.status == QueryStatus.FAILED

    def test_session_from_deployment_shares_the_modeler(self, lan_dep):
        lan, dep = lan_dep
        s = dep.session()
        assert isinstance(s, RemosSession)
        assert s.modeler is dep.modeler


class TestDeprecatedShims:
    def test_the_shims_are_gone(self):
        for name in (
            "flow_query",
            "flow_queries",
            "topology_query",
            "node_query",
            "invalidate_query_cache",
        ):
            assert not hasattr(Modeler, name), name

    def test_uncovered_hosts_answer_partial_or_failed(self, wan_dep):
        # an exception on the strict shims, a status here
        w, dep = wan_dep
        s = dep.session()
        some = s.topology([w.host("a", 0), "10.99.0.1"])
        assert some.status == QueryStatus.PARTIAL
        assert some.unresolved == ("10.99.0.1",)
        assert some.graph.has_node(str(w.host("a", 0).ip))
        none = s.topology(["10.99.0.1", "10.99.0.2"])
        assert none.status == QueryStatus.FAILED
        assert none.unresolved == ("10.99.0.1", "10.99.0.2")
        flow = s.flow_info("10.99.0.1", "10.99.0.2")
        assert flow.status == QueryStatus.FAILED and flow.path == ()

    def test_session_itself_never_warns(self, wan_dep):
        import warnings

        w, dep = wan_dep
        s = dep.session()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            s.flow_info(w.host("a", 0), w.host("b", 0))
            s.topology([w.host("a", 0)])
            s.invalidate_cache()
