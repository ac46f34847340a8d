"""Tests for the Modeler (the Remos API)."""

import pytest

from repro.common.errors import ArgumentError, QueryError
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.deploy import deploy_lan, deploy_wan
from repro.modeler.graph import HOST, VSWITCH


@pytest.fixture(scope="module")
def lan_dep():
    lan = build_switched_lan(16, fanout=4)
    return lan, deploy_lan(lan)


@pytest.fixture
def wan_dep():
    w = build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
        ]
    )
    return w, deploy_wan(w)


class TestTopologyQuery:
    def test_simplified_by_default(self, lan_dep):
        lan, dep = lan_dep
        g = dep.session().topology([lan.hosts[0], lan.hosts[15]]).graph
        # simplification leaves hosts + one vswitch chain
        kinds = [n.kind for n in g.nodes()]
        assert kinds.count(HOST) == 2
        assert VSWITCH in kinds

    def test_raw_topology_has_switches(self, lan_dep):
        lan, dep = lan_dep
        g = dep.session().topology([lan.hosts[0], lan.hosts[15]], detail="raw").graph
        assert any(n.kind == "switch" for n in g.nodes())

    def test_accepts_hosts_ips_strings(self, lan_dep):
        lan, dep = lan_dep
        g1 = dep.session().topology([lan.hosts[0], lan.hosts[1]]).graph
        g2 = dep.session().topology([str(lan.hosts[0].ip), str(lan.hosts[1].ip)]).graph
        assert sorted(n.id for n in g1.nodes()) == sorted(n.id for n in g2.nodes())


class TestFlowQuery:
    def test_lan_flow_full_capacity(self, lan_dep):
        lan, dep = lan_dep
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[15])
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.02)
        assert ans.path[0] == str(lan.hosts[0].ip)
        assert ans.path[-1] == str(lan.hosts[15].ip)

    def test_wan_flow_bottlenecked_by_benchmark(self, wan_dep):
        w, dep = wan_dep
        ans = dep.session().flow_info(w.host("cmu", 0), w.host("eth", 0))
        assert ans.available_bps == pytest.approx(10 * MBPS, rel=0.05)
        assert ans.latency_s > 0

    def test_joint_flow_queries_share(self, wan_dep):
        w, dep = wan_dep
        answers = dep.session().flow_info_many(
            [
                (w.host("cmu", 0), w.host("eth", 0)),
                (w.host("cmu", 1), w.host("eth", 1)),
            ]
        )
        # both flows cross the same 10 Mbps logical WAN edge
        assert answers[0].available_bps == pytest.approx(5 * MBPS, rel=0.05)
        assert answers[1].available_bps == pytest.approx(5 * MBPS, rel=0.05)

    def test_flow_query_sees_background_traffic(self, wan_dep):
        w, dep = wan_dep
        # saturate half the cmu access link with cross traffic
        f = w.net.flows.start_flow(w.host("cmu", 1), w.host("eth", 1),
                                   demand_bps=5 * MBPS)
        w.net.engine.run_until(w.net.now + 10.0)
        ans = dep.session().flow_info(w.host("cmu", 0), w.host("eth", 0))
        # benchmark probe shares the access link with the 5 Mbps flow:
        # max-min gives the probe 5 Mbps
        assert ans.available_bps == pytest.approx(5 * MBPS, rel=0.1)

    def test_prediction_requires_service(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.prediction_service = None
        with pytest.raises(QueryError):
            dep.session().flow_info(lan.hosts[0], lan.hosts[1], predict=True)


class TestArgumentErrors:
    """A caller's mistake raises ``ArgumentError`` before the Modeler
    asks the Master anything or charges the simulated clock."""

    @pytest.mark.parametrize(
        "ask",
        [
            lambda s, h: s.topology(h[:2], detail="cubist"),
            lambda s, h: s.topology([]),
            lambda s, h: s.topology([h[0], "10.1.2"]),
            lambda s, h: s.flow_info(h[0], h[1], predict=True),
            lambda s, h: s.flow_info("bogus", h[1]),
            lambda s, h: s.flow_info_many([]),
            lambda s, h: s.flow_info_many([(h[0], h[1])], own_flows=[(h[0], h[1], "fast")]),
            lambda s, h: s.node_info([h[0], None]),
        ],
        ids=[
            "unknown-detail", "no-hosts", "bad-host", "predict-without-service",
            "bad-flow-host", "no-pairs", "bad-own-rate", "bad-node-host",
        ],
    )
    def test_raised_before_any_fetch(self, lan_dep, ask):
        lan, dep = lan_dep
        assert dep.modeler.prediction_service is None
        before = (dep.master.queries_served, dep.modeler.queries_made, lan.net.now)
        with pytest.raises(ArgumentError):
            ask(dep.session(), lan.hosts)
        assert (dep.master.queries_served, dep.modeler.queries_made, lan.net.now) == before

    def test_is_a_query_error_and_a_value_error(self):
        assert issubclass(ArgumentError, QueryError)
        assert issubclass(ArgumentError, ValueError)


class TestHostAddresses:
    """``_ip_of`` keeps the canonical dotted quad of every address
    string it has parsed; what it answers is what it always answered."""

    def test_strings_are_canonicalised(self):
        from repro.modeler.api import _ip_of

        for _ in range(2):  # parsed, then remembered
            assert _ip_of("010.1.2.3") == "10.1.2.3"
            assert _ip_of("10.1.2.3") == "10.1.2.3"

    def test_hosts_and_addresses_are_accepted_as_before(self, lan_dep):
        from repro.modeler.api import _ip_of
        from repro.netsim.address import IPv4Address

        lan, _ = lan_dep
        host = lan.hosts[3]
        assert _ip_of(host) == _ip_of(host.ip) == _ip_of(str(host.ip)) == str(host.ip)
        assert _ip_of(IPv4Address(0x0A010203)) == "10.1.2.3"
        with pytest.raises(TypeError):
            _ip_of(3.5)

    @pytest.mark.parametrize("junk", ["", "10.1.2", "10.1.2.256", "a.b.c.d", "10.1.2.3.4"])
    def test_a_bad_address_raises_every_time(self, junk):
        from repro.modeler.api import _ip_of

        for _ in range(2):
            with pytest.raises(ValueError):
                _ip_of(junk)

    def test_the_memo_is_bounded(self):
        from repro.modeler.api import _canonical_quad, _ip_of

        bound = _canonical_quad.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 100):
            _ip_of(f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}")
        assert _canonical_quad.cache_info().currsize == bound
