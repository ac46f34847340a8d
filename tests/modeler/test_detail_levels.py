"""Tests for topology query detail levels."""

import math

import pytest

from repro.common.errors import QueryError
from repro.common.units import MBPS
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan


@pytest.fixture(scope="module")
def lan_dep():
    lan = build_switched_lan(16, fanout=4)
    dep = deploy_lan(lan)
    lan.net.flows.start_flow(lan.hosts[0], lan.hosts[15], demand_bps=30 * MBPS)
    lan.net.engine.run_until(10.0)
    return lan, dep


class TestDetailLevels:
    def test_raw_has_switches(self, lan_dep):
        lan, dep = lan_dep
        g = dep.session().topology([lan.hosts[0], lan.hosts[15]], detail="raw").graph
        assert any(n.kind == "switch" for n in g.nodes())

    def test_summary_is_hosts_only(self, lan_dep):
        lan, dep = lan_dep
        hosts = [lan.hosts[0], lan.hosts[7], lan.hosts[15]]
        g = dep.session().topology(hosts, detail="summary").graph
        assert len(g) == 3
        assert all(n.kind == "host" for n in g.nodes())
        assert g.num_edges() == 3  # all pairs

    def test_summary_preserves_bottleneck(self, lan_dep):
        lan, dep = lan_dep
        a, b = lan.hosts[0], lan.hosts[15]
        full = dep.session().topology([a, b], detail="raw").graph
        summ = dep.session().topology([a, b], detail="summary").graph
        full_avail = full.bottleneck_available(str(a.ip), str(b.ip))
        summ_avail = summ.bottleneck_available(str(a.ip), str(b.ip))
        assert summ_avail == pytest.approx(full_avail, rel=1e-6)
        # latency preserved too
        assert summ.path_latency(str(a.ip), str(b.ip)) == pytest.approx(
            full.path_latency(str(a.ip), str(b.ip))
        )

    def test_summary_directional(self, lan_dep):
        lan, dep = lan_dep
        a, b = lan.hosts[0], lan.hosts[15]
        g = dep.session().topology([a, b], detail="summary").graph
        # 30 Mbps flows a -> b: less available that way
        assert g.bottleneck_available(str(a.ip), str(b.ip)) < g.bottleneck_available(
            str(b.ip), str(a.ip)
        )

    def test_simplified_is_default(self, lan_dep):
        lan, dep = lan_dep
        g1 = dep.session().topology([lan.hosts[0], lan.hosts[15]]).graph
        g2 = dep.session().topology(
            [lan.hosts[0], lan.hosts[15]], detail="simplified"
        ).graph
        assert sorted(n.id for n in g1.nodes()) == sorted(n.id for n in g2.nodes())

    def test_unknown_level_rejected(self, lan_dep):
        lan, dep = lan_dep
        with pytest.raises(QueryError):
            dep.session().topology([lan.hosts[0]], detail="cubist")
