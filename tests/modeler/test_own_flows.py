"""Tests for declared application flows (self-interference credit)."""

import pytest

from repro.common.units import MBPS
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan


@pytest.fixture
def loaded_lan():
    """A LAN where the application itself already sends 40 Mbps."""
    lan = build_switched_lan(8, fanout=8)
    dep = deploy_lan(lan)
    flow = lan.net.flows.start_flow(
        lan.hosts[0], lan.hosts[7], demand_bps=40 * MBPS, label="app"
    )
    lan.net.engine.run_until(10.0)
    return lan, dep, flow


class TestOwnFlows:
    def test_without_declaration_sees_own_traffic_as_load(self, loaded_lan):
        lan, dep, flow = loaded_lan
        [ans] = dep.session().flow_info_many([(lan.hosts[0], lan.hosts[7])])
        assert ans.available_bps == pytest.approx(60 * MBPS, rel=0.05)

    def test_declared_flow_credited_back(self, loaded_lan):
        lan, dep, flow = loaded_lan
        [ans] = dep.session().flow_info_many(
            [(lan.hosts[0], lan.hosts[7])],
            own_flows=[(lan.hosts[0], lan.hosts[7], 40 * MBPS)],
        )
        # with its own 40 Mbps credited, the full link is available
        assert ans.available_bps == pytest.approx(100 * MBPS, rel=0.05)

    def test_partial_declaration(self, loaded_lan):
        lan, dep, flow = loaded_lan
        [ans] = dep.session().flow_info_many(
            [(lan.hosts[0], lan.hosts[7])],
            own_flows=[(lan.hosts[0], lan.hosts[7], 15 * MBPS)],
        )
        assert ans.available_bps == pytest.approx(75 * MBPS, rel=0.05)

    def test_unrelated_declared_flow_ignored(self, loaded_lan):
        lan, dep, flow = loaded_lan
        # a declared flow on a disjoint path must not change the answer
        [ans] = dep.session().flow_info_many(
            [(lan.hosts[0], lan.hosts[7])],
            own_flows=[(lan.hosts[2], lan.hosts[3], 20 * MBPS)],
        )
        assert ans.available_bps == pytest.approx(60 * MBPS, rel=0.05)

    def test_credit_never_negative(self, loaded_lan):
        lan, dep, flow = loaded_lan
        # over-declaring cannot produce more than capacity
        [ans] = dep.session().flow_info_many(
            [(lan.hosts[0], lan.hosts[7])],
            own_flows=[(lan.hosts[0], lan.hosts[7], 500 * MBPS)],
        )
        assert ans.available_bps <= 100 * MBPS * 1.001

    def test_direction_specific(self, loaded_lan):
        lan, dep, flow = loaded_lan
        # declaring the reverse direction must not free the forward one
        [ans] = dep.session().flow_info_many(
            [(lan.hosts[0], lan.hosts[7])],
            own_flows=[(lan.hosts[7], lan.hosts[0], 40 * MBPS)],
        )
        assert ans.available_bps == pytest.approx(60 * MBPS, rel=0.05)
