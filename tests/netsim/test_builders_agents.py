"""Tests for topology builders and host-load instrumentation."""

import numpy as np
import pytest

from repro.common.units import MBPS
from repro.netsim.agents import TraceLoadSource
from repro.netsim.builders import (
    SiteSpec,
    build_hub_lan,
    build_multisite_wan,
    build_switched_lan,
)


class TestSwitchedLanBuilder:
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 64, 65, 200])
    def test_all_hosts_created_and_addressed(self, n):
        lan = build_switched_lan(n, fanout=8)
        assert len(lan.hosts) == n
        ips = {str(h.ip) for h in lan.hosts}
        assert len(ips) == n

    def test_switch_tree_depth_grows(self):
        small = build_switched_lan(8, fanout=8)
        big = build_switched_lan(128, fanout=8)
        assert len(big.switches) > len(small.switches)

    def test_switches_have_management_ips(self):
        lan = build_switched_lan(16, fanout=4)
        for sw in lan.switches:
            assert sw.management_ip is not None

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_switched_lan(0)
        with pytest.raises(ValueError):
            build_switched_lan(4, fanout=1)


class TestWanBuilder:
    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError):
            build_multisite_wan([SiteSpec("x", 1 * MBPS), SiteSpec("x", 2 * MBPS)])

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            build_multisite_wan([])

    def test_sites_isolated_subnets(self):
        w = build_multisite_wan(
            [SiteSpec("a", 10 * MBPS), SiteSpec("b", 10 * MBPS)]
        )
        assert w.sites["a"].subnet != w.sites["b"].subnet
        assert w.host("a").ip != w.host("b").ip


class TestHubLanBuilder:
    def test_component_counts(self):
        hl = build_hub_lan(n_hub_hosts=3, n_switch_hosts=2)
        assert len(hl.hosts) == 5
        assert hl.hub.kind == "hub"


class TestLoadInstrumentation:
    def test_trace_source_piecewise_constant(self):
        src = TraceLoadSource(np.array([1.0, 2.0, 3.0]), dt=2.0)
        assert src(0.0) == 1.0
        assert src(1.99) == 1.0
        assert src(2.0) == 2.0
        assert src(5.9) == 3.0
        assert src(6.0) == 1.0  # wraps

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceLoadSource(np.array([]))
        with pytest.raises(ValueError):
            TraceLoadSource(np.array([1.0]), dt=0.0)
