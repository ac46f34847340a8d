"""Tests for host mobility and the wireless substrate."""

import pytest

from repro.common.errors import TopologyError
from repro.common.units import MBPS
from repro.netsim.builders import build_switched_lan, build_wireless_lan
from repro.netsim.mobility import rehome_host
from repro.netsim.paths import compute_path
from repro.netsim.wireless import (
    Basestation,
    add_basestation,
    associate,
    current_basestation,
)


class TestRehome:
    def test_move_updates_fdbs_and_paths(self):
        lan = build_switched_lan(16, fanout=4)
        h = lan.hosts[0]
        old_leaf = h.interfaces[0].peer().device
        new_leaf = lan.hosts[15].interfaces[0].peer().device
        assert old_leaf is not new_leaf
        rehome_host(lan.net, h, new_leaf)
        assert h.interfaces[0].peer().device is new_leaf
        # every switch's FDB points the right way again
        mac = h.interfaces[0].mac
        att_port = h.interfaces[0].peer().index
        assert new_leaf.fdb[mac] == att_port
        # paths still work and now share the new leaf
        p = compute_path(lan.net, h, lan.hosts[15])
        devices = [c.src.device.name for c in p]
        assert new_leaf.name in devices

    def test_memoized_paths_follow_the_move(self, check_path_memo):
        lan = build_switched_lan(8, fanout=4)
        h = lan.hosts[0]
        assert check_path_memo(lan.net) == 0
        stale = compute_path(lan.net, h, lan.hosts[7])
        new_leaf = lan.hosts[7].interfaces[0].peer().device
        rehome_host(lan.net, h, new_leaf)
        assert not lan.net._path_memo, "the spanning tree rebuild drops the memo"
        assert check_path_memo(lan.net) == 0
        assert compute_path(lan.net, h, lan.hosts[7]) != stale

    def test_move_breaks_active_flows(self):
        lan = build_switched_lan(8, fanout=4)
        h = lan.hosts[0]
        f = lan.net.flows.start_flow(h, lan.hosts[7])
        new_leaf = lan.hosts[7].interfaces[0].peer().device
        broken = rehome_host(lan.net, h, new_leaf)
        assert f in broken
        assert not f.active
        # a new flow works immediately
        f2 = lan.net.flows.start_flow(h, lan.hosts[7])
        assert f2.rate_bps > 0

    def test_move_to_same_place_is_noop(self):
        lan = build_switched_lan(8, fanout=4)
        h = lan.hosts[0]
        leaf = h.interfaces[0].peer().device
        f = lan.net.flows.start_flow(h, lan.hosts[7])
        assert rehome_host(lan.net, h, leaf) == []
        assert f.active

    def test_cannot_move_to_host(self):
        lan = build_switched_lan(4)
        with pytest.raises(TopologyError):
            rehome_host(lan.net, lan.hosts[0], lan.hosts[1])

    def test_unattached_host_rejected(self):
        lan = build_switched_lan(4)
        ghost = lan.net.nodes.get("h0")
        lan.net._frozen = False
        lonely = lan.net.add_host("lonely")
        lan.net._frozen = True
        with pytest.raises(TopologyError):
            rehome_host(lan.net, lonely, lan.switches[0])

    def test_old_port_reports_down(self):
        lan = build_switched_lan(8, fanout=4)
        h = lan.hosts[0]
        old_port = h.interfaces[0].peer()
        new_leaf = lan.hosts[7].interfaces[0].peer().device
        rehome_host(lan.net, h, new_leaf)
        assert old_port.link is None
        assert old_port.speed_bps == 0.0


class TestWireless:
    def test_builder_shapes(self):
        wl = build_wireless_lan(n_basestations=3, n_wireless_hosts=6)
        assert len(wl.basestations) == 3
        assert all(isinstance(b, Basestation) for b in wl.basestations)
        counts = [len(b.associated_stations()) for b in wl.basestations]
        assert counts == [2, 2, 2]

    def test_cell_is_shared_medium(self):
        """Two stations in one cell split the air rate."""
        wl = build_wireless_lan(n_basestations=1, n_wireless_hosts=2,
                                air_rate_bps=10 * MBPS)
        f1 = wl.net.flows.start_flow(wl.wireless_hosts[0], wl.wired_hosts[0])
        f2 = wl.net.flows.start_flow(wl.wireless_hosts[1], wl.wired_hosts[1])
        assert f1.rate_bps == pytest.approx(5 * MBPS)
        assert f2.rate_bps == pytest.approx(5 * MBPS)

    def test_handoff_moves_station(self):
        wl = build_wireless_lan()
        h = wl.wireless_hosts[0]
        src_bs = current_basestation(h)
        dst_bs = wl.basestations[-1]
        assert src_bs is not dst_bs
        associate(wl.net, h, dst_bs)
        assert current_basestation(h) is dst_bs
        assert h.interfaces[0].mac in dst_bs.associated_stations()
        assert h.interfaces[0].mac not in src_bs.associated_stations()

    def test_handoff_preserves_connectivity(self):
        wl = build_wireless_lan()
        h = wl.wireless_hosts[1]
        associate(wl.net, h, wl.basestations[0])
        p = compute_path(wl.net, h, wl.wired_hosts[0])
        assert p[0].src.device is h

    def test_memoized_paths_follow_a_handoff(self, check_path_memo):
        wl = build_wireless_lan(n_basestations=3, n_wireless_hosts=4)
        h = wl.wireless_hosts[0]
        assert check_path_memo(wl.net) == 0
        before = compute_path(wl.net, h, wl.wired_hosts[0])
        kept = wl.net.flows.start_flow(wl.wireless_hosts[1], wl.wired_hosts[0])
        torn = wl.net.flows.start_flow(h, wl.wired_hosts[1])
        assert associate(wl.net, h, wl.basestations[-1]) == [torn]
        assert kept.active and not torn.active
        assert check_path_memo(wl.net) == 0
        after = compute_path(wl.net, h, wl.wired_hosts[0])
        assert after != before
        assert after[0].dst.device is wl.basestations[-1]

    def test_associate_requires_basestation(self):
        wl = build_wireless_lan()
        with pytest.raises(TopologyError):
            associate(wl.net, wl.wireless_hosts[0], wl.switch)

    def test_repeated_association_is_noop(self):
        wl = build_wireless_lan()
        h = wl.wireless_hosts[0]
        bs = current_basestation(h)
        assert associate(wl.net, h, bs) == []
