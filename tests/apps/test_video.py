"""Tests for the adaptive video streaming application."""

import numpy as np
import pytest

from repro import faults
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.deploy import deploy_wan
from repro.apps.video import VideoSession, VideoSpec, choose_and_stream


@pytest.fixture
def world():
    w = build_multisite_wan(
        [
            SiteSpec("client", access_bps=100 * MBPS, n_hosts=2),
            SiteSpec("wide", access_bps=10 * MBPS, n_hosts=2),
            SiteSpec("narrow", access_bps=0.15 * MBPS, n_hosts=2),
        ]
    )
    return w, deploy_wan(w)


class TestVideoSpec:
    def test_frame_count(self):
        spec = VideoSpec(duration_s=10.0, fps=24.0)
        assert len(spec.frames()) == 240

    def test_gop_pattern(self):
        spec = VideoSpec(duration_s=1.0, fps=12.0, gop="IBBP")
        kinds = [k for _, k, _ in spec.frames()]
        assert kinds == list("IBBPIBBPIBBP")

    def test_i_frames_biggest(self):
        spec = VideoSpec(duration_s=5.0, noise_frac=0.0, content_swing=0.0)
        frames = spec.frames()
        i_sizes = [s for _, k, s in frames if k == "I"]
        b_sizes = [s for _, k, s in frames if k == "B"]
        assert min(i_sizes) > max(b_sizes)

    def test_nominal_rate_positive(self):
        assert VideoSpec().nominal_rate_bps() > 0

    def test_deterministic_by_seed(self):
        a = VideoSpec(seed=5).frames()
        b = VideoSpec(seed=5).frames()
        assert a == b


class TestVideoSession:
    def test_wide_link_receives_everything(self, world):
        w, dep = world
        spec = VideoSpec(duration_s=10.0)
        session = VideoSession(w.net, w.host("wide", 0), w.host("client", 0), spec)
        res = session.run()
        assert res.frames_received == res.total_frames

    def test_narrow_link_drops_frames(self, world):
        w, dep = world
        spec = VideoSpec(duration_s=10.0)  # nominal ~0.34 Mbps > 0.15 Mbps link
        session = VideoSession(w.net, w.host("narrow", 0), w.host("client", 0), spec)
        res = session.run()
        assert 0 < res.frames_received < res.total_frames
        # the adaptive server protects I frames: their survival rate
        # must exceed the B-frame survival rate
        kinds_recv = [f.kind for f in res.received]
        spec_kinds = [k for _, k, _ in spec.frames()]
        i_rate = kinds_recv.count("I") / spec_kinds.count("I")
        b_rate = kinds_recv.count("B") / max(spec_kinds.count("B"), 1)
        assert i_rate > b_rate

    def test_overloaded_server_receives_less(self, world):
        w, dep = world
        spec = VideoSpec(duration_s=10.0)
        good = VideoSession(
            w.net, w.host("narrow", 0), w.host("client", 0), spec
        ).run()
        bad = VideoSession(
            w.net, w.host("narrow", 0), w.host("client", 0), spec,
            server_efficiency=0.5,
        ).run()
        assert bad.frames_received < good.frames_received

    def test_bad_efficiency_rejected(self, world):
        w, dep = world
        with pytest.raises(ValueError):
            VideoSession(
                w.net, w.host("wide", 0), w.host("client", 0), VideoSpec(),
                server_efficiency=0.0,
            )

    def test_perceived_bandwidth_windows(self, world):
        w, dep = world
        spec = VideoSpec(duration_s=20.0)
        res = VideoSession(
            w.net, w.host("narrow", 0), w.host("client", 0), spec
        ).run()
        t1, bw1 = res.perceived_bandwidth(1.0)
        t10, bw10 = res.perceived_bandwidth(10.0)
        assert bw1.size > bw10.size
        # long windows sit at the link rate; short windows fluctuate more
        assert np.mean(bw10) == pytest.approx(0.15 * MBPS, rel=0.15)
        assert np.std(bw1) > np.std(bw10)


class TestChooseAndStream:
    def test_picks_widest(self, world):
        w, dep = world
        spec = VideoSpec(duration_s=5.0)
        picked, results = choose_and_stream(
            dep.modeler, w.net, w.host("client", 0),
            {"wide": w.host("wide", 0), "narrow": w.host("narrow", 0)},
            spec,
        )
        assert picked == "wide"
        assert results["wide"].frames_received >= results["narrow"].frames_received

    def test_a_degraded_site_loses_a_tie(self):
        w = build_multisite_wan(
            [
                SiteSpec("client", access_bps=100 * MBPS, n_hosts=2),
                SiteSpec("aaa", access_bps=10 * MBPS, n_hosts=2),
                SiteSpec("bbb", access_bps=10 * MBPS, n_hosts=2),
            ]
        )
        dep = deploy_wan(w)
        client = w.host("client", 0)
        servers = {"aaa": w.host("aaa", 0), "bbb": w.host("bbb", 0)}
        for server in servers.values():
            assert dep.session().flow_info(server, client).ok
        # aaa now answers STALE from last-known-good, at the same rate
        faults.crash_collector(dep.snmp_collectors["aaa"], 1000.0)
        picked, _ = choose_and_stream(
            dep.modeler, w.net, client, servers, VideoSpec(duration_s=1.0)
        )
        assert picked == "bbb"
