"""Survival is how a default deployment runs, not something a fault plan arms.

No ``repro.faults`` plan is installed here: a plain ``deploy_wan`` must
keep its last-known-good fragments and serve them STALE, with their
true age, when a site collector crashes after having answered — never
FAILED while a last-known-good fragment exists.
"""

import pytest

from repro import faults
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan


def _watch_returns(collector, log: list[float]) -> None:
    """Record the sim time at which every ``topology`` call of
    ``collector`` returns or raises."""
    inner = collector.topology

    def watched(request):
        try:
            return inner(request)
        finally:
            log.append(collector.net.now)

    collector.topology = watched


def test_crashed_site_is_served_stale_from_last_known_good():
    w = build_multisite_wan(
        [SiteSpec(name, access_bps=10 * MBPS, n_hosts=3) for name in ("a", "b")]
    )
    dep = deploy_wan(w)
    assert dep.net.faults is None
    victim = dep.snmp_collectors["b"]
    returns: list[float] = []
    _watch_returns(victim, returns)

    s = dep.session()
    hosts = [w.host("a", 0), w.host("b", 0)]
    warm = s.topology(hosts)
    warm_flow = s.flow_info(*hosts)
    assert warm.status == warm_flow.status == QueryStatus.OK
    assert warm_flow.available_bps == pytest.approx(10 * MBPS)
    fetched_at = returns[-1]

    w.net.engine.run_until(w.net.now + 10.0)
    faults.crash_collector(victim, 60.0)

    stale = s.topology(hosts)
    # the stale fragment is served at the instant its last retry failed
    served_at = returns[-1]
    assert stale.status == QueryStatus.STALE
    site_b = stale.site_status["b"]
    assert site_b.status == QueryStatus.STALE
    assert site_b.data_age_s == pytest.approx(served_at - fetched_at)
    assert site_b.data_age_s > 10.0
    assert stale.site_status["a"].status == QueryStatus.OK

    flow = s.flow_info(*hosts)
    assert flow.status == QueryStatus.STALE
    assert flow.available_bps == pytest.approx(warm_flow.available_bps)

    assert dep.master.health()["lkg_fragments"] > 0
