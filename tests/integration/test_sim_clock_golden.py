"""Golden simulated-clock regression: refactor, not semantic change.

The fluid core is deterministic: a fixed world, seeded cross traffic
and a scripted query sequence reach one simulated time, run one number
of probes, send one number of PDUs and give one ``available_bps`` per
answer.  CI's ``cmp`` of two runs only proves a commit agrees with
itself; the literals below were recorded on the parent of the PR that
introduced dominated-channel pruning and the incremental monitor
series, so a fluid-core or collector change that moves the simulation
by one ulp fails here.  A PR that *means* to change simulated behaviour
re-records them (``python tests/integration/test_sim_clock_golden.py``
prints the new block) and says so.
"""

from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.rps.service import RpsPredictionService

ROUNDS = 10

GOLDEN_NOW = 1848.2104811900094
GOLDEN_PROBES = 689
GOLDEN_PDUS = 242
GOLDEN_AVAILABLE_BPS = [
    6171243.067716197,
    6000000.0,
    978121.0011822376,
    900000.0,
    41370032.719793044,
    6370032.719793045,
    6340608.324766833,
    27109888.4041673,
    980622.0876976508,
    6315344.621383996,
    41535554.968103535,
    950173.3061055993,
    6359176.555194671,
    6062283.682254828,
    900000.0,
    6580709.871707844,
    41096949.29143556,
    6383998.928449863,
    6000000.0,
    900000.0,
    934139.7497199399,
    6100705.272517656,
    30352645.690740265,
    27698856.443440083,
    95636862.97962295,
    922128.1187294567,
    99122901.19126993,
    935845.3711523595,
    31500000.0,
    6026822.250619651,
]


def run_script():
    """(net.now, probes run, PDUs sent, available_bps of every answer)."""
    world = build_random_wan(8, 2, hosts_per_site=(3, 3))
    net = world.net
    dep = deploy_wan(world)
    dep.modeler.query_cache_ttl_s = 5.0
    dep.modeler.prediction_service = RpsPredictionService("AR(16)")
    session = dep.session()
    sites = sorted(world.sites)
    hosts = [str(world.host(name, 0).ip) for name in sites]
    traffic = []
    for i, name in enumerate(sites):
        peer = sites[(i + 1) % len(sites)]
        cap = min(world.sites[name].spec.access_bps, world.sites[peer].spec.access_bps)
        gen = RandomWalkTraffic(
            net, world.host(name, 1), world.host(peer, 1),
            lo_bps=0.30 * cap, hi_bps=0.40 * cap, sigma_bps=0.02 * cap,
            seed=7000 + i,
        )
        gen.start()
        traffic.append(gen)
    dep.start_monitoring()
    dep.start_benchmarks()
    # discover every site first, then let the pollers fill the monitors:
    # the predictive answers below fit on this history
    session.topology(hosts)
    net.engine.run_until(net.now + 240.0)

    available = []
    n = len(hosts)
    for r in range(ROUNDS):
        net.engine.run_until(net.now + 5.0)
        for q in range(3):
            a = (3 * r + q) % n
            b = (a + 1 + r % (n - 1)) % n
            ans = session.flow_info(hosts[a], hosts[b], predict=(q == 2))
            available.append(ans.available_bps)
        session.topology([hosts[(r + k) % n] for k in range(4)])
        if r % 5 == 4:
            session.invalidate_cache(sites=[sites[r % n]])
    dep.stop()
    for gen in traffic:
        gen.stop()
    probes = sum(b.probes_run for b in dep.benchmarks.values())
    pdus = sum(c.client.pdu_count for c in dep.snmp_collectors.values())
    return net.now, probes, pdus, available


def test_simulated_clock_matches_parent_recording():
    now, probes, pdus, available = run_script()
    assert repr(now) == repr(GOLDEN_NOW)
    assert probes == GOLDEN_PROBES
    assert pdus == GOLDEN_PDUS
    assert [repr(v) for v in available] == [repr(v) for v in GOLDEN_AVAILABLE_BPS]


if __name__ == "__main__":
    now, probes, pdus, available = run_script()
    print(f"GOLDEN_NOW = {now!r}")
    print(f"GOLDEN_PROBES = {probes!r}")
    print(f"GOLDEN_PDUS = {pdus!r}")
    print("GOLDEN_AVAILABLE_BPS = [")
    for v in available:
        print(f"    {v!r},")
    print("]")
