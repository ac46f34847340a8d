"""Golden simulated-clock regression: refactor, not semantic change.

The fluid core is deterministic: a fixed world, seeded cross traffic
and a scripted query sequence reach one simulated time, run one number
of probes, send one number of PDUs and give one ``available_bps`` per
answer.  CI's ``cmp`` of two runs only proves a commit agrees with
itself; the literals below pin a recording, so a fluid-core or
collector change that moves the simulation by one ulp fails here.  A PR
that *means* to change simulated behaviour re-records them (``python
tests/integration/test_sim_clock_golden.py`` prints the new block) and
says so.

Recorded on the commit that made the WAN stitch judge a measurement's
age at the instant the stitch starts (and scoped it to the pairs a
query names — which this script never exercises: its ``flow_info``
calls are single-pair, hence unscoped, and ``topology()`` always asks
for the full mesh).  Against the previous recording, taken on the
parent of the dominated-channel-pruning PR: ``GOLDEN_NOW``
1848.2104811900094 -> 1728.6078080773116 and ``GOLDEN_PROBES`` 689 ->
647, because the 8- and 4-site ``topology()`` stitches no longer lapse
later pairs' measurements with the time their own earlier probes took;
``GOLDEN_PDUS`` 242 -> 255, because from round 3 on (the first reuse)
every query lands at another instant against the pollers' sweeps, and
the ``flow_info`` calls of rounds 6-8, which used to find every site's
counters freshly polled (0 query-time PDUs), now refetch (4-6 each);
and 7 of the 30 ``GOLDEN_AVAILABLE_BPS`` (indices 15, 17, 18, 20, 24,
26, 29, all from round 5 on) moved because those answers now read a
measurement the old stitch would have re-probed, or meet the cross
traffic at another instant.  The same commit made ``ifInOctets`` /
``ifOutOctets`` round the fluid byte count where they used to truncate
it (a whole-byte probe could read one octet short depending on the
instant it ran); on its own that moves indices 24 and 26, in the ninth
significant digit, and nothing else.

Re-recorded on the commit that gave routers ``ipAddrTable`` and made a
path that ends at a host's gateway read the gateway's interface on the
host's subnet from one GET of its own ``ipAddrTable`` row, where it used
to bulk-walk the gateway's ``ipCidrRouteTable`` (two PDUs): ``GOLDEN_PDUS``
255 -> 247, one PDU fewer at each of the eight sites, and ``GOLDEN_NOW``
1728.6078080773116 -> 1728.5966080773117, the PDU charges those walks
no longer pay.  ``GOLDEN_PROBES`` and all 30 ``GOLDEN_AVAILABLE_BPS``
are unmoved.
"""

from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.rps.service import RpsPredictionService

ROUNDS = 10

GOLDEN_NOW = 1728.5966080773117
GOLDEN_PROBES = 647
GOLDEN_PDUS = 247
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
    6602256.413967082,
    41096949.29143556,
    6289232.184146665,
    6227867.432879499,
    900000.0,
    900000.0,
    6100705.272517656,
    30352645.690740265,
    27698856.443440083,
    95785303.41330753,
    922128.1187294567,
    99332749.33013985,
    935845.3711523595,
    31500000.0,
    6000000.0,
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
