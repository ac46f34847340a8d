"""repro: a reproduction of "The Architecture of the Remos System" (HPDC 2001).

Layers, bottom to top:

* :mod:`repro.netsim` — discrete-event network simulation substrate
  (the ground truth the collectors observe).
* :mod:`repro.snmp` — a from-scratch mini-SNMP: OIDs, MIB-II/Bridge-MIB
  views over simulated devices, GET/GETNEXT/WALK clients.
* :mod:`repro.collectors` — SNMP, Bridge, Benchmark, and Master
  collectors.
* :mod:`repro.modeler` — the application-facing Remos API (flow and
  topology queries, max-min flow calculations, virtual switches).
* :mod:`repro.rps` — the RPS prediction toolkit (AR/MA/ARMA/ARIMA/
  ARFIMA/..., streaming and client-server predictors, evaluators).
* :mod:`repro.apps` — the paper's applications: mirror-server
  selection and adaptive video streaming.

Quickstart::

    from repro.netsim import build_multisite_wan, SiteSpec
    from repro.deploy import deploy_wan

    world = build_multisite_wan([SiteSpec("cmu", access_bps=10e6),
                                 SiteSpec("eth", access_bps=2e6)])
    remos = deploy_wan(world)
    reply = remos.session().flow_info(world.host("cmu", 0), world.host("eth", 0))
    print(reply.available_bps, reply.status)
"""

__version__ = "0.1.0"
