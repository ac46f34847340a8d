"""Central catalogue of observability metric and span names.

Every counter/gauge/histogram name used in instrumentation must be
registered in :data:`METRIC_NAMES` and every span name in
:data:`SPAN_NAMES` — every test runs under a fixture
(``tests/conftest.py::catalogued_names_only``) that fails it when
``repro`` code records a name missing here — so exporter consumers,
dashboards, trace tooling, and the BENCH_*.json diffs never chase a
typo'd time series or a trace name that silently forked.  ``docs/observability.md`` is the prose
companion; this module is the machine-checked source of truth.

Spans derive ``<name>.duration_s`` histograms inside the obs layer
itself; those derived histogram names are not listed separately.
"""

from __future__ import annotations

METRIC_NAMES: frozenset[str] = frozenset(
    {
        # -- netsim ----------------------------------------------------
        "netsim.engine.events",
        "netsim.engine.queue_depth",
        "netsim.engine.sim_advance_s",
        "netsim.engine.sim_time_s",
        "netsim.flows.realloc_channels_touched",
        "netsim.flows.realloc_flows",
        "netsim.maxmin.constraints",
        "netsim.maxmin.rounds",
        "netsim.paths.cache",
        # -- snmp ------------------------------------------------------
        "snmp.agent.dropped",
        "snmp.agent.requests",
        "snmp.bulk_varbinds",
        "snmp.client.bulk_walk_len",
        "snmp.client.pdus",
        "snmp.client.timeouts",
        "snmp.client.walk_len",
        "snmp.retries",
        # -- collectors ------------------------------------------------
        "collectors.benchmark.probe_failures",
        "collectors.benchmark.probes",
        "collectors.benchmark.throughput_bps",
        "collectors.master.fanout",
        "collectors.master.fragment_retries",
        "collectors.master.lkg_fragments",
        "collectors.master.lkg_invalidated",
        "collectors.master.lkg_served",
        "collectors.master.merge_wall_s",
        "collectors.master.overlap_saved_s",
        "collectors.master.quarantine_skips",
        "collectors.master.query_pdus",
        "collectors.master.stitch_pairs",
        "collectors.master.unresolved_ips",
        "collectors.master.wan_edges",
        "collectors.sharded.cross_edges",
        "collectors.sharded.fanout",
        "collectors.sharded.lkg_served",
        "collectors.sharded.overlap_saved_s",
        "collectors.sharded.replica_promotions",
        "collectors.sharded.shard_failures",
        "collectors.snmp.cache_flush",
        "collectors.snmp.malformed_rows",
        "collectors.snmp.monitored_links",
        "collectors.snmp.monitors_bootstrapped",
        "collectors.snmp.path_cache",
        "collectors.snmp.poll.batch_links",
        "collectors.snmp.poll.staleness_s",
        "collectors.snmp.polls",
        "collectors.snmp.route_cache",
        "collectors.streaming.predictors",
        "collectors.streaming.samples_fed",
        "master.fragment_timeouts",
        # -- modeler / query path --------------------------------------
        "modeler.graph.path_cache",
        "modeler.maxmin.constraints",
        "modeler.maxmin.flows",
        "modeler.planner.pairs",
        "modeler.queries",
        "modeler.query_cache",
        "modeler.query_cache_entries",
        "modeler.simplify.edge_reduction",
        "modeler.simplify.node_reduction",
        "modeler.view_cache",
        "query.partial",
        # -- rps -------------------------------------------------------
        "rps.evaluator.abs_error",
        "rps.evaluator.observations",
        "rps.evaluator.refit_flags",
        "rps.fit.wall_s",
        "rps.refit.events",
        "rps.requests",
        "rps.service.fallbacks",
        "rps.service.last_resort",
        "rps.service.requests",
        "rps.streaming.refits",
        # -- service plane (repro.service) -----------------------------
        "service.breaker_transitions",
        "service.inflight",
        "service.lkg_entries",
        "service.ratelimited",
        "service.requests",
        "service.shed",
        "service.subs_events",
        "service.wire.answer_text",
        # -- faults ----------------------------------------------------
        "faults.injected",
        # -- obs itself ------------------------------------------------
        "obs.flightrec.dumps",
    }
)

#: every span name instrumentation may open; each span also
#: feeds a derived ``<name>.duration_s`` histogram with its labels.
SPAN_NAMES: frozenset[str] = frozenset(
    {
        # -- service plane (trace roots for remote queries) ------------
        "service.backend",
        "service.request",
        # -- session (trace roots) -------------------------------------
        "session.flow_info",
        "session.flow_info_many",
        "session.node_info",
        "session.topology",
        # -- modeler ---------------------------------------------------
        "modeler.flow_query",
        "modeler.maxmin",
        "modeler.node_query",
        "modeler.simplify",
        "modeler.topology_query",
        # -- collectors ------------------------------------------------
        "collectors.master.delegate",
        "collectors.master.history",
        "collectors.master.topology",
        "collectors.sharded.delegate",
        "collectors.sharded.stitch",
        "collectors.sharded.topology",
        "collectors.snmp.history",
        "collectors.snmp.poll",
        "collectors.snmp.topology",
        # -- snmp transport --------------------------------------------
        "snmp.client.pdu",
        "snmp.client.retry",
        "snmp.client.timeout",
    }
)
