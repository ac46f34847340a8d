"""Planted faults, each with the tests that catch it.

A mutant is one edit of one file: its ``before`` snippet, which occurs
exactly once there, becomes ``after``.  ``killers`` are the ids of the
tests that fail under it; ``source`` is the ``docs/performance.md``
section that first described it.  ``test_catalogue.py`` holds each entry
to the tree, and ``python tests/mutants/run.py`` replays them all.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    before: str
    after: str
    killers: tuple[str, ...]
    source: str


FANOUT = "tests/collectors/test_master_fanout_cost.py::"
ALL_SITES = FANOUT + "TestAllSitesFanout::"
DIRECTORY = FANOUT + "TestFixedQueryAgainstDirectorySize::"
LITERALS = ALL_SITES + "test_sixteen_site_costs_match_the_recording"
CLOCK_RULE = "tests/invariants/test_layers.py::test_only_obs_imports_a_clock"
DEAD_EXPORTS = "tests/invariants/test_dead_exports.py::test_the_committed_tree_holds"
MIB_TWIN = "tests/snmp/test_mib_deferral.py::test_a_deferred_store_answers_as_its_eager_twin"
MIB_BULK = "tests/snmp/test_mib_deferral.py::test_a_bulk_read_loads_only_tables_it_could_reach"
GATEWAY = "tests/collectors/test_gateway_iface.py::"
RESTORE = "tests/netsim/test_probe_restore.py::test_stop_equals_a_re_solving_twin"
WHAT_IF = "tests/netsim/test_what_if.py::test_rates_equal_those_start_flow_gives"
KERNEL = "tests/netsim/test_probe_kernel.py::"
LKG = "tests/collectors/test_lkg_by_reference.py::"
PROVENANCE = (
    "tests/service/test_answer_provenance.py::"
    "test_every_served_text_is_the_answer_the_session_gave"
)
ADMISSION = "tests/service/test_admission_order.py::"

MUTANTS = [
    # -- the Master's fan-out cost on the simulated clock -----------------
    Mutant(
        name="sharded_hop_charged_twice",
        file="src/repro/collectors/sharding.py",
        before="                hop_s=RPC_LOCAL_S,\n",
        after="                hop_s=2 * RPC_LOCAL_S,\n",
        killers=(LITERALS,),
        source="§21",
    ),
    Mutant(
        name="cached_wan_measurement_never_reused",
        file="src/repro/collectors/benchmark_collector.py",
        before=(
            "        if hist:\n"
            "            latest = hist[-1]\n"
            "            now = self.net.now if as_of is None else as_of\n"
            "            if now - latest.measured_at <= self.config.max_age_s:\n"
            "                return latest\n"
        ),
        after="",
        killers=(ALL_SITES + "test_warm_costs_under_a_third_of_cold", LITERALS),
        source="§21",
    ),
    Mutant(
        name="sharded_stitch_drops_a_site_pair",
        file="src/repro/collectors/sharding.py",
        before="            return super()._stitch(merged, site_anchor_node, wanted)\n",
        after="            return super()._stitch(merged, site_anchor_node, wanted[1:])\n",
        killers=(ALL_SITES + "test_every_site_pair_is_stitched_on_both_planes", LITERALS),
        source="§21",
    ),
    Mutant(
        name="bulk_probe_costs_no_simulated_time",
        file="src/repro/collectors/benchmark_collector.py",
        before="            self.net.engine.advance(duration)\n",
        after="",
        killers=(ALL_SITES + "test_flat_cold_cost_grows_faster_than_the_sites", LITERALS),
        source="§21",
    ),
    Mutant(
        name="every_query_pays_a_hop_per_directory_site",
        file="src/repro/collectors/master.py",
        before="        self.queries_served += 1\n",
        after=(
            "        self.queries_served += 1\n"
            "        self.net.engine.advance(RPC_LOCAL_S * len(self.directory.registrations()))\n"
        ),
        killers=(DIRECTORY + "test_warm_cost_is_flat_in_directory_size", LITERALS),
        source="§21",
    ),
    Mutant(
        name="first_query_pays_a_second_per_directory_site",
        file="src/repro/collectors/master.py",
        before="        self.queries_served += 1\n",
        after=(
            "        self.queries_served += 1\n"
            "        if self.queries_served == 1:\n"
            "            self.net.engine.advance(1.0 * len(self.directory.registrations()))\n"
        ),
        killers=(DIRECTORY + "test_cold_cost_stays_bounded", LITERALS),
        source="§21",
    ),
    Mutant(
        name="shard_hop_charged_as_remote",
        file="src/repro/collectors/sharding.py",
        before="                hop_s=RPC_LOCAL_S,\n",
        after="                hop_s=0.05,  # RPC_REMOTE_S\n",
        killers=(DIRECTORY + "test_sharded_costs_no_more_than_flat", LITERALS),
        source="§21",
    ),
    # -- faults the source rules and the degraded-answer tests catch ------
    Mutant(
        name="service_coroutine_sleeps_in_the_loop",
        file="src/repro/service/app.py",
        before="                    await asyncio.sleep(stall)\n",
        after="                    import time\n\n                    time.sleep(stall)\n",
        killers=(
            CLOCK_RULE,
            "tests/service/test_loop_trap.py::test_an_armed_service_delay_waits_without_blocking",
        ),
        source="§22",
    ),
    Mutant(
        name="measurement_stamped_with_the_wall_clock",
        file="src/repro/collectors/benchmark_collector.py",
        before=(
            "        meas = PairMeasurement(\n"
            "            self.site, peer_site, throughput, self.net.now,\n"
        ),
        after=(
            "        import time\n"
            "\n"
            "        meas = PairMeasurement(\n"
            "            self.site, peer_site, throughput, time.time(),\n"
        ),
        killers=(
            CLOCK_RULE,
            "tests/collectors/test_benchmark_master.py::TestBenchmarkCollector::"
            "test_measurement_cached_until_stale",
        ),
        source="§22",
    ),
    Mutant(
        name="merge_timed_with_perf_counter",
        file="src/repro/collectors/master.py",
        before=(
            "            t0 = obs.wall_now()\n"
            "            merged.merge(sub.graph)\n"
            "            merge_wall_s += obs.wall_now() - t0\n"
        ),
        after=(
            "            import time\n"
            "\n"
            "            t0 = time.perf_counter()\n"
            "            merged.merge(sub.graph)\n"
            "            merge_wall_s += time.perf_counter() - t0\n"
        ),
        killers=(CLOCK_RULE,),
        source="§22",
    ),
    Mutant(
        name="retries_cut_off_by_the_monotonic_clock",
        file="src/repro/collectors/master.py",
        before=(
            "        for rnd in range(1 + FRAGMENT_RETRIES):\n"
            "            if rnd > 0:\n"
        ),
        after=(
            "        from time import monotonic\n"
            "\n"
            "        started = monotonic()\n"
            "        for rnd in range(1 + FRAGMENT_RETRIES):\n"
            "            if rnd > 0 and monotonic() - started > 60.0:\n"
            "                break\n"
            "            if rnd > 0:\n"
        ),
        killers=(CLOCK_RULE,),
        source="§22",
    ),
    Mutant(
        name="flow_sensor_samples_a_failed_answer",
        file="src/repro/rps/sensors.py",
        before=(
            "        if ans.status is QueryStatus.FAILED:\n"
            "            # nothing was measured: record no sample and keep the\n"
            "            # timer alive so sensing resumes with the network\n"
            "            return\n"
        ),
        after="",
        killers=(
            "tests/rps/test_runtime.py::TestSensors::"
            "test_flow_bandwidth_sensor_records_no_failed_answer",
        ),
        source="§22",
    ),
    Mutant(
        name="mirror_forgets_degraded_sites",
        file="src/repro/apps/mirror.py",
        before=(
            "                if ans.degraded:\n"
            "                    # blind-spot tolerance, made visible: the ranking\n"
            "                    # still uses what Remos could say, but the caller\n"
            "                    # can audit which sites were ranked on degraded data\n"
            "                    self.degraded_sites[site] = str(ans.status)\n"
        ),
        after="",
        killers=(
            "tests/apps/test_mirror.py::TestMirrorClient::test_a_crashed_site_is_listed_as_degraded",
        ),
        source="§22",
    ),
    Mutant(
        name="video_ranks_a_blind_spot_as_measured",
        file="src/repro/apps/video.py",
        before=(
            "        if ans.degraded:\n"
            "            # degraded answers already self-report lower bandwidth; the\n"
            "            # flag only breaks ties so a blind spot never outranks an\n"
            "            # equally-fast site Remos actually measured\n"
            "            degraded.add(site)\n"
        ),
        after="",
        killers=("tests/apps/test_video.py::TestChooseAndStream::test_a_degraded_site_loses_a_tie",),
        source="§35",
    ),
    Mutant(
        name="watcher_publishes_rate_moves_only",
        file="src/repro/service/subs.py",
        before="                same_status = prev[0] == signature[0]\n",
        after="                same_status = True\n",
        killers=(
            "tests/service/test_subscriptions.py::TestDeterministicDelivery::"
            "test_a_status_change_alone_is_published",
        ),
        source="§35",
    ),
    Mutant(
        name="gma_withholds_a_degraded_answer",
        file="src/repro/gma.py",
        before="        return self._emit(EVENT_FLOW, answer)\n",
        after=(
            "        if answer.degraded:\n"
            "            raise QueryError(f\"degraded answer: {answer.status}\")\n"
            "        return self._emit(EVENT_FLOW, answer)\n"
        ),
        killers=(
            "tests/integration/test_gma.py::TestSubscriptions::"
            "test_a_degraded_answer_is_delivered_with_its_status",
        ),
        source="§35",
    ),
    Mutant(
        name="unused_public_unit_helper",
        file="src/repro/common/units.py",
        before='    return f"{rate_bps:.0f} bps"\n',
        after=(
            '    return f"{rate_bps:.0f} bps"\n'
            "\n"
            "\n"
            "def gbps_to_mbps(rate_gbps: float) -> float:\n"
            "    return rate_gbps * GBPS / MBPS\n"
        ),
        killers=(DEAD_EXPORTS,),
        source="§22",
    ),
    # the name is in planted source text under tests/ (test_layers.py's
    # `from repro.helpers import stamp`), which is no reference
    Mutant(
        name="public_name_kept_alive_by_a_planted_string",
        file="src/repro/common/units.py",
        before='    return f"{rate_bps:.0f} bps"\n',
        after=(
            '    return f"{rate_bps:.0f} bps"\n'
            "\n"
            "\n"
            "def stamp() -> float:\n"
            "    return 0.0\n"
        ),
        killers=(DEAD_EXPORTS,),
        source="§35",
    ),
    Mutant(
        name="module_level_unseeded_draw",
        file="src/repro/netsim/engine.py",
        before="\n\nclass _Event:\n",
        after="\n\nimport random\n\nTIE_JITTER = random.random()\n\n\nclass _Event:\n",
        killers=("tests/invariants/test_file_invariants.py::test_the_committed_tree_holds",),
        source="§22",
    ),
    Mutant(
        name="bare_except_in_slp",
        file="src/repro/collectors/slp.py",
        before=(
            "        entry = self._services.get(url)\n"
            "        if entry is None or entry.expired(self.net.now):\n"
            "            return False\n"
        ),
        after=(
            "        try:\n"
            "            entry = self._services[url]\n"
            "        except:\n"
            "            return False\n"
            "        if entry.expired(self.net.now):\n"
            "            return False\n"
        ),
        killers=("tests/invariants/test_file_invariants.py::test_the_committed_tree_holds",),
        source="§22",
    ),
    # -- the directory's view of its SLP agent -----------------------------
    Mutant(
        name="directory_view_outlives_an_expired_lease",
        file="src/repro/collectors/slp.py",
        before="        if dead:\n            self._generation += 1\n",
        after="",
        killers=(
            "tests/collectors/test_directory_view.py::"
            "test_lookup_is_the_agents_longest_prefix_match",
            "tests/collectors/test_directory_view.py::test_one_table_until_the_agent_changes",
            "tests/collectors/test_slp.py::TestSlpBackedMaster::"
            "test_expired_collector_disappears",
        ),
        source="§36",
    ),
    Mutant(
        name="raw_if_in_octets_oid",
        file="src/repro/collectors/discovery.py",
        before="    def sys_name(self, agent_ip: str) -> str:\n",
        after=(
            '    IF_IN_OCTETS = "1.3.6.1.2.1.2.2.1.10"\n'
            "\n"
            "    def sys_name(self, agent_ip: str) -> str:\n"
        ),
        killers=("tests/invariants/test_file_invariants.py::test_the_committed_tree_holds",),
        source="§22",
    ),
    Mutant(
        name="agent_imports_a_collector_locally",
        file="src/repro/snmp/agent.py",
        before="    def agents(self) -> list[SnmpAgent]:\n",
        after=(
            "    def agents(self) -> list[SnmpAgent]:\n"
            "        from repro.collectors.base import Collector  # noqa: F401\n"
            "\n"
        ),
        killers=("tests/invariants/test_layers.py::test_the_committed_tree_holds",),
        source="§22",
    ),
    # -- MIB tables loaded when first reached; the gateway's interface ---
    Mutant(
        name="put_column_loads_nothing",
        file="src/repro/snmp/mib.py",
        before=(
            "        base = column.parts\n"
            "        if self._deferred:\n"
            "            self._load(base, _subtree_end(base))\n"
        ),
        after="        base = column.parts\n",
        killers=(MIB_TWIN,),
        source="§28",
    ),
    Mutant(
        name="remove_loads_nothing",
        file="src/repro/snmp/mib.py",
        before=(
            "        key = oid.parts\n"
            "        if self._deferred:\n"
            "            self._load(key, key + (0,))\n"
        ),
        after="        key = oid.parts\n",
        killers=(MIB_TWIN,),
        source="§28",
    ),
    Mutant(
        name="bulk_read_ignores_deferred_tables",
        file="src/repro/snmp/mib.py",
        before="        while self._deferred:\n",
        after="        while False:\n",
        killers=(MIB_TWIN, MIB_BULK),
        source="§28",
    ),
    Mutant(
        name="later_tables_load_inside_an_earlier_one",
        file="src/repro/snmp/mib.py",
        before=(
            "                later = deferred[i + 1 :]\n"
            "                del deferred[i:]\n"
            "                load(self)\n"
            "                i = len(deferred)\n"
            "                deferred.extend(later)\n"
        ),
        after="                del deferred[i]\n                load(self)\n",
        killers=("tests/snmp/test_mib_deferral.py::test_a_table_nested_in_an_earlier_one_loads_after_it",),
        source="§28",
    ),
    Mutant(
        name="gateway_row_mask_unchecked",
        file="src/repro/collectors/discovery.py",
        before=(
            "            if netmask != subnet.netmask_int or "
            "addr.value & netmask != subnet.network_int:\n"
        ),
        after="            if False:\n",
        killers=(GATEWAY + "TestFallbacks::test_an_address_on_another_subnet_falls_back_to_the_walk",),
        source="§28",
    ),
    Mutant(
        name="dropped_gateway_get_falls_back_to_the_walk",
        file="src/repro/collectors/discovery.py",
        before="            except NoSuchObjectError:\n                return None\n",
        after="            except SnmpError:\n                return None\n",
        killers=(GATEWAY + "TestFallbacks::test_a_dropped_pdu_raises_and_keeps_nothing",),
        source="§28",
    ),
    Mutant(
        name="gateway_interface_not_kept",
        file="src/repro/collectors/discovery.py",
        before="        if key not in ifaces:\n            addr = IPv4Address(router_ip)\n",
        after="        if True:\n            addr = IPv4Address(router_ip)\n",
        killers=(GATEWAY + "TestColdPduCounts::test_campus_and_hub_cost_no_more_than_the_walk",),
        source="§28",
    ),
    Mutant(
        name="route_tables_built_eagerly",
        file="src/repro/snmp/mib.py",
        before=(
            "    store.defer(O.IP_ROUTE_TABLE, lambda s: "
            "_put_rows(s, _ROUTE_COLUMNS, _route_rows(routes)))\n"
            "    if router.supports_cidr_mib:\n"
            "        store.defer(\n"
            "            O.IP_CIDR_ROUTE_TABLE,\n"
            "            lambda s: _put_rows(s, _CIDR_ROUTE_COLUMNS, _cidr_route_rows(routes)),\n"
            "        )\n"
        ),
        after=(
            "    _put_rows(store, _ROUTE_COLUMNS, _route_rows(routes))\n"
            "    if router.supports_cidr_mib:\n"
            "        _put_rows(store, _CIDR_ROUTE_COLUMNS, _cidr_route_rows(routes))\n"
        ),
        killers=(GATEWAY + "TestColdPduCounts::test_a_cold_wan_answer_builds_and_walks_no_route_table",),
        source="§28",
    ),
    Mutant(
        name="continuing_path_skips_the_walk_first",
        file="src/repro/collectors/discovery.py",
        before=(
            "        if not (dst_is_router and dst == src_gw):\n"
            "            # the walk goes on past the gateway, through the route table\n"
            "            # that also names the gateway's interface on this subnet\n"
            "            self._routes(gw_ip)\n"
        ),
        after="",
        killers=(GATEWAY + "TestColdPduCounts::test_campus_and_hub_cost_no_more_than_the_walk",),
        source="§28",
    ),
    # -- a probe's stop restores what its start displaced -----------------
    Mutant(
        name="reallocation_keeps_a_stale_displaced_record",
        file="src/repro/netsim/flows.py",
        before="        self.recomputes += 1\n        self._displaced = None\n",
        after="        self.recomputes += 1\n",
        killers=(RESTORE,),
        source="§29",
    ),
    Mutant(
        name="restore_skips_the_timer_rearm",
        file="src/repro/netsim/flows.py",
        before="        if displaced.finite:\n            self._rearm(displaced.flows)\n",
        after="",
        killers=(RESTORE,),
        source="§29",
    ),
    Mutant(
        name="any_stop_restores",
        file="src/repro/netsim/flows.py",
        before="        if displaced is not None and displaced.started is flow:\n",
        after="        if displaced is not None:\n",
        killers=(RESTORE, "tests/netsim/test_probe_restore.py::test_only_the_started_flow_restores"),
        source="§29",
    ),
    # -- what_if, the probe kernel and the store by reference -------------
    Mutant(
        name="what_if_solves_every_pair_jointly",
        file="src/repro/netsim/flows.py",
        before="            group, left = left[:1], left[1:]\n",
        after="            group, left = left, []\n",
        killers=(WHAT_IF,),
        source="§31",
    ),
    Mutant(
        name="what_if_group_never_grows",
        file="src/repro/netsim/flows.py",
        before="                joined = [i for i in left if not reached.isdisjoint(paths[i])]\n",
        after="                joined = []\n",
        killers=(WHAT_IF,),
        source="§31",
    ),
    Mutant(
        name="what_if_solves_the_asked_flows_first",
        file="src/repro/netsim/flows.py",
        before=(
            "            got, _, _ = _solve(\n"
            "                [f.path for f in flows] + [paths[i] for i in group],\n"
            "                [f.demand_bps for f in flows] + [wants[i] for i in group],\n"
            "            )\n"
            "            for i, r in zip(group, got[len(flows):]):\n"
        ),
        after=(
            "            got, _, _ = _solve(\n"
            "                [paths[i] for i in group] + [f.path for f in flows],\n"
            "                [wants[i] for i in group] + [f.demand_bps for f in flows],\n"
            "            )\n"
            "            for i, r in zip(group, got):\n"
        ),
        killers=(WHAT_IF,),
        source="§31",
    ),
    Mutant(
        name="re_solving_stop_keeps_the_epoch",
        file="src/repro/netsim/flows.py",
        before=(
            "            self._epoch = next(self._epochs)\n"
            "            self._reallocate(flow.path, now)\n"
        ),
        after="            self._reallocate(flow.path, now)\n",
        killers=(KERNEL + "test_the_memo_follows_the_index",),
        source="§31",
    ),
    Mutant(
        name="plan_kept_across_a_capacity_change",
        file="src/repro/netsim/flows.py",
        before=(
            "            ch.capacity_bps = capacity_bps\n"
            "        self._epoch = next(self._epochs)\n"
        ),
        after="            ch.capacity_bps = capacity_bps\n",
        killers=(
            KERNEL + "test_a_degrade_between_probes_re_derives_the_plan_once",
            KERNEL + "test_the_plan_memo_changes_nothing",
            KERNEL + "test_probe_rounds_among_changes_leave_a_true_memo",
        ),
        source="§37",
    ),
    Mutant(
        name="jitter_mean_summed_exactly",
        file="src/repro/collectors/monitor.py",
        before="        mean = np.add.reduce(delay, axis=1, keepdims=True)\n",
        after="        mean = np.array([[math.fsum(row)] for row in delay.tolist()])\n",
        killers=(
            "tests/collectors/test_monitor.py::test_incremental_series_equal_the_batch_derivation",
        ),
        source="§37",
    ),
    Mutant(
        name="start_keeps_the_epoch",
        file="src/repro/netsim/flows.py",
        before=(
            "        self._reallocate(path, now, started=flow)\n"
            "        self._epoch = next(self._epochs)\n"
        ),
        after="        self._reallocate(path, now, started=flow)\n",
        killers=(KERNEL + "test_the_memo_follows_the_index",),
        source="§31",
    ),
    Mutant(
        name="own_flows_credited_in_place",
        file="src/repro/modeler/api.py",
        before=(
            "                if a == e.a:\n"
            "                    e = dataclasses.replace(e, util_ab_bps=max(0.0, e.util_ab_bps - rate))\n"
            "                else:\n"
            "                    e = dataclasses.replace(e, util_ba_bps=max(0.0, e.util_ba_bps - rate))\n"
            "                graph.add_edge(e)\n"
        ),
        after=(
            "                if a == e.a:\n"
            "                    e.util_ab_bps = max(0.0, e.util_ab_bps - rate)\n"
            "                else:\n"
            "                    e.util_ba_bps = max(0.0, e.util_ba_bps - rate)\n"
        ),
        killers=(LKG + "test_an_own_flows_query_leaves_the_held_fragment_as_returned",),
        source="§31",
    ),
    Mutant(
        name="lkg_stored_unfrozen",
        file="src/repro/collectors/master.py",
        before="            sub.graph.freeze(), self.net.engine.now,",
        after="            sub.graph, self.net.engine.now,",
        killers=(
            LKG + "test_the_store_holds_the_collectors_graph_frozen",
            LKG + "test_editing_a_held_fragment_raises",
        ),
        source="§31",
    ),
    # -- an answer served by its fetch serial ------------------------------
    Mutant(
        name="forecast_answers_tagged_with_a_basis",
        file="src/repro/modeler/api.py",
        before="            elif entry is not None:\n                for ans in good:\n",
        after="            if entry is not None:\n                for ans in good:\n",
        killers=(PROVENANCE,),
        source="§30",
    ),
    Mutant(
        name="record_reused_without_comparing_basis",
        file="src/repro/service/app.py",
        before="            if type(last) is AnswerRecord and last.basis == basis:\n",
        after="            if type(last) is AnswerRecord:\n",
        killers=(PROVENANCE,),
        source="§30",
    ),
    Mutant(
        name="restamped_keeps_the_old_trace_id",
        file="src/repro/service/wire.py",
        before='        again["trace_id"] = trace_id\n',
        after="",
        killers=(PROVENANCE,),
        source="§30",
    ),
    Mutant(
        name="one_serial_for_every_fetch",
        file="src/repro/modeler/api.py",
        before="    serial: int = field(default_factory=_fetch_serials.__next__)\n",
        after="    serial: int = 0\n",
        killers=(PROVENANCE,),
        source="§30",
    ),
    # -- session calls in admission order, without a lock -----------------
    Mutant(
        name="no_yield_before_the_call",
        file="src/repro/service/app.py",
        before='        await asyncio.sleep(0)\n        with obs.span("service.backend"',
        after='        with obs.span("service.backend"',
        killers=(ADMISSION + "test_session_calls_run_one_at_a_time_in_admission_order",),
        source="§32",
    ),
    Mutant(
        name="session_call_run_in_a_thread",
        file="src/repro/service/app.py",
        before="            return self._route(endpoint, body, key)\n",
        after="            return await asyncio.to_thread(self._route, endpoint, body, key)\n",
        killers=(ADMISSION + "test_session_calls_run_one_at_a_time_in_admission_order",),
        source="§32",
    ),
    # (an extra ``await asyncio.sleep(0)`` between the yield and the call
    # is an equivalent mutant: the loop resumes the tasks first in, first
    # out, so the calls keep their order)
    Mutant(
        name="slot_released_at_admission",
        file="src/repro/service/app.py",
        before='                    return self._shed(meters, key, "overloaded")\n',
        after=(
            '                    return self._shed(meters, key, "overloaded")\n'
            "                self.admission.release()\n"
        ),
        killers=(ADMISSION + "test_exactly_max_inflight_of_each_wave_are_live",),
        source="§32",
    ),
    # -- the service's metric handles, bound once --------------------------
    Mutant(
        name="metric_handles_kept_across_a_reset",
        file="src/repro/service/app.py",
        before=(
            "        if meters is None or meters.registry is not reg"
            " or meters.generation != reg.generation:\n"
        ),
        after="        if meters is None or meters.registry is not reg:\n",
        killers=(
            "tests/service/test_metric_handles.py::"
            "test_the_five_handles_follow_the_current_registry",
        ),
        source="§34",
    ),
    Mutant(
        name="number_keys_keyed_by_the_client_text",
        file="src/repro/service/client.py",
        before='    return (not body or type(next(iter(body))) is str) and text.find("{", 1) < 0\n',
        after="    return True\n",
        killers=(
            "tests/service/test_lkg_key.py::test_the_client_key_is_the_decoded_body_key",
            "tests/service/test_lkg_key.py::test_a_body_with_number_keys_is_decoded_first",
        ),
        source="§34",
    ),
    # -- regressions that failed on their parent commits (§9, §10) ---------
    Mutant(
        name="streaming_fed_by_the_ring_size",
        file="src/repro/rps/streaming.py",
        before=(
            "                    self._fed[pkey] = mon.samples_appended - 1\n"
            "                new = min(mon.samples_appended - self._fed[pkey], rates.size)\n"
        ),
        after=(
            "                    self._fed[pkey] = rates.size - 1\n"
            "                new = min(rates.size - self._fed[pkey], rates.size)\n"
        ),
        killers=(
            "tests/collectors/test_streaming_prediction.py::TestFeedingPastHistoryLen::"
            "test_samples_keep_flowing_once_the_ring_is_full",
        ),
        source="§9",
    ),
    Mutant(
        name="partitioned_peer_escapes_probe",
        file="src/repro/collectors/benchmark_collector.py",
        before="        except TopologyError as exc:\n",
        after="        except QueryError as exc:\n",
        killers=(
            "tests/collectors/test_probe_methods.py::TestPartitionedPeer::"
            "test_probe_all_skips_the_partitioned_peer",
            "tests/collectors/test_probe_methods.py::TestPartitionedPeer::"
            "test_probe_maps_routing_failure_to_query_error",
        ),
        source="§9",
    ),
    Mutant(
        name="lapsed_wan_measurement_answers_ok",
        file="src/repro/collectors/master.py",
        before=(
            "        return max((self.net.now - m.measured_at for m in used if m.stale),"
            " default=0.0)\n"
        ),
        after="        return 0.0\n",
        killers=(
            "tests/integration/test_chaos.py::TestProbeFaults::"
            "test_answer_built_on_an_expired_wan_measurement_is_stale",
        ),
        source="§10",
    ),
    Mutant(
        name="octet_counters_truncated",
        file="src/repro/snmp/mib.py",
        before=(
            "                lambda i=iface, n=net: round(i.in_octets(n.now)),\n"
            "                lambda i=iface, n=net: round(i.out_octets(n.now)),\n"
        ),
        after=(
            "                lambda i=iface, n=net: int(i.in_octets(n.now)),\n"
            "                lambda i=iface, n=net: int(i.out_octets(n.now)),\n"
        ),
        killers=(
            "tests/snmp/test_mib_agent_client.py::TestDeviceMibs::"
            "test_whole_byte_transfers_count_whole_octets",
        ),
        source="§10",
    ),
    Mutant(
        name="measurement_age_judged_on_the_moving_clock",
        file="src/repro/collectors/benchmark_collector.py",
        before="            now = self.net.now if as_of is None else as_of\n",
        after="            now = self.net.now\n",
        killers=(
            "tests/collectors/test_benchmark_master.py::TestAgeJudgedWhenTheStitchStarts::"
            "test_one_lapsed_direction_does_not_cascade",
        ),
        source="§10",
    ),
]
