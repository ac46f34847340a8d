"""Trace-overhead smoke check (CI gate).

Two guarantees the tracing subsystem makes, checked mechanically:

1. **Identical answers.**  A run under the default no-op registry and
   a run under a live tracing registry produce byte-identical answers
   (modulo the ``trace_id`` field, which is the point of tracing).
2. **Bounded cost per span.**  What a live registry adds to a warm
   query, divided by the spans it records for that query, is at most
   ``MAX_US_PER_SPAN`` microseconds.  An absolute budget fails when
   tracing gets dearer, not when the untraced query gets faster, which
   a ratio against the no-op wall time did every time a query got
   quicker.

The estimate must survive a noisy shared CI host, where machine-level
drift (frequency scaling, neighbours, allocator state) over a few
seconds is the same order as the cost being measured.  So the
measurement is *paired*: each traced batch is set against a no-op batch
run immediately next to it, alternating which mode goes first, and the
reported cost is the **median** of the paired differences (traced minus
no-op, microseconds per query) over the median spans the live registry
recorded per query.  Pairing cancels slow drift, alternation cancels
ordering bias, and the median shrugs off the occasional batch that eats
a scheduler stall.  The GC is disabled (and collected) around each pair
so collection pauses land between measurements, not inside an arbitrary
batch.

Run directly (exit 1 on violation)::

    PYTHONPATH=src python benchmarks/trace_overhead_smoke.py
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time

from repro import obs
from repro.common.units import MBPS
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan
from repro.rps.service import RpsPredictionService

#: a live registry may add at most this many microseconds of wall time
#: to a warm query per span it records (4-5 us measured on a 2-core
#: x86-64 container; the limit leaves room for a slower runner)
MAX_US_PER_SPAN = 12.0
#: queries per measured batch / adjacent (no-op, traced) batch pairs
BATCH = 100
PAIRS = 24


def build():
    """The query-rate benchmark's warm 32-host LAN."""
    lan = build_switched_lan(32, fanout=8)
    dep = deploy_lan(lan)
    dep.modeler.prediction_service = RpsPredictionService("AR(16)")
    lan.net.flows.start_flow(lan.hosts[0], lan.hosts[31], demand_bps=20 * MBPS)
    dep.session().flow_info(lan.hosts[0], lan.hosts[31])
    dep.start_monitoring()
    lan.net.engine.run_until(lan.net.now + 200.0)
    dep.stop()
    return lan, dep


def answers_of(dep, lan, k: int) -> list[dict]:
    out = []
    for _ in range(k):
        ans = dep.session().flow_info(lan.hosts[0], lan.hosts[31])
        out.append(dataclasses.asdict(ans))
    return out


def check_identical_answers() -> int:
    """Fresh deployment per mode; answers must match except trace_id."""
    lan, dep = build()
    plain = answers_of(dep, lan, 5)
    lan, dep = build()
    with obs.scoped_registry() as reg:
        reg.use_sim_clock(lan.net.engine)
        traced = answers_of(dep, lan, 5)
    assert all(a["trace_id"] is None for a in plain)
    assert all(a["trace_id"] for a in traced)
    for a in plain + traced:
        a.pop("trace_id")
    if plain != traced:
        print("FAIL: answers differ between no-op and tracing registries")
        for i, (p, t) in enumerate(zip(plain, traced)):
            if p != t:
                print(f"  first diff at query {i}:")
                for key in p:
                    if p[key] != t[key]:
                        print(f"    {key}: {p[key]!r} != {t[key]!r}")
                break
        return 1
    print(f"OK: {len(plain)} answers identical (trace_id aside)")
    return 0


def measure_batch(dep, lan) -> float:
    t0 = time.perf_counter()
    for _ in range(BATCH):
        dep.session().flow_info(lan.hosts[0], lan.hosts[31])
    return time.perf_counter() - t0


def traced_batch(dep, lan) -> tuple[float, int]:
    """Wall time of a batch under a live registry, and the spans it recorded."""
    with obs.scoped_registry() as reg:
        reg.use_sim_clock(lan.net.engine)
        elapsed = measure_batch(dep, lan)
        if len(reg.spans) == reg.spans.maxlen:
            raise RuntimeError("span ring full: the batch recorded more spans than it holds")
        return elapsed, len(reg.spans)


def check_overhead() -> int:
    lan, dep = build()
    # one throwaway batch per mode to warm code paths
    measure_batch(dep, lan)
    traced_batch(dep, lan)
    plain_us, added_us, spans = [], [], []
    gc.disable()
    try:
        for i in range(PAIRS):
            gc.collect()
            if i % 2 == 0:
                plain = measure_batch(dep, lan)
                traced, n_spans = traced_batch(dep, lan)
            else:
                traced, n_spans = traced_batch(dep, lan)
                plain = measure_batch(dep, lan)
            plain_us.append(plain / BATCH * 1e6)
            added_us.append((traced - plain) / BATCH * 1e6)
            spans.append(n_spans / BATCH)
    finally:
        gc.enable()
    per_query_us = statistics.median(added_us)
    spans_per_query = statistics.median(spans)
    per_span_us = per_query_us / spans_per_query
    print(
        f"tracing adds {per_query_us:+.1f} us to a warm query of "
        f"{statistics.median(plain_us):.0f} us, over "
        f"{spans_per_query:g} spans: {per_span_us:.2f} us per span "
        f"(limit {MAX_US_PER_SPAN:g}; median of {PAIRS} paired batches of "
        f"{BATCH}, spread {min(added_us):+.1f}..{max(added_us):+.1f} us per query)"
    )
    if per_span_us > MAX_US_PER_SPAN:
        print("FAIL: tracing costs more per span than the budget")
        return 1
    print("OK: tracing cost per span within budget")
    return 0


def main() -> int:
    return check_identical_answers() or check_overhead()


if __name__ == "__main__":
    sys.exit(main())
