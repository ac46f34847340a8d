"""One seeded end-to-end benchmark for the Remos query plane.

    python3 benchmarks/e2e/run.py --seed 7                 # five workloads, tracing off
    python3 benchmarks/e2e/run.py --seed 7 --traced        # ... then the traced pass
    python3 benchmarks/e2e/run.py --seed 7 --quick --traced
    python3 benchmarks/e2e/run.py --seed 7 --aa            # two sides of three sets must agree
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit; the exit code is
non-zero when any answer fails the correctness gate (``checks.py``).
The last form is the one ``BENCHMARK.json`` declares: it ends with one
JSON line holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) of that workload.  See ``README.md``
for what each number means and which clock it uses.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any

import bootstrap
import machine
import stats

#: measured segments per workload when no ``--seconds`` budget is given
SEGMENTS = 10
#: a time budget never measures fewer segments than this
MIN_SEGMENTS = 3
#: times a workload is set up in one run; ``setup_s`` is their median
SETUPS = 3
#: ``--aa`` measures each of its two sides this many times, in turn, and
#: compares the sides' medians: one run against one run differs by more than
#: a 0.25 bound about once in ten on this box, a median of three does not
AA_RUNS = 3
#: how far a count or simulated-clock metric may differ between two
#: run sets of the HTTP workloads (the in-process ones must match exactly)
COUNT_BOUND = 0.01

END_TO_END = (
    "setup_s",
    "throughput_qps",
    "lat_p50_ms",
    "lat_tail_ms",
    "cpu_ms_per_query",
    "rss_mb",
)
#: what a user sees beyond the six above, where a workload has it: zero
#: elsewhere, so ``BENCHMARK.json`` lists these with the layer metrics
USER_COUNTS = (
    "wire_kb_per_query",
    "sim_ms_per_query",
    "first_answer_sim_s",
    "refresh_sim_s",
    "monitor_wall_ms_per_sim_s",
    "failed_share",
    "degraded_share",
)
#: workloads whose counts repeat exactly for a seed (one thread, no socket)
DETERMINISTIC = ("session_cold_discovery", "session_monitor_churn", "direct_overload_shed")


def declared() -> dict[str, Any]:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- measuring ----------------------------------------------------------


class Meter:
    """Collects calibration readings and turns them into the run's speed factor.

    One factor per run (``reference / median reading``) rather than one
    per segment: a median over segments and a median over readings pick
    the same majority state of the machine, and a single noisy reading
    cannot spoil a segment.
    """

    def __init__(self, read: Any) -> None:
        self.read = read
        self.readings = [read()]

    def tick(self) -> None:
        self.readings.append(self.read())

    def calibration_s(self) -> float:
        return stats.median(self.readings)

    def factor(self) -> float:
        return machine.REFERENCE_S / self.calibration_s()


def _segments(w: Any, meter: Meter, count: int, seconds: float | None) -> list[Any]:
    segs: list[Any] = []
    t0 = time.perf_counter()

    def more() -> bool:
        if seconds is None:
            return len(segs) < count
        return len(segs) < MIN_SEGMENTS or time.perf_counter() - t0 < seconds

    while more():
        segs.append(w.segment())
        meter.tick()
    return segs


def _user_counts(segs: list[Any], factor: float, extra_failed: int = 0) -> dict[str, float]:
    ops = sum(s.ops for s in segs)
    sim_total = sum(s.sim_total_s for s in segs)
    return {
        "wire_kb_per_query": sum(s.wire_bytes for s in segs) / ops / 1e3,
        "sim_ms_per_query": sum(s.sim_query_s for s in segs) / ops * 1e3,
        "first_answer_sim_s": stats.median([v for s in segs for v in s.first_sim_s]),
        "refresh_sim_s": stats.median([v for s in segs for v in s.refresh_sim_s]),
        "monitor_wall_ms_per_sim_s": (
            sum(s.monitor_wall_s for s in segs) * factor / sim_total * 1e3 if sim_total else 0.0
        ),
        "failed_share": (sum(s.failed for s in segs) + extra_failed) / ops,
        "degraded_share": sum(s.degraded for s in segs) / ops,
    }


def fresh_process(fn: Any, **kw: Any) -> Any:
    """Call ``fn`` in a new interpreter and return what it returns.

    Every pass of every workload gets its own process, so peak memory,
    heap layout and collector state never carry from one workload into
    the next, and ``--workload X`` measures what a full run measures.
    The process is this script again (``--pass``, see :func:`run_pass`),
    a plain child that is waited for on every way out: nothing outlives
    the run, not even a helper of ``multiprocessing``.
    """
    proc = subprocess.Popen(
        [sys.executable, str(bootstrap.HERE / "run.py"), "--pass", fn.__name__, json.dumps(kw)],
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # the pass stops its own server child on the way out
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode:
        raise SystemExit(proc.returncode)
    return json.loads(out)


def run_pass(name: str, kw: str) -> int:
    """The child side of :func:`fresh_process`: the result, as JSON, is all of stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        result = PASSES[name](**json.loads(kw))
    print(json.dumps(result))
    return 0


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def measure(
    workload: str, seed: int, *, segments: int, seconds: float | None, scale: float,
    setups: int, corrupt: bool,
) -> dict[str, Any]:
    """The untraced pass of one workload: every end-to-end number comes from here."""
    bootstrap.add_src()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, scale=scale, corrupt=corrupt)
    setup_meter = Meter(machine.calibration_s)
    setup_s = []
    mismatches = 0
    for i in range(setups):
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
        setup_meter.tick()
        if i == 0:
            mismatches = w.setup_mismatches()
        if i < setups - 1:
            w.close()
    try:
        w.segment()  # warm-up: code paths, allocator, socket buffers
        meter = Meter(w.calibration_s)
        segs = _segments(w, meter, segments, seconds)
        rss_mb = w.rss_mb()
    finally:
        w.close()
    f = meter.factor()
    qps = [s.ops / s.wall_s / f for s in segs]
    q1, q3 = stats.quartiles(qps)
    lat = [s.lat_s for s in segs]
    p50, p50_note = stats.segment_percentile(lat, 50.0)
    tail, tail_note = stats.segment_percentile(lat, w.tail_pct)
    metrics = {
        "setup_s": stats.median(setup_s) * setup_meter.factor(),
        "throughput_qps": stats.median(qps),
        "lat_p50_ms": p50 * f * 1e3,
        "lat_tail_ms": tail * f * 1e3,
        "cpu_ms_per_query": stats.median([s.cpu_s / s.ops for s in segs]) * f * 1e3,
        "rss_mb": rss_mb,
    }
    metrics.update(_user_counts(segs, f, mismatches))
    metrics["harness.calibration_ms"] = meter.calibration_s() * 1e3
    return {
        "metrics": metrics,
        "notes": {
            "setup_s": f"median of {setups} set-ups",
            "throughput_qps": f"median of {len(segs)} segments, quartiles {q1:.6g} .. {q3:.6g}",
            "lat_p50_ms": p50_note,
            "lat_tail_ms": tail_note,
        },
        "attempted": sum(s.ops for s in segs),
        "failed": sum(s.failed for s in segs) + mismatches,
    }


def trace(
    workload: str, seed: int, *, pairs: int, seconds: float | None, scale: float
) -> dict[str, Any]:
    """The traced pass: untraced and traced segments in turn, one registry."""
    bootstrap.add_src()
    import layers
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, scale=scale, traced=True)
    w.setup()
    plain, traced = [], []
    delta: dict[str, int] = {}
    try:
        w.segment()
        meter = Meter(w.calibration_s)
        t0 = time.perf_counter()
        while len(traced) < pairs or (seconds is not None and time.perf_counter() - t0 < seconds):
            plain.append(w.segment())
            before = w.service_stats()
            with w.tracer.recording():
                traced.append(w.segment())
            meter.tick()
            for key, value in w.service_stats().items():
                delta[key] = delta.get(key, 0) + value - before[key]
    finally:
        w.close()
    spans = w.tracer.span_dicts()
    metrics = layers.workload_layers(w.tracer.reg, spans, traced, delta)
    metrics["obs.trace_overhead_share"] = 1.0 - stats.median(
        [s.ops / s.wall_s for s in traced]
    ) / stats.median([s.ops / s.wall_s for s in plain])
    # counts and simulated times are the same with and without spans; the
    # wall-clock member of the set is taken from the untraced segments only
    metrics.update(_user_counts(plain, meter.factor()))
    metrics["harness.calibration_ms"] = meter.calibration_s() * 1e3
    invalid = layers.validity_failures(w.name, metrics)
    bootstrap.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (bootstrap.OUT_DIR / f"trace-{w.name}.json").write_text(json.dumps({"spans": spans}))
    return {
        "metrics": metrics,
        "notes": {},
        "attempted": sum(s.ops for s in plain + traced),
        "failed": sum(s.failed for s in plain + traced) + invalid,
    }


# -- comparing two run sets ---------------------------------------------


def _bound(workload: str, name: str, bounds: dict[str, float]) -> float:
    if name in bounds:
        return bounds[name]
    if name == "monitor_wall_ms_per_sim_s":  # the one wall-clock number outside END_TO_END
        return bounds["throughput_qps"]
    return 0.0 if workload in DETERMINISTIC else COUNT_BOUND


def disagreements(sets: list[dict[str, Any]], bounds: dict[str, float]) -> list[str]:
    """Compare side A (even sets) with side B (odd sets) of one code version.

    A timing is compared as the two sides' medians, within its bound; a
    metric that must repeat exactly is compared over every set.
    """
    out = []
    for workload in sets[0]:
        for name in END_TO_END + USER_COUNTS:  # not the machine's own speed
            values = [s[workload]["metrics"][name] for s in sets]
            bound = _bound(workload, name, bounds)
            if bound:
                va, vb = stats.median(values[0::2]), stats.median(values[1::2])
            else:
                va, vb = min(values), max(values)
            if abs(va - vb) > bound * abs(va):
                out.append(f"{workload} {name}: {va!r} against {vb!r} (bound {bound})")
    return out


# -- output -------------------------------------------------------------


def probe(seed: int) -> dict[str, Any]:
    """The layer probes (``probes.py``), the same whichever workload is traced."""
    bootstrap.add_src()
    import probes

    return {"metrics": probes.run(seed), "notes": {}}


PASSES = {"measure": measure, "trace": trace, "probe": probe}


def fingerprint(seed: int) -> dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "seed": seed,
    }


def print_block(workload: str, result: dict[str, Any], units: dict[str, str]) -> None:
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        note = result["notes"].get(name, "")
        unit = units.get(name, "?")
        print(f"metric {workload:<24} {name:<42} {shown:>12} {unit:<10} {note}".rstrip())


def contract_line(result: dict[str, Any], names: list[str], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                n: {"value": result["metrics"][n], "unit": units[n]} for n in names
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    # a terminated run unwinds like any other, so its children are stopped and reaped
    signal.signal(signal.SIGTERM, _terminated)
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--pass"]:
        return run_pass(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    flag = parser.add_argument
    flag("--seed", type=int, default=0)
    flag("--workload", help="run one workload (default: all five)")
    flag("--seconds", type=float, help="measure this long, not a fixed segment count")
    flag("--trace", type=int, choices=(0, 1),
         help="0: untraced pass only, 1: traced pass only; ends with the BENCHMARK.json line")
    flag("--traced", action="store_true", help="add the traced pass after the untraced one")
    flag("--quick", action="store_true", help="one quarter-size segment per workload")
    flag("--aa", action="store_true",
         help=f"run the untraced set {2 * AA_RUNS} times as two sides; fail if the sides disagree")
    flag("--corrupt", action="store_true",
         help="spoil one answer per segment before it is checked (proves the gate fails)")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    bench = declared()
    bootstrap.add_src()
    from workloads import WORKLOADS

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    untraced_pass = args.trace != 1
    traced_pass = args.traced or args.trace == 1
    shape = {
        "segments": 1 if args.quick else SEGMENTS,
        "seconds": None if args.quick else args.seconds,
        "scale": 0.25 if args.quick else 1.0,
    }

    def untraced_set() -> dict[str, Any]:
        return {
            n: fresh_process(measure, workload=n, seed=args.seed,
                             setups=1 if args.quick else SETUPS, corrupt=args.corrupt, **shape)
            for n in names
        }

    failed = 0
    record: dict[str, Any] = {"fingerprint": fingerprint(args.seed), "argv": sys.argv[1:]}
    if untraced_pass:
        record["end_to_end"] = untraced_set()
        for n, result in record["end_to_end"].items():
            print_block(n, result, units)
            failed += result["failed"]
        if args.aa:
            more = [untraced_set() for _ in range(2 * AA_RUNS - 1)]
            record["end_to_end_again"] = more
            differing = disagreements([record["end_to_end"], *more], bounds)
            for line in differing:
                print(f"A/A disagreement: {line}")
            failed += len(differing) + sum(r["failed"] for s in more for r in s.values())
            print(f"A/A: {len(differing)} disagreement(s) between two sides of the same code")
    if traced_pass:
        # half the budget for the alternating segments: the probes take the rest
        budget = None if shape["seconds"] is None else shape["seconds"] / 2
        record["per_layer"] = {
            n: fresh_process(trace, workload=n, seed=args.seed, pairs=1, seconds=budget,
                             scale=shape["scale"])
            for n in names
        }
        probed = record["probes"] = fresh_process(probe, seed=args.seed)
        for n, result in record["per_layer"].items():
            print_block(n, result, units)
            failed += result["failed"]
        print_block("probes", probed, units)

    bootstrap.OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_json = json.dumps(record, indent=1, sort_keys=True)
    (bootstrap.OUT_DIR / "result.json").write_text(result_json + "\n")
    with open(bootstrap.OUT_DIR / "history.jsonl", "a") as fh:
        summary = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **record["fingerprint"],
            "argv": record["argv"],
            "failed": failed,
            "end_to_end": {n: r["metrics"] for n, r in record.get("end_to_end", {}).items()},
        }
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    print(f"{'FAILED' if failed else 'ok'}: {failed} failed check(s)")

    if args.trace == 0:
        result = record["end_to_end"][args.workload]
        print(contract_line(result, [m["name"] for m in bench["end_to_end"]], units))
    elif args.trace == 1:
        result = record["per_layer"][args.workload]
        result["metrics"].update(record["probes"]["metrics"])
        print(contract_line(result, [m["name"] for m in bench["per_layer"]], units))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
