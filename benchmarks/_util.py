"""Shared helpers for the reproduction benchmarks.

Every benchmark prints a paper-style table to stdout *and* appends it to
``benchmarks/out/<name>.txt`` so a full run leaves a browsable record
(EXPERIMENTS.md is compiled from these).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, lines: list[str]) -> None:
    """Print a result block and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===")
    print(text)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result as benchmarks/out/BENCH_<name>.json.

    The payload carries the figure's headline numbers.  Registry
    snapshots (wall-clock spans and histograms, different on every run)
    stay out of these committed files.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def fmt_row(cols, widths) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cols, widths))


def time_us(fn: Callable[[], object], min_rounds: int = 5, max_seconds: float = 1.0) -> float:
    """Median microseconds per call, adaptively repeated."""
    t_end = time.perf_counter() + max_seconds
    times = []
    while len(times) < min_rounds or (time.perf_counter() < t_end and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def mean_s(benchmark, fn: Callable[[], object]) -> float:
    """Seconds per call of ``fn`` as ``benchmark(fn)`` measured it.

    Under ``--benchmark-disable`` the fixture calls ``fn`` once and
    keeps no stats, so the median timer reads the same callable.
    """
    benchmark(fn)
    if benchmark.disabled:
        return time_us(fn) / 1e6
    return benchmark.stats["mean"]
