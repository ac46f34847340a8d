"""Fig. 6 — CPU usage of the RPS host-load prediction system vs rate.

Paper setup: the streaming host-load prediction pipeline with the
appropriate AR(16) model, driven at measurement rates from 1 Hz up;
on a 500 MHz Alpha 21164 the system runs in excess of 700 Hz, saturates
around 1 kHz, and is negligible at the normal 1 Hz rate.

We time one measurement->prediction step (real process time), convert
to CPU fraction at each rate, and locate the saturation rate (where the
fraction reaches 1).  Absolute numbers differ from the Alpha; the
shape — linear growth to saturation, negligible cost at 1 Hz — must
hold.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.rps.hostload import host_load_trace
from repro.rps.predictor import StreamingPredictor

from _util import emit, fmt_row, mean_s

RATES_HZ = [1, 10, 100, 500, 1000, 5000, 20000]


def measure_step_cost(n_steps: int = 2000) -> float:
    """Mean real CPU seconds per streaming observe() with AR(16)."""
    trace = host_load_trace(4000, seed=6)
    sp = StreamingPredictor("AR(16)", trace[:1000], horizon=1)
    stream = trace[1000 : 1000 + n_steps]
    t0 = time.process_time()
    for v in stream:
        sp.observe(float(v))
    return (time.process_time() - t0) / n_steps


def test_fig6_cpu_vs_rate(benchmark):
    per_step = benchmark.pedantic(measure_step_cost, rounds=3, iterations=1)
    per_step = measure_step_cost()  # use a fresh, stable measurement
    saturation_hz = 1.0 / per_step

    widths = [10, 12]
    lines = [
        "CPU usage of AR(16) host-load prediction vs measurement rate",
        "paper: >700 Hz on a 500 MHz Alpha; saturated at ~1 kHz; negligible at 1 Hz",
        "",
        fmt_row(["rate[Hz]", "CPU[%]"], widths),
    ]
    for rate in RATES_HZ:
        frac = min(1.0, per_step * rate)
        lines.append(fmt_row([rate, f"{100 * frac:.2f}"], widths))
    lines.append("")
    lines.append(f"per-step cost: {per_step * 1e6:.1f} us  ->  saturation ~{saturation_hz:,.0f} Hz")
    emit("fig6_rps_cpu_vs_rate", lines)

    # --- shape assertions ----------------------------------------------
    # negligible at the normal 1 Hz rate
    assert per_step * 1.0 < 0.01, "1 Hz must use <1% CPU"
    # the system sustains well beyond 700 Hz on modern hardware
    assert saturation_hz > 700
    # CPU fraction grows linearly with rate below saturation by
    # construction; check the measured step cost is stable enough that
    # the curve is meaningful
    again = measure_step_cost(500)
    assert again == pytest.approx(per_step, rel=1.0)


def test_fig6_latency_measurement(benchmark):
    """Paper: 'latency from measurement to prediction of 1-2 ms' on the
    Alpha.  Report ours."""
    trace = host_load_trace(2000, seed=7)
    sp = StreamingPredictor("AR(16)", trace[:1000], horizon=1)
    stream = iter(np.tile(trace[1000:], 50))

    def one_step():
        sp.observe(float(next(stream)))

    step_s = mean_s(benchmark, one_step)
    emit(
        "fig6_latency",
        [
            "measurement-to-prediction latency (paper: 1-2 ms on 500 MHz Alpha)",
            f"ours: {step_s * 1e6:.1f} us mean",
        ],
    )
    assert step_s < 0.002, "must beat the 2 ms of 2001 hardware"
