"""Fig. 7 — CPU time to fit/init and step/predict RPS models.

Paper: "RPS's models vary over four orders of magnitude in their
computational costs", broken down into a fit/init cost (fitting to 600
samples) and a step/predict cost (push one new sample through, produce
one set of predictions).

We time both phases for the same model spread the paper shows —
trivial (MEAN/LAST), windowed, AR, MA, ARMA, ARIMA, ARFIMA — and check
the ordering and the orders-of-magnitude spread.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rps.hostload import host_load_trace
from repro.rps.models import parse_model

from _util import emit, fmt_row, mean_s, time_us

FIT_SAMPLES = 600  # the paper's fit size
SPECS = ["MEAN", "LAST", "BM(32)", "AR(16)", "MA(8)", "ARMA(8,8)", "ARIMA(8,1,8)", "ARFIMA(2,0)"]


def run_model_costs():
    trace = host_load_trace(FIT_SAMPLES + 1000, seed=8)
    fit_data = trace[:FIT_SAMPLES]
    results = {}
    for spec in SPECS:
        model = parse_model(spec)
        fit_us = time_us(lambda m=model: m.fit(fit_data))
        fitted = model.fit(fit_data)
        stream = iter(np.tile(trace[FIT_SAMPLES:], 100))

        def step_predict(f=fitted, s=stream):
            f.step(float(next(s)))
            f.forecast(1)

        step_us = time_us(step_predict)
        results[spec] = (fit_us, step_us)
    return results


def test_fig7_model_costs(benchmark):
    results = benchmark.pedantic(run_model_costs, rounds=1, iterations=1)

    widths = [14, 14, 18]
    lines = [
        f"CPU time to fit/init ({FIT_SAMPLES} samples) and step/predict RPS models",
        "paper: costs vary over four orders of magnitude across models",
        "",
        fmt_row(["model", "fit/init[us]", "step/predict[us]"], widths),
    ]
    for spec in SPECS:
        fit_us, step_us = results[spec]
        lines.append(fmt_row([spec, f"{fit_us:.1f}", f"{step_us:.1f}"], widths))
    fits = [results[s][0] for s in SPECS]
    spread = max(fits) / max(min(fits), 1e-9)
    lines.append("")
    lines.append(f"fit-cost spread: {spread:,.0f}x (paper: ~10,000x)")
    emit("fig7_model_costs", lines)

    # --- shape assertions ----------------------------------------------
    # trivial models are the cheapest to fit
    assert results["MEAN"][0] < results["AR(16)"][0]
    assert results["LAST"][0] < results["AR(16)"][0]
    # ARMA/ARIMA (regression-based fits) cost more than pure AR
    assert results["ARMA(8,8)"][0] > results["AR(16)"][0]
    # the full spread covers >= 2 orders of magnitude (the paper's
    # Alpha showed ~4; modern numpy narrows constant factors, and
    # wall-clock micro-timings jitter run to run)
    assert spread > 150
    # step costs: trivial models beat ARMA-family stepping
    assert results["MEAN"][1] < results["ARMA(8,8)"][1]


def test_fig7_client_server_pays_fit_every_time(benchmark):
    """Paper §5.3: in the client-server interface 'the fit/init and
    step/predict costs are paid every time a query is made'."""
    from repro.rps.predictor import ClientServerPredictor

    trace = host_load_trace(FIT_SAMPLES + 10, seed=9)
    server = ClientServerPredictor("AR(16)")

    def one_request():
        server.request(trace[:FIT_SAMPLES], 1)

    request_s = mean_s(benchmark, one_request)
    # a request costs at least one AR(16) fit
    model = parse_model("AR(16)")
    fit_us = time_us(lambda: model.fit(trace[:FIT_SAMPLES]))
    assert request_s * 1e6 > 0.5 * fit_us
