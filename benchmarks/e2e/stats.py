"""Order statistics the harness reports: medians, quartiles, percentiles."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return float(ordered[idx]), len(ordered) - 1 - idx


def segment_percentile(segments: list[list[float]], pct: float) -> tuple[float, str]:
    """A latency percentile that one disturbed segment cannot move.

    Where every segment has at least ten samples beyond the percentile,
    the percentile is taken per segment and the median of those is
    reported; otherwise (few, slow operations per segment) it is taken
    once over the pooled samples.  The note says which, with the counts.
    """
    per_segment = [percentile(samples, pct) for samples in segments if samples]
    if per_segment and min(beyond for _, beyond in per_segment) >= 10:
        n = min(len(samples) for samples in segments if samples)
        return (
            median([value for value, _ in per_segment]),
            f"median over {len(per_segment)} segments of each one's p{pct:g} (>= {n} samples each)",
        )
    pooled = [v for samples in segments for v in samples]
    value, beyond = percentile(pooled, pct)
    return value, f"p{pct:g} of {len(pooled)} pooled samples, {beyond} beyond"
