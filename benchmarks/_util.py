"""Shared helpers for the reproduction benchmarks.

Every benchmark prints a paper-style table to stdout *and* appends it to
``benchmarks/out/<name>.txt`` so a full run leaves a browsable record
(EXPERIMENTS.md is compiled from these).
"""

from __future__ import annotations

import json
from pathlib import Path

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

