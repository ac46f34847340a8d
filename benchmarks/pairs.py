"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/pairs.py --parent HEAD~1 --change HEAD \\
        --workload direct_overload_shed --pairs 10 --seconds 15 --seed 101

``--parent`` and ``--change`` each name a directory holding a checkout,
or a git revision, which is exported (``git archive``) to a temporary
directory first.  Pair ``i`` runs ``benchmarks/e2e/run.py --workload W
--seconds S --trace T --seed K+i`` once in each tree, parent first on
even pairs and change first on odd ones, so a drift of the machine
lands on both sides.  Each run is a fresh process.

For every metric the pass prints, the report gives each side's median
and quartiles over the pairs, the change of the medians, and how many
pairs the change won.  The verdict column reads:

* ``unresolved`` where the parent's own quartile spread, relative to
  its median, exceeds the metric's bound in ``BENCHMARK.json``: a move
  smaller than that spread cannot be told from the machine;
* ``worse`` where the change's median is worse by more than the bound;
* ``gain`` where the change won at least nine pairs in ten and its
  median is better by more than the parent's quartile spread;
* ``-`` otherwise.

Both sides' ``harness.calibration_ms`` is printed first: a shift there
is the machine, not the code.  ``--out`` keeps every run's metrics as
JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
CALIBRATION = "harness.calibration_ms"
#: a gain must win this share of the pairs
WIN_SHARE = 0.9


def export(ref: str, into: Path) -> Path:
    """``ref`` itself if it is a directory, else the git revision ``ref``
    exported under ``into``."""
    if Path(ref).is_dir():
        return Path(ref).resolve()
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", ref], cwd=REPO, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seconds: float, trace: int, seed: int) -> dict[str, float]:
    """One pass of ``run.py`` in ``tree``: every ``metric`` line it
    printed for ``workload``, and with ``trace`` for the layer probes,
    by name."""
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace), "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"run.py failed in {tree} (seed {seed}, exit {out.returncode})")
    # "metric <workload> <name> <value> <unit> [note]"
    metrics = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric" and parts[1] in (workload, "probes"):
            metrics[parts[2]] = float(parts[3])
    return metrics


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3


def verdict(
    name: str, parent: list[float], change: list[float], wins: int, spec: dict[str, Any]
) -> str:
    better = spec.get(name, {}).get("better")
    if better is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    med_p, q1_p, q3_p = spread(parent)
    med_c = spread(change)[0]
    bound = spec[name].get("bound")
    scale = abs(med_p) or 1.0
    if bound is not None and (q3_p - q1_p) / scale > bound:
        return "unresolved"
    if bound is not None and sign * (med_c - med_p) / scale > bound:
        return "worse"
    if wins >= WIN_SHARE * len(parent) and sign * (med_p - med_c) > q3_p - q1_p:
        return "gain"
    return "-"


Pair = tuple[dict[str, float], dict[str, float]]


def report(workload: str, runs: list[Pair], spec: dict[str, Any]) -> None:
    names = [n for n in runs[0][0] if all(n in p and n in c for p, c in runs)]
    names.sort(key=lambda n: (n != CALIBRATION, n not in spec, n))
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"  {'metric':<36} {'parent median [q1 .. q3]':>36} {'change median [q1 .. q3]':>36} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for name in names:
        parent = [p[name] for p, _ in runs]
        change = [c[name] for _, c in runs]
        better = spec.get(name, {}).get("better", "lower")
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        med_p, med_c = spread(parent)[0], spread(change)[0]
        delta = f"{(med_c - med_p) / med_p:+.1%}" if med_p else "-"
        print(f"  {name:<36} {cell(parent):>36} {cell(change):>36} {delta:>8} "
              f"{wins:>3}/{len(runs):<2}  {verdict(name, parent, change, wins, spec)}")


def cell(values: list[float]) -> str:
    med, q1, q3 = spread(values)
    return f"{med:.5g} [{q1:.5g} .. {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout directory or git revision")
    ap.add_argument("--change", required=True, help="checkout directory or git revision")
    ap.add_argument(
        "--workload", action="append", help="repeatable; default: every workload of BENCHMARK.json"
    )
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=101, help="pair i runs seed SEED+i on both sides")
    ap.add_argument("--out", type=Path, help="append every run's metrics here as JSON lines")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent = export(args.parent, Path(tmp) / "parent")
        change = export(args.change, Path(tmp) / "change")
        bench = json.loads((change / "BENCHMARK.json").read_text())
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("parent", parent), ("change", change)]
                if i % 2:
                    order.reverse()
                got = {
                    side: run_once(tree, workload, args.seconds, args.trace, seed)
                    for side, tree in order
                }
                runs.append((got["parent"], got["change"]))
                cal = [got[side].get(CALIBRATION, 0.0) for side in ("parent", "change")]
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      f"{CALIBRATION} {cal[0]:.4g} / {cal[1]:.4g}", flush=True)
                if args.out:
                    with args.out.open("a") as fh:
                        for side in ("parent", "change"):
                            fh.write(json.dumps({"workload": workload, "pair": i, "seed": seed,
                                                 "side": side, "metrics": got[side]}) + "\n")
            report(workload, runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
