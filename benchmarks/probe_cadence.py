"""Probe-round cadence: how far periodic WAN probes stop the simulated world.

    PYTHONPATH=src python benchmarks/probe_cadence.py

A bulk probe advances the engine clock inside its collector's periodic
timer callback, so no event (an SNMP poll, a cross-traffic step, another
collector's round) runs while it moves, and ``Engine.every`` skips the
ticks the clock jumped past.  This script measures that stall.  For 4,
8 and 16 sites, ``build_random_wan(n, seed=7)`` is deployed with
``deploy_wan``, SNMP polling and periodic benchmarks start, and one
``run_until(now + 600)`` runs.  Per size it prints:

* the simulated seconds the run advanced (600 when nothing stalls);
* the seconds, and the share of them, spent inside probe rounds;
* SNMP polls per simulated second (one per collector per 5 s poll
  interval is what the configuration asks for);
* probe rounds per benchmark collector, least and most (``period_s``
  asks for one per period);
* the periodic ticks the engine skipped (``Engine.ticks_skipped``).

Every figure is simulated, so the output repeats exactly for the seed.
It is printed and written to ``benchmarks/out/probe_cadence.txt``.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan

SIZES = (4, 8, 16)
SEED = 7
RUN_S = 600.0
OUT = Path(__file__).parent / "out" / "probe_cadence.txt"


def measure(n_sites: int) -> dict[str, float]:
    """One cadence reading of an ``n_sites`` random WAN."""
    world = build_random_wan(n_sites, seed=SEED)
    dep = deploy_wan(world)
    engine = world.net.engine
    rounds = dict.fromkeys(dep.benchmarks, 0)
    inside = [0.0]

    def timed(site: str, round_fn: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            t0 = engine.now
            round_fn()
            inside[0] += engine.now - t0
            rounds[site] += 1

        return run

    # the periodic timer binds the round when it starts: wrap it first
    for site, bench in dep.benchmarks.items():
        bench._probe_round = timed(site, bench._probe_round)  # type: ignore[method-assign]
    polls0 = sum(c.polls_done for c in dep.snmp_collectors.values())
    dep.start_monitoring()
    dep.start_benchmarks()
    t0, skipped0 = engine.now, engine.ticks_skipped
    engine.run_until(t0 + RUN_S)
    advanced = engine.now - t0
    polls = sum(c.polls_done for c in dep.snmp_collectors.values()) - polls0
    asked = sum(1.0 / c.config.poll_interval_s for c in dep.snmp_collectors.values())
    dep.stop()
    return {
        "sites": n_sites,
        "advanced_s": advanced,
        "inside_s": inside[0],
        "polls_per_s": polls / advanced,
        "polls_asked": asked,
        "rounds_min": min(rounds.values()),
        "rounds_max": max(rounds.values()),
        "ticks_skipped": engine.ticks_skipped - skipped0,
    }


def main() -> None:
    lines = [
        f"build_random_wan(n, seed={SEED}) via deploy_wan, start_monitoring() and "
        f"start_benchmarks(), one run_until(now + {RUN_S:.0f})",
        "",
        "| sites | simulated s advanced | inside probe rounds | polls / s (asked) "
        "| rounds per collector | ticks skipped |",
        "|---|---|---|---|---|---|",
    ]
    for n in SIZES:
        r = measure(n)
        lines.append(
            f"| {r['sites']} | {r['advanced_s']:.1f} "
            f"| {r['inside_s']:.1f} s ({r['inside_s'] / r['advanced_s']:.0%}) "
            f"| {r['polls_per_s']:.2f} ({r['polls_asked']:.2f}) | {r['rounds_min']}–{r['rounds_max']} "
            f"| {r['ticks_skipped']} |"
        )
    text = "\n".join(lines)
    print(text)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text + "\n")


if __name__ == "__main__":
    main()
