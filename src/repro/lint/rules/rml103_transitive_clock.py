"""RML103 — sim-clock purity in the simulation-facing layers.

The chaos suite pins seed-for-seed reproducibility on the simulation
clock: every timestamp that influences behaviour must come from the
Engine (``net.engine.now``) and every duration measurement from
``repro.obs.timebase`` (``wall_now``/``cpu_now``), which keeps the
wall-clock reads centralised, mockable, and out of simulation state.
One stray ``time.time()`` in a collector silently decouples a run from
its seed.

Every function defined under :data:`SCOPE` (netsim, snmp, collectors,
faults, rps), public or private, and every module body there is an
entry point.  From each the rule walks the call graph through the
project modules outside the scope (a function inside it is an entry of
its own) and reports each wall-clock call it reaches at the entry's own
call that leads there — the read itself, or the call into the helper
that makes it — which is where the fix or a pragma belongs.

Calls resolve through import aliases (``from time import sleep``,
``import time as t``).  ``repro.obs`` is the sanctioned sink package
and ``repro.lint`` analyses rather than participates, so neither is
traversed.  A bare reference such as ``return time.monotonic`` is not
a call and is not seen.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallEdge
from repro.lint.core import Violation, prefix_match
from repro.lint.project import Project, Rule, violation_at

#: the simulation-facing layers
SCOPE = (
    "src/repro/netsim",
    "src/repro/snmp",
    "src/repro/collectors",
    "src/repro/faults.py",
    "src/repro/rps",
)

#: canonical dotted names that read a process clock or block on one
BANNED = {
    "time.time": "use the Engine clock (net.engine.now)",
    "time.time_ns": "use the Engine clock (net.engine.now)",
    "time.sleep": "use engine.advance()/engine.every() instead of blocking",
    "time.monotonic": "use obs.timebase.wall_now()",
    "time.monotonic_ns": "use obs.timebase.wall_now()",
    "time.perf_counter": "use obs.timebase.wall_now()",
    "time.perf_counter_ns": "use obs.timebase.wall_now()",
    "time.process_time": "use obs.timebase.cpu_now()",
    "time.process_time_ns": "use obs.timebase.cpu_now()",
    "datetime.datetime.now": "use the Engine clock (net.engine.now)",
    "datetime.datetime.utcnow": "use the Engine clock (net.engine.now)",
    "datetime.datetime.today": "use the Engine clock (net.engine.now)",
    "datetime.date.today": "use the Engine clock (net.engine.now)",
}

#: packages never traversed: sanctioned clock sinks and the analyzer
EXCLUDED_PACKAGES = ("repro.obs", "repro.lint")


class TransitiveClockRule(Rule):
    code = "RML103"
    name = "sim-clock-purity"
    rationale = (
        "a sim-layer function or module that reads, or can reach, a "
        "wall-clock call breaks seed-for-seed chaos determinism; use the "
        "Engine clock or obs.timebase"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        graph = project.graph

        def in_scope(path: str) -> bool:
            return any(prefix_match(path, sc) for sc in SCOPE)

        entries = [
            (fn.qname, fn.path) for fn in graph.functions.values() if in_scope(fn.path)
        ] + [
            (graph.module_body_id(info.name), info.path)
            for info in graph.modules.values() if in_scope(info.path)
        ]
        for entry, path in sorted(entries):
            seen = {entry}
            #: (function, call chain from the entry, the entry's own call
            #: the chain started at — None while still in the entry)
            stack: list[tuple[str, list[str], CallEdge | None]] = [(entry, [entry], None)]
            found: set[str] = set()
            while stack:
                qname, chain, origin = stack.pop()
                holder = path if origin is None else graph.functions[qname].path
                for edge in graph.edges_from(qname):
                    if edge.external in BANNED and edge.external not in found:
                        found.add(edge.external)
                        via = " -> ".join(_short(q) for q in chain)
                        yield violation_at(
                            self, path, origin or edge,
                            f"{_short(entry)} can reach wall-clock "
                            f"call {edge.external} (via {via} at "
                            f"{holder}:{edge.lineno}); "
                            f"{BANNED[edge.external]}",
                        )
                    callee = edge.callee
                    if callee is None or callee in seen:
                        continue
                    # a function in scope is an entry of its own; tests
                    # and benchmarks may read clocks freely
                    target = graph.functions.get(callee)
                    if (
                        target is None
                        or in_scope(target.path)
                        or _excluded(target.module)
                        or not target.module.startswith("repro")
                    ):
                        continue
                    seen.add(callee)
                    stack.append((callee, chain + [callee], origin or edge))


def _excluded(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in EXCLUDED_PACKAGES
    )


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname
