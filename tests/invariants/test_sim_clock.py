"""Sim-clock purity: no wall-clock call in, or reachable from, a
simulation-facing layer.

The chaos suite pins seed-for-seed reproducibility on the simulated
clock: every timestamp that influences behaviour must come from the
Engine (``net.engine.now``), and every duration measurement from
``repro.obs.timebase`` (``wall_now``/``cpu_now``), which keeps the
wall-clock reads in one place, mockable and out of simulation state.
One stray ``time.time()`` in a collector silently decouples a run from
its seed.

Every function defined under :data:`SCOPE`, public or private, and
every module body there is an entry.  From each the check walks the
call graph through ``repro`` modules outside the scope (a function
inside it is an entry of its own) and reports each wall-clock call it
reaches at the entry's own call that leads there — the read itself, or
the call into the helper that makes it — which is where the fix
belongs.  ``repro.obs`` is the sanctioned sink and is not walked.  A
bare reference such as ``return time.monotonic`` is not a call and is
not seen.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from .callgraph import CallEdge, CallGraph, in_package, planted, under

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


def wall_clock_reads(sources: Mapping[str, str]) -> list[str]:
    graph = CallGraph.of(sources)
    entries = sorted(
        [(q, fn.path) for q, fn in graph.functions.items() if under(fn.path, SCOPE)]
        + [
            (graph.module_body_id(info.name), info.path)
            for info in graph.modules.values() if under(info.path, SCOPE)
        ]
    )
    found = []
    for entry, path in entries:
        seen = {entry}
        #: (function, the entry's own call the walk started at — None
        #: while still in the entry)
        stack: list[tuple[str, CallEdge | None]] = [(entry, None)]
        reached: set[str] = set()
        while stack:
            qname, origin = stack.pop()
            holder = path if origin is None else graph.functions[qname].path
            for edge in graph.edges_from(qname):
                if edge.external in BANNED and edge.external not in reached:
                    reached.add(edge.external)
                    found.append(
                        f"{path}:{(origin or edge).lineno}: {entry} can reach "
                        f"{edge.external} (at {holder}:{edge.lineno}); "
                        f"{BANNED[edge.external]}"
                    )
                target = graph.functions.get(edge.callee or "")
                if (
                    target is None
                    or target.qname in seen
                    or under(target.path, SCOPE)
                    or in_package(target.module, "repro.obs")
                    # tests and benchmarks may read clocks freely
                    or not target.module.startswith("repro")
                ):
                    continue
                seen.add(target.qname)
                stack.append((target.qname, origin or edge))
    return found


def test_the_committed_tree_holds(tree):
    assert wall_clock_reads(tree) == []


COLLECTOR = "src/repro/collectors/somefile.py"


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({COLLECTOR: """
        import time

        def poll():
            return time.time()
        """}, [f"{COLLECTOR}:5"], "time.time", id="wall_clock_call_flagged"),
    pytest.param({COLLECTOR: """
        import time as t
        from time import sleep

        def nap():
            t.monotonic()
            sleep(1)
        """}, [f"{COLLECTOR}:6", f"{COLLECTOR}:7"], "time.", id="aliased_and_from_imports_flagged"),
    pytest.param({COLLECTOR: """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """}, [f"{COLLECTOR}:5"], "datetime.datetime.now", id="datetime_now_flagged"),
    pytest.param({COLLECTOR: """
        from repro import obs

        def poll(net):
            t0 = obs.wall_now()
            return net.engine.now, obs.wall_now() - t0
        """}, [], "", id="engine_clock_and_timebase_sanctioned"),
    # the CLI may read the wall clock
    pytest.param({"src/repro/cli.py": "import time\nt = time.time()\n"}, [], "",
                 id="out_of_scope_layer_ignored"),
    pytest.param({COLLECTOR: "import time\nT0 = time.time()\n"}, [f"{COLLECTOR}:2"],
                 "<module>", id="module_level_read_flagged"),
    pytest.param({COLLECTOR: """
        import time

        def _stamp():
            return time.monotonic()
        """}, [f"{COLLECTOR}:5"], "_stamp", id="private_helper_nobody_calls_flagged"),
    # a reference reads no clock, and a call made through it later is
    # one the call graph cannot follow
    pytest.param({COLLECTOR: """
        import time

        def clock():
            return time.monotonic
        """}, [], "", id="bare_reference_is_not_a_call"),
    # reported at the entry's call into the helper, naming the sink
    pytest.param({
        "src/repro/collectors/sweep.py": """
            from repro.helpers import stamp


            def collect():
                return stamp()
            """,
        "src/repro/helpers.py": """
            import time


            def stamp():
                return time.time()
            """,
    }, ["src/repro/collectors/sweep.py:6"], "collect can reach time.time",
        id="entry_reaching_wall_clock_through_helper"),
    pytest.param({
        "src/repro/collectors/sweep.py": """
            from repro.obs.timebase import wall_now


            def collect():
                return wall_now()
            """,
        "src/repro/obs/timebase.py": """
            import time


            def wall_now():
                return time.time()
            """,
    }, [], "", id="obs_timebase_is_sanctioned"),
])
def test_wall_clock_reads(files, sites, words):
    found = planted(wall_clock_reads, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)
