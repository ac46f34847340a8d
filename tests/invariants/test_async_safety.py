"""No blocking call is reachable from a ``repro.service`` coroutine.

``repro.service`` is a single-threaded asyncio plane: one coroutine
that blocks (a real ``time.sleep``, sync socket/subprocess/file I/O, or
stepping the simulation with ``Engine.run_until``) stalls every other
client on the loop.  The check walks the call graph from every
coroutine, so a sleep two helpers deep is found from the coroutine that
reaches it; an awaited coroutine is walked as an entry of its own.

The walk stops at the package boundary: the session backend *is*
blocking by design and runs after one explicit yield, one call at a
time (``RemosService._call_backend``), so only functions defined
inside ``repro.service`` are walked.  ``asyncio.*`` is sanctioned.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from .callgraph import CallGraph, in_package, planted

#: canonical dotted externals that block the event loop
BLOCKING_EXTERNALS = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "os.system": "blocking subprocess",
    "os.popen": "blocking subprocess",
    "subprocess.run": "blocking subprocess",
    "subprocess.call": "blocking subprocess",
    "subprocess.check_call": "blocking subprocess",
    "subprocess.check_output": "blocking subprocess",
    "subprocess.Popen": "blocking subprocess",
    "socket.socket": "sync socket I/O; use asyncio streams",
    "socket.create_connection": "sync socket I/O; use asyncio streams",
    "socket.getaddrinfo": "sync DNS; use loop.getaddrinfo",
    "urllib.request.urlopen": "sync HTTP; use asyncio streams",
    "http.client.HTTPConnection": "sync HTTP; use asyncio streams",
    "open": "sync file I/O on the event loop",
}
#: attribute names that mark a blocking call even when the receiver is
#: opaque: stepping the simulation, or Path file I/O
BLOCKING_ATTRS = {
    "run_until": "steps the simulation clock on the event loop",
    "read_text": "sync file I/O on the event loop",
    "write_text": "sync file I/O on the event loop",
    "read_bytes": "sync file I/O on the event loop",
    "write_bytes": "sync file I/O on the event loop",
}


def async_blocking_calls(sources: Mapping[str, str]) -> list[str]:
    graph = CallGraph.of(sources)
    entries = sorted(
        q for q, fn in graph.functions.items()
        if fn.is_async and in_package(fn.module, "repro.service")
    )
    # each blocking call site once, naming the first entry reaching it
    found: dict[tuple[str, int, str], str] = {}
    for entry in entries:
        seen = {entry}
        stack = [entry]
        while stack:
            qname = stack.pop()
            holder = graph.functions[qname]
            for edge in graph.edges_from(qname):
                if edge.external in BLOCKING_EXTERNALS:
                    sink, advice = edge.external, BLOCKING_EXTERNALS[edge.external]
                elif edge.attr in BLOCKING_ATTRS:
                    sink, advice = f".{edge.attr}(...)", BLOCKING_ATTRS[edge.attr]
                else:
                    sink = None
                if sink is not None:
                    found.setdefault(
                        (holder.path, edge.lineno, sink),
                        f"{holder.path}:{edge.lineno}: blocking call {sink} reachable "
                        f"from async {entry}; {advice}",
                    )
                target = graph.functions.get(edge.callee or "")
                if (
                    target is None
                    or target.qname in seen
                    or not in_package(target.module, "repro.service")
                    # an awaited coroutine is an entry of its own
                    or (target.is_async and not edge.via_argument)
                ):
                    continue
                seen.add(target.qname)
                stack.append(target.qname)
    return list(found.values())


def test_the_committed_tree_holds(tree):
    assert async_blocking_calls(tree) == []


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({
        "src/repro/service/app.py": """
            import time

            from repro.service.util import work


            async def handle():
                return work()
            """,
        "src/repro/service/util.py": """
            import time


            def work():
                time.sleep(0.1)
                return 1
            """,
    }, ["src/repro/service/util.py:6"], "time.sleep reachable from async repro.service.app.handle",
        id="transitive_blocking_call_found"),
    # the sleep inside the awaited coroutine is reported once (for the
    # inner entry), not once per awaiting caller
    pytest.param({
        "src/repro/service/app.py": """
            import time

            from repro.service.inner import leaf


            async def outer():
                return await leaf()
            """,
        "src/repro/service/inner.py": """
            import time


            async def leaf():
                time.sleep(1)
            """,
    }, ["src/repro/service/inner.py:6"], "from async repro.service.inner.leaf",
        id="awaited_coroutines_walked_as_their_own_entries"),
    pytest.param({
        "src/repro/service/app.py": """
            async def handle(engine):
                engine.run_until(5.0)
            """,
    }, ["src/repro/service/app.py:3"], "run_until", id="sim_stepping_attr_heuristic"),
])
def test_async_blocking_calls(files, sites, words):
    found = planted(async_blocking_calls, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)
