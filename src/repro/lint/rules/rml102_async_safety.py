"""RML102 — no blocking calls reachable from service coroutines.

``repro.service`` is a single-threaded asyncio plane: one coroutine
that blocks (a real ``time.sleep``, sync socket/subprocess/file I/O,
or stepping the simulation with ``Engine.run_until``) stalls every
other client on the loop.  A look at one file could only see a blocking
call lexically inside an ``async def``; this rule walks the call graph
so a sleep buried two helpers deep is found from the coroutine that
reaches it.

The traversal deliberately stops at the package boundary: the sync
session backend *is* blocking by design and is invoked under the
backend lock with explicit yield points (see ``RemosService.
_call_backend``), so only functions defined inside ``repro.service``
are walked.  ``asyncio.*`` is sanctioned (``asyncio.sleep`` is the
non-blocking sleep).
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

SERVICE_PACKAGE = "repro.service"

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
#: opaque — stepping the simulation or Path file I/O
BLOCKING_ATTRS = {
    "run_until": "steps the simulation clock on the event loop",
    "read_text": "sync file I/O on the event loop",
    "write_text": "sync file I/O on the event loop",
    "read_bytes": "sync file I/O on the event loop",
    "write_bytes": "sync file I/O on the event loop",
}


class AsyncSafetyRule(Rule):
    code = "RML102"
    name = "async-safety"
    rationale = (
        "blocking calls reachable from repro.service coroutines stall "
        "the whole event loop; reached transitively via the call graph"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        entries = [
            fn for fn in project.functions_under(SERVICE_PACKAGE) if fn.is_async
        ]
        # walk each entry's reachable set within the service package;
        # report each blocking call site once, naming one reaching entry
        reported: set[tuple[str, int, str]] = set()
        for entry in sorted(entries, key=lambda f: f.qname):
            seen = {entry.qname}
            stack = [(entry.qname, [entry.qname])]
            while stack:
                qname, chain = stack.pop()
                for edge in graph.edges_from(qname):
                    sink = advice = None
                    if edge.external in BLOCKING_EXTERNALS:
                        sink = edge.external
                        advice = BLOCKING_EXTERNALS[edge.external]
                    elif edge.attr in BLOCKING_ATTRS:
                        sink = f".{edge.attr}(...)"
                        advice = BLOCKING_ATTRS[edge.attr]
                    if sink is not None:
                        holder = graph.functions[qname]
                        key = (holder.path, edge.lineno, sink)
                        if key not in reported:
                            reported.add(key)
                            via = " -> ".join(_short(q) for q in chain)
                            yield violation_at(
                                self, holder.path, edge,
                                f"blocking call {sink} reachable from async "
                                f"{_short(entry.qname)} (via {via}); {advice}",
                            )
                    callee = edge.callee
                    if callee is None or callee in seen:
                        continue
                    target = graph.functions.get(callee)
                    if target is None or not _in_service(target.module):
                        continue
                    if target.is_async and not edge.via_argument:
                        # awaited coroutines are their own entry points
                        continue
                    seen.add(callee)
                    stack.append((callee, chain + [callee]))


def _in_service(module: str) -> bool:
    return module == SERVICE_PACKAGE or module.startswith(SERVICE_PACKAGE + ".")


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname
