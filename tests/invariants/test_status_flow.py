"""Answer-status discipline, within a function and across calls.

Every ``Answer`` carries a status; a caller that reads
``.available_bps`` without ever looking at ``.status`` / ``.ok`` /
``.degraded`` silently treats PARTIAL or STALE data as fresh truth —
the failure the session API was built to make visible.  The check sees
answers bound from a session query (``ans = session.flow_info(...)``,
``for ans in session.flow_info_many(...)``) and, in every function and
module body that never consults the answer's status, reports:

* a **local drop** (in ``src/repro``): the answer's data fields are
  read here and the answer never escapes (returned, yielded or passed
  on, which moves the obligation to whoever receives it);
* an **unchecked hand-off**: the answer is passed to a function that
  reads its data fields on a path where the status was never
  consulted.  Every function is summarised (which parameters it
  checks, reads, lets escape or forwards), and a fixpoint over the call
  graph carries the summary along forwarding chains.

Conservative by construction: a parameter checked anywhere in the
callee, returned, yielded, stored, or passed into a call that does not
resolve is handled; a caller that checks the answer itself, before or
after the call, is never reported.  The session facade and
``modeler.api`` construct the answers they return, so they are neither
scanned nor summarised.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import pytest

from .callgraph import (
    CallGraph, FunctionInfo, ModuleInfo, body_walk, dotted_name, in_package, planted, under,
)

#: methods returning one Answer (or a list of them)
QUERY_METHODS = {"flow_info", "flow_info_many", "topology", "node_info"}
STATUS_ATTRS = {"status", "ok", "degraded", "site_status", "provenance"}
#: packages whose answers are analysed (tests may ignore status)
CALLERS = ("repro", "examples", "benchmarks")
#: examples and benchmarks print or compare whole answers, status and
#: all, in ways the scan cannot see: a local drop counts only here
LOCAL_DROP_SCOPE = ("src/repro",)
#: the answers' own constructors
EXEMPT_PATHS = ("src/repro/session.py", "src/repro/modeler/api.py")


@dataclass
class _Summary:
    """Per-function parameter facts feeding the fixpoint."""

    checked: set[str] = field(default_factory=set)
    consumed: set[str] = field(default_factory=set)
    escaped: set[str] = field(default_factory=set)
    #: (param, callee qname, slot): slot is a position or keyword name
    forwards: list[tuple[str, str, int | str]] = field(default_factory=list)


def unchecked_answers(sources: Mapping[str, str]) -> list[str]:
    graph = CallGraph.of(sources)
    unchecked = _fixpoint(graph, {q: _summarise(graph, fn) for q, fn in graph.functions.items()})
    found = []
    for info in sorted(graph.modules.values(), key=lambda m: m.path):
        if under(info.path, EXEMPT_PATHS) or not any(in_package(info.name, p) for p in CALLERS):
            continue
        found += _scan(graph, info, info.tree, None, unchecked)
        for qname in info.functions:
            fn = graph.functions[qname]
            found += _scan(graph, info, fn.node, fn.cls, unchecked)
    return found


def _scan(
    graph: CallGraph, info: ModuleInfo, scope: ast.AST, cls: str | None,
    unchecked: set[tuple[str, str]],
) -> list[str]:
    #: answer name -> the statement that bound it
    bound: dict[str, ast.stmt] = {}
    checked: set[str] = set()
    consumed: set[str] = set()
    escaped: set[str] = set()
    handoffs: list[tuple[str, str, str, ast.Call]] = []
    for node in body_walk(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_query_call(node.value)
        ):
            bound[node.targets[0].id] = node
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) and _is_query_call(
            node.iter
        ):
            bound[node.target.id] = node
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            (checked if node.attr in STATUS_ATTRS else consumed).add(node.value.id)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            escaped.update(_names_in(node.value))
        elif isinstance(node, ast.Call):
            args = [*node.args, *(kw.value for kw in node.keywords)]
            escaped.update(a.id for a in args if isinstance(a, ast.Name))
            fn = graph.functions.get(_resolve_call(graph, info, node, cls) or "")
            if fn is None:
                continue
            for slot, arg in _arg_slots(node):
                param = _slot_to_param(fn, slot)
                if isinstance(arg, ast.Name) and (fn.qname, param) in unchecked:
                    handoffs.append((arg.id, fn.qname, str(param), node))

    found = []
    if under(info.path, LOCAL_DROP_SCOPE):
        found += [
            f"{info.path}:{binding.lineno}: answer {name!r} is read without "
            "checking .status/.ok/.degraded"
            for name, binding in bound.items()
            if name in consumed and name not in checked and name not in escaped
        ]
    found += [
        f"{info.path}:{call.lineno}: answer {name!r} is passed to {callee} (parameter "
        f"{param!r}), which reads it without checking .status/.ok/.degraded"
        for name, callee, param, call in handoffs
        if name in bound and name not in checked
    ]
    return found


def _summarise(graph: CallGraph, fn: FunctionInfo) -> _Summary:
    s = _Summary()
    params = set(fn.params)
    info = graph.modules[fn.module]
    for node in body_walk(fn.node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in params:
                (s.checked if node.attr in STATUS_ATTRS else s.consumed).add(node.value.id)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            s.escaped.update(n for n in _names_in(node.value) if n in params)
        elif isinstance(node, ast.Assign):
            # storing the parameter (self.x = ans) defers the obligation
            if not isinstance(node.value, ast.Attribute):
                s.escaped.update(n for n in _names_in(node.value) if n in params)
        elif isinstance(node, ast.Call):
            target = graph.functions.get(_resolve_call(graph, info, node, fn.cls) or "")
            for slot, arg in _arg_slots(node):
                if not isinstance(arg, ast.Name) or arg.id not in params:
                    continue
                if target is None or _slot_to_param(target, slot) is None:
                    # handed to something we can't see: assume handled
                    s.escaped.add(arg.id)
                else:
                    s.forwards.append((arg.id, target.qname, slot))
    return s


def _fixpoint(graph: CallGraph, summaries: dict[str, _Summary]) -> set[tuple[str, str]]:
    """(qname, param) pairs that read data without ever checking status."""
    live = {
        q: s for q, s in summaries.items()
        if not under(graph.functions[q].path, EXEMPT_PATHS)
        and not graph.functions[q].module.startswith("tests")
    }
    unchecked = {
        (q, p) for q, s in live.items() for p in s.consumed - s.checked - s.escaped
    }
    for _ in range(10):  # forwarding chains are short; cap the fixpoint
        grew = False
        for q, s in live.items():
            for p, callee, slot in s.forwards:
                if p in s.checked or p in s.escaped or (q, p) in unchecked:
                    continue
                if (callee, _slot_to_param(graph.functions[callee], slot)) in unchecked:
                    unchecked.add((q, p))
                    grew = True
        if not grew:
            break
    return unchecked


def _is_query_call(node: ast.AST | None) -> bool:
    # unwrap `session.node_info(...)[0]` style subscripts
    call = node.value if isinstance(node, ast.Subscript) else node
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in QUERY_METHODS
    )


def _names_in(node: ast.AST | None) -> Iterator[str]:
    if node is not None:
        yield from (sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _resolve_call(
    graph: CallGraph, info: ModuleInfo, node: ast.Call, cls: str | None
) -> str | None:
    """A call's target as a function qname: a module-level name, an
    import, or ``self.method`` of the enclosing class."""
    func = node.func
    if isinstance(func, ast.Name):
        hit = graph.resolve_callee(f"{info.name}.{func.id}")
        if hit is not None:
            return hit
    elif isinstance(func, ast.Attribute):
        if cls is not None and dotted_name(func) == f"self.{func.attr}":
            return graph.resolve_callee(f"{cls}.{func.attr}")
    else:
        return None
    resolved = info.import_map.resolve(func)
    return graph.resolve_callee(resolved) if resolved is not None else None


def _arg_slots(node: ast.Call) -> Iterator[tuple[int | str, ast.expr]]:
    yield from enumerate(node.args)
    yield from ((kw.arg, kw.value) for kw in node.keywords if kw.arg is not None)


def _slot_to_param(fn: FunctionInfo, slot: int | str) -> str | None:
    if isinstance(slot, str):
        return slot if slot in fn.params else None
    # a method's first positional slot is the one after self/cls
    idx = slot + (1 if fn.cls is not None and fn.params[:1] in (("self",), ("cls",)) else 0)
    return fn.params[idx] if 0 <= idx < len(fn.params) else None


def test_the_committed_tree_holds(tree):
    assert unchecked_answers(tree) == []


APP = "src/repro/apps/thing.py"
REPORT = "src/repro/apps/report.py"


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({APP: """
        def plan(session, a, b):
            ans = session.flow_info(a, b)
            print(ans.available_bps)
        """}, [f"{APP}:3"], "is read without", id="status_drop_flagged"),
    pytest.param({APP: """
        def plan(session, pairs):
            for ans in session.flow_info_many(pairs):
                print(ans.available_bps)
        """}, [f"{APP}:3"], "is read without", id="for_loop_answers_flagged"),
    pytest.param({APP: """
        def plan(session, a, b):
            ans = session.flow_info(a, b)
            if ans.ok:
                print(ans.available_bps)
        """}, [], "", id="status_checked_sanctioned"),
    # returning or passing the answer moves the obligation to the caller
    pytest.param({APP: """
        def fetch(session, a, b):
            ans = session.flow_info(a, b)
            return ans

        def relay(session, a, b, sink):
            ans = session.flow_info(a, b)
            sink(ans)
        """}, [], "", id="escaping_answer_sanctioned"),
    # the callee reads a data field on a path that never consults status,
    # and the value doesn't escape
    pytest.param({REPORT: """
        def plot(ans):
            rate = ans.available_bps
            print(rate)


        def run(session):
            ans = session.flow_info("a", "b")
            return plot(ans)
        """}, [f"{REPORT}:9"], "passed to repro.apps.report.plot (parameter 'ans')",
        id="unchecked_handoff_fires"),
    pytest.param({REPORT: """
        def plot(ans):
            rate = ans.available_bps
            print(rate)


        def run(session):
            ans = session.flow_info("a", "b")
            if not ans.ok:
                return None
            return plot(ans)
        """}, [], "", id="checking_in_caller_clears_it"),
    pytest.param({REPORT: """
        def plot(ans):
            if ans.degraded:
                return None
            rate = ans.available_bps
            print(rate)


        def run(session):
            ans = session.flow_info("a", "b")
            return plot(ans)
        """}, [], "", id="checking_in_callee_clears_it"),
    pytest.param({REPORT: """
        def render(a):
            rate = a.available_bps
            print(rate)


        def plot(ans):
            render(ans)


        def run(session):
            ans = session.flow_info("a", "b")
            return plot(ans)
        """}, [f"{REPORT}:13"], "passed to repro.apps.report.plot",
        id="forwarding_chain_propagates"),
])
def test_unchecked_answers(files, sites, words):
    found = planted(unchecked_answers, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)
