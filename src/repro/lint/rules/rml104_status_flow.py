"""RML104 — Answer-status discipline, within a function and across calls.

Every ``Answer`` carries a :class:`~repro.common.status.QueryStatus`;
a caller that reads ``.available_bps`` without ever looking at
``.status`` / ``.ok`` / ``.degraded`` silently treats PARTIAL or STALE
data as fresh truth — exactly the failure mode the session API was
built to make visible.  The rule sees answers bound from a session
query (``ans = session.flow_info(...)``, ``for ans in
session.flow_info_many(...)``) and, in every function and module body
that never consults the answer's status, flags two things:

* a **local drop** (in ``src/repro``) — the answer's data fields are
  read here and the answer never escapes (returned, yielded or passed
  on, which moves the obligation to whoever receives it);
* an **unchecked hand-off** — the answer is passed to a function that
  reads its data fields on a path where the status was never
  consulted.  Every function in the project is summarised (which
  parameters it checks, reads, lets escape or forwards), and a
  call-graph fixpoint carries the summary along forwarding chains.

Conservative by construction:

* a parameter that is checked anywhere in the callee, returned,
  yielded, stored, or passed into a call we cannot resolve is assumed
  handled — only a definite read-without-check summary fires;
* a caller that checks the answer itself before (or after) the call is
  never flagged — the status was consulted on some path.

The session facade and ``modeler.api`` construct the answers they
return; their internals legitimately touch data fields, so they are
neither scanned nor summarised as offenders.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.callgraph import CallGraph, FunctionInfo, ModuleInfo
from repro.lint.core import Violation, dotted_name, prefix_match
from repro.lint.project import Project, Rule, violation_at

#: methods returning one Answer (or a list of them, for the *_many/list
#: forms) — receiver-agnostic, keyed on the attribute name
QUERY_METHODS = {"flow_info", "flow_info_many", "topology", "node_info"}

STATUS_ATTRS = {"status", "ok", "degraded", "site_status", "provenance"}

#: modules whose answers are analysed (tests may ignore status)
CALLER_PREFIXES = ("repro", "examples", "benchmarks")

#: where a local drop is reported: examples and benchmarks print or
#: compare whole answers, status and all, in ways the scan cannot see
LOCAL_DROP_SCOPE = "src/repro"

#: paths whose functions are never summarised as unchecked consumers
EXEMPT_PATHS = ("src/repro/session.py", "src/repro/modeler/api.py")


@dataclass
class _Summary:
    """Per-function parameter facts feeding the fixpoint."""

    params: tuple[str, ...]
    checked: set[str] = field(default_factory=set)
    consumed: set[str] = field(default_factory=set)
    escaped: set[str] = field(default_factory=set)
    #: (param, callee qname, slot) — slot is an int position or kw name
    forwards: list[tuple[str, str, "int | str"]] = field(default_factory=list)


class StatusFlowRule(Rule):
    code = "RML104"
    name = "answer-status-flow"
    rationale = (
        "Answer consumers must inspect .status/.ok/.degraded before "
        "trusting data fields, here or in the function they pass it to; "
        "dropping it hides PARTIAL/STALE results"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        graph = project.graph
        summaries = {
            qname: _summarise(graph, fn)
            for qname, fn in graph.functions.items()
        }
        unchecked = _fixpoint(graph, summaries)
        yield from self._scan_callers(project, unchecked)

    # -- caller side ---------------------------------------------------

    def _scan_callers(
        self, project: Project, unchecked: set[tuple[str, str]]
    ) -> Iterator[Violation]:
        graph = project.graph
        for info in sorted(graph.modules.values(), key=lambda m: m.path):
            if not any(
                info.name == p or info.name.startswith(p + ".")
                for p in CALLER_PREFIXES
            ):
                continue
            if any(prefix_match(info.path, ex) for ex in EXEMPT_PATHS):
                continue
            yield from self._scan_scope(graph, info, info.tree, None, unchecked)
            for qname in info.functions:
                fn = graph.functions[qname]
                yield from self._scan_scope(graph, info, fn.node, fn.cls, unchecked)

    def _scan_scope(
        self,
        graph: CallGraph,
        info: ModuleInfo,
        scope: ast.AST,
        cls: str | None,
        unchecked: set[tuple[str, str]],
    ) -> Iterator[Violation]:
        #: answer name -> the statement that bound it
        candidates: dict[str, ast.stmt] = {}
        checked: set[str] = set()
        consumed: set[str] = set()
        escaped: set[str] = set()
        handoffs: list[tuple[str, str, str, ast.Call]] = []
        for node in _body_walk(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_query_call(node.value)
            ):
                candidates[node.targets[0].id] = node
            elif (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and _is_query_call(node.iter)
            ):
                candidates[node.target.id] = node
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.attr in STATUS_ATTRS:
                    checked.add(node.value.id)
                else:
                    consumed.add(node.value.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                escaped.update(_names_in(node.value))
            if isinstance(node, ast.Call):
                args = [*node.args, *(kw.value for kw in node.keywords)]
                escaped.update(a.id for a in args if isinstance(a, ast.Name))
                callee = _resolve_call(graph, info, node, cls)
                fn = graph.functions.get(callee) if callee is not None else None
                if fn is None:
                    continue
                for slot, arg in _arg_slots(node):
                    if not isinstance(arg, ast.Name):
                        continue
                    param = _slot_to_param(fn, slot)
                    if param is not None and (fn.qname, param) in unchecked:
                        handoffs.append((arg.id, fn.qname, param, node))

        local = prefix_match(info.path, LOCAL_DROP_SCOPE)
        for name, binding in candidates.items():
            if local and name in consumed and name not in checked and name not in escaped:
                yield violation_at(
                    self, info.path, binding,
                    f"answer {name!r} is consumed without inspecting "
                    ".status/.ok/.degraded (PARTIAL or STALE data would be "
                    "trusted silently)",
                )
        for name, callee, param, call in handoffs:
            if name not in candidates or name in checked:
                continue
            yield violation_at(
                self, info.path, call,
                f"answer {name!r} is passed to {callee} (parameter "
                f"{param!r}), which reads its data fields without ever "
                "checking .status/.ok/.degraded — PARTIAL or STALE "
                "data would be trusted silently",
            )


# -- callee summaries ------------------------------------------------------


def _summarise(graph: CallGraph, fn: FunctionInfo) -> _Summary:
    s = _Summary(params=fn.params)
    params = set(fn.params)
    for node in _body_walk(fn.node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.value.id
            if name in params:
                if node.attr in STATUS_ATTRS:
                    s.checked.add(name)
                else:
                    s.consumed.add(name)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            for name in _names_in(node.value):
                if name in params:
                    s.escaped.add(name)
        elif isinstance(node, ast.Assign):
            # storing the parameter (self.x = ans) defers the obligation
            for name in _names_in(node.value):
                if name in params and not isinstance(node.value, ast.Attribute):
                    s.escaped.add(name)
        elif isinstance(node, ast.Call):
            info = graph.modules.get(fn.module)
            callee = _resolve_call(graph, info, node, fn.cls) if info else None
            for slot, arg in _arg_slots(node):
                if not isinstance(arg, ast.Name) or arg.id not in params:
                    continue
                if callee is None or callee not in graph.functions:
                    # handed to something we can't see: assume handled
                    s.escaped.add(arg.id)
                    continue
                target = graph.functions[callee]
                param = _slot_to_param(target, slot)
                if param is None:
                    s.escaped.add(arg.id)
                else:
                    s.forwards.append((arg.id, callee, slot))
    return s


def _fixpoint(
    graph: CallGraph, summaries: dict[str, _Summary]
) -> set[tuple[str, str]]:
    """(qname, param) pairs that read data without ever checking status."""
    exempt = {
        qname for qname, fn in graph.functions.items()
        if any(prefix_match(fn.path, ex) for ex in EXEMPT_PATHS)
        or fn.module.startswith("tests")
    }
    unchecked: set[tuple[str, str]] = set()
    for qname, s in summaries.items():
        if qname in exempt:
            continue
        for p in s.consumed:
            if p not in s.checked and p not in s.escaped:
                unchecked.add((qname, p))
    for _ in range(10):  # forwarding chains are short; cap the fixpoint
        grew = False
        for qname, s in summaries.items():
            if qname in exempt:
                continue
            for p, callee, slot in s.forwards:
                if p in s.checked or p in s.escaped or (qname, p) in unchecked:
                    continue
                target = graph.functions.get(callee)
                if target is None:
                    continue
                param = _slot_to_param(target, slot)
                if param is not None and (callee, param) in unchecked:
                    unchecked.add((qname, p))
                    grew = True
        if not grew:
            break
    return unchecked


# -- small shared helpers --------------------------------------------------


def _body_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_query_call(node: ast.AST | None) -> bool:
    call = node
    # unwrap `session.node_info(...)[0]` style subscripts
    if isinstance(call, ast.Subscript):
        call = call.value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in QUERY_METHODS
    )


def _names_in(node: ast.AST | None) -> Iterator[str]:
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _resolve_call(
    graph: CallGraph, info, node: ast.Call, cls: str | None
) -> str | None:
    """Resolve a call target to a function qname (module-level view)."""
    func = node.func
    if isinstance(func, ast.Name):
        hit = graph.resolve_callee(f"{info.name}.{func.id}")
        if hit is not None:
            return hit
        resolved = info.import_map.resolve(func)
        if resolved is not None:
            return graph.resolve_callee(resolved)
        return None
    if isinstance(func, ast.Attribute):
        dn = dotted_name(func)
        if dn is not None and cls is not None and dn == f"self.{func.attr}":
            return graph.resolve_callee(f"{cls}.{func.attr}")
        resolved = info.import_map.resolve(func)
        if resolved is not None:
            return graph.resolve_callee(resolved)
    return None


def _arg_slots(node: ast.Call) -> Iterator[tuple["int | str", ast.expr]]:
    for i, arg in enumerate(node.args):
        yield i, arg
    for kw in node.keywords:
        if kw.arg is not None:
            yield kw.arg, kw.value


def _method_offset(fn: FunctionInfo) -> int:
    return 1 if fn.cls is not None and fn.params[:1] in (("self",), ("cls",)) else 0


def _slot_to_param(fn: FunctionInfo, slot: "int | str") -> str | None:
    if isinstance(slot, str):
        return slot if slot in fn.params else None
    idx = slot + _method_offset(fn)
    if 0 <= idx < len(fn.params):
        return fn.params[idx]
    return None
