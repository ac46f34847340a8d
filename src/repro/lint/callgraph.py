"""Module graph and approximate call graph over the repro package.

Most rules need to know *how modules relate*: who imports whom (and
whether the import hides inside ``TYPE_CHECKING`` or a function body),
and which function can reach which call.  This module builds both
structures by static name resolution over the package namespace — no
imports are executed.

The call graph is deliberately approximate.  It resolves:

* plain calls to functions defined in an enclosing scope or at module
  top level (``helper()``);
* imported names, through the same alias-aware :class:`ImportMap` the
  file rules use (``from x import y as z; z()``);
* module-attribute calls (``import repro.snmp.client as sc;
  sc.walk(...)``);
* ``self.method(...)`` against methods of the lexically enclosing
  class;
* class instantiation (an edge to ``Class.__init__`` when one exists);
* callables passed as arguments (``call_with_retry(run)`` reaches
  ``run``), because retry/dispatch wrappers are how the service plane
  invokes everything.

Everything else degrades gracefully: a dotted call that leaves the
project records its canonical external path (``time.sleep``), and a
call on an arbitrary expression records just the trailing attribute
name, so reachability rules can still apply name heuristics
(``engine.run_until``) without pretending to resolve receivers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.lint.core import ImportMap, dotted_name

#: builtin callables worth recording as external sinks when called by
#: bare name (no import resolves them)
_BUILTIN_SINKS = {"open", "input", "exec", "eval", "compile", "__import__"}


def module_name_for(rel_path: str) -> str | None:
    """Dotted module name for a repo-relative posix path, or None.

    ``src/repro/snmp/client.py`` -> ``repro.snmp.client``;
    ``tests/lint/test_cli.py`` -> ``tests.lint.test_cli`` (tests are
    not an importable package, but the graph still needs stable ids).
    """
    p = PurePosixPath(rel_path)
    if p.suffix != ".py":
        return None
    parts = list(p.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


@dataclass(frozen=True)
class ImportRecord:
    """One module-level dependency edge."""

    module: str  #: importing module (dotted)
    target: str  #: imported module (dotted, absolute)
    lineno: int
    col_offset: int
    #: "top" | "lazy" (inside a function) | "type_checking"
    kind: str


@dataclass(frozen=True)
class CallEdge:
    """One call site, as well as we could resolve it."""

    caller: str  #: qname of the calling function, or the module body id
    lineno: int
    col_offset: int
    #: resolved project function/class qname, when resolution succeeded
    callee: str | None = None
    #: canonical dotted path outside the project ("time.sleep")
    external: str | None = None
    #: trailing attribute name when the receiver is opaque ("run_until")
    attr: str | None = None
    #: True when the callee was passed as an argument, not called
    via_argument: bool = False


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str  #: "repro.service.app.RemosService._call_backend"
    module: str
    path: str  #: repo-relative posix path of the defining file
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    #: qname of the lexically enclosing class, when this is a method
    cls: str | None = None
    #: parameter names in call order (including self/cls)
    params: tuple[str, ...] = ()
    #: whether the name is public API (no leading underscore anywhere
    #: from the module-level symbol down)
    public: bool = True


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  #: dotted module name
    path: str  #: repo-relative posix path
    tree: ast.Module
    imports: list[ImportRecord] = field(default_factory=list)
    import_map: ImportMap = field(default_factory=ImportMap)
    #: qnames of functions defined in this module
    functions: list[str] = field(default_factory=list)


class CallGraph:
    """Functions, call edges, and module imports for a set of files."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: caller qname -> its call edges (module bodies under module_body_id)
        self.edges: dict[str, list[CallEdge]] = {}

    # -- construction --------------------------------------------------

    def add_module(self, rel_path: str, tree: ast.Module) -> ModuleInfo:
        name = module_name_for(rel_path)
        assert name is not None
        info = ModuleInfo(
            name=name, path=rel_path, tree=tree, import_map=ImportMap.of(tree),
        )
        self.modules[name] = info
        _collect_imports(info)
        _collect_functions(self, info)
        return info

    def finish(self) -> None:
        """Resolve call edges once every module is registered."""
        for info in self.modules.values():
            _collect_edges(self, info)

    # -- queries --------------------------------------------------------

    def edges_from(self, qname: str) -> list[CallEdge]:
        return self.edges.get(qname, [])

    def module_body_id(self, module: str) -> str:
        """Pseudo-function id for a module's top-level statements."""
        return f"{module}.<module>"

    def resolve_callee(self, hint: str) -> str | None:
        """Map a dotted hint to a known function qname, if any.

        Tries the hint itself, then ``hint.__init__`` (instantiation of
        a known class).
        """
        if hint in self.functions:
            return hint
        init = f"{hint}.__init__"
        if init in self.functions:
            return init
        return None

    def is_project_path(self, dotted: str) -> bool:
        """Whether a dotted path points into a registered module."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            if ".".join(parts[:i]) in self.modules:
                return True
        return False


# -- pass 1: imports ------------------------------------------------------


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _collect_imports(info: ModuleInfo) -> None:
    pkg = info.name if info.path.endswith("__init__.py") else info.name.rpartition(".")[0]

    def resolve_from(node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        base_parts = pkg.split(".") if pkg else []
        drop = node.level - 1
        if drop > len(base_parts):
            return None
        base = base_parts[: len(base_parts) - drop]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) or None

    def visit(nodes: list[ast.stmt], kind: str) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports.append(ImportRecord(
                        info.name, alias.name, node.lineno, node.col_offset, kind,
                    ))
            elif isinstance(node, ast.ImportFrom):
                base = resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    # `from repro import obs` names the module repro.obs,
                    # not the package: prefer the submodule as the target
                    # (a rule may still collapse it back to the package).
                    info.imports.append(ImportRecord(
                        info.name, f"{base}.{alias.name}",
                        node.lineno, node.col_offset, kind,
                    ))
            elif isinstance(node, ast.If):
                sub_kind = "type_checking" if _is_type_checking_test(node.test) else kind
                visit(node.body, sub_kind)
                visit(node.orelse, kind)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, "lazy")
            elif isinstance(node, (ast.ClassDef, ast.With, ast.Try, ast.For, ast.While)):
                for block in (getattr(node, "body", []), getattr(node, "orelse", []),
                              getattr(node, "finalbody", [])):
                    visit(list(block), kind)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, kind)

    visit(info.tree.body, "top")


# -- pass 2: function table ------------------------------------------------


@dataclass
class _Scope:
    """Lexical scope for name resolution: defs declared directly here."""

    defs: dict[str, str] = field(default_factory=dict)  #: name -> qname
    parent: "_Scope | None" = None

    def lookup(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.defs:
                return scope.defs[name]
            scope = scope.parent
        return None


def _collect_functions(graph: CallGraph, info: ModuleInfo) -> None:
    """Register every (possibly nested) function with its scope chain."""

    module_scope = _Scope()
    info_scopes: dict[str, _Scope] = {}
    info._scopes = info_scopes  # type: ignore[attr-defined]
    info._module_scope = module_scope  # type: ignore[attr-defined]

    def walk(nodes: list[ast.stmt], prefix: str, scope: _Scope,
             cls: str | None, public: bool) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                scope.defs[node.name] = qname
                fn_public = public and not (
                    node.name.startswith("_") and not node.name.startswith("__")
                )
                args = node.args
                params = tuple(
                    a.arg for a in
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                )
                graph.functions[qname] = FunctionInfo(
                    qname=qname, module=info.name, path=info.path, node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    cls=cls, params=params, public=fn_public,
                )
                info.functions.append(qname)
                inner = _Scope(parent=scope)
                info_scopes[qname] = inner
                walk(node.body, qname, inner, None, fn_public)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                scope.defs[node.name] = qname
                cls_public = public and not node.name.startswith("_")
                # class bodies don't contribute names to method scopes:
                # methods resolve against the scope *containing* the class
                walk(node.body, qname, scope, qname, cls_public)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for block in (getattr(node, "body", []), getattr(node, "orelse", []),
                              getattr(node, "finalbody", [])):
                    walk(list(block), prefix, scope, cls, public)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, prefix, scope, cls, public)

    walk(info.tree.body, info.name, module_scope, None, True)


# -- pass 3: call edges ----------------------------------------------------


def _iter_scope_body(node: ast.AST) -> "list[ast.AST]":
    """Child statements of a scope, not descending into nested defs."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(sub)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _collect_edges(graph: CallGraph, info: ModuleInfo) -> None:
    scopes: dict[str, _Scope] = info._scopes  # type: ignore[attr-defined]
    module_scope: _Scope = info._module_scope  # type: ignore[attr-defined]

    def resolve_target(
        node: ast.expr, scope: _Scope, cls: str | None
    ) -> tuple[str | None, str | None, str | None]:
        """(callee_qname, external, attr) for a call target expression."""
        if isinstance(node, ast.Name):
            local = scope.lookup(node.id)
            if local is not None:
                return graph.resolve_callee(local) or local, None, None
            resolved = info.import_map.resolve(node)
            if resolved is not None:
                if graph.is_project_path(resolved):
                    return graph.resolve_callee(resolved) or resolved, None, None
                return None, resolved, None
            if node.id in _BUILTIN_SINKS:
                return None, node.id, None
            return None, None, None
        if isinstance(node, ast.Attribute):
            dn = dotted_name(node)
            if dn is not None and dn.startswith("self.") and cls is not None:
                rest = dn[len("self."):]
                if "." not in rest:
                    hit = graph.resolve_callee(f"{cls}.{rest}")
                    if hit is not None:
                        return hit, None, None
                return None, None, node.attr
            resolved = info.import_map.resolve(node)
            if resolved is not None:
                if graph.is_project_path(resolved):
                    return graph.resolve_callee(resolved) or resolved, None, None
                return None, resolved, None
            return None, None, node.attr
        return None, None, None

    def edges_for(caller: str, body_owner: ast.AST, scope: _Scope,
                  cls: str | None) -> None:
        out = graph.edges.setdefault(caller, [])
        for node in _iter_scope_body(body_owner):
            if not isinstance(node, ast.Call):
                continue
            callee, external, attr = resolve_target(node.func, scope, cls)
            if callee or external or attr:
                out.append(CallEdge(
                    caller, node.lineno, node.col_offset,
                    callee=callee, external=external, attr=attr,
                ))
            # callables handed onward: call_with_retry(run), every(cb)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    a_callee, _, _ = resolve_target(arg, scope, cls)
                    if a_callee is not None and a_callee in graph.functions:
                        out.append(CallEdge(
                            caller, arg.lineno, arg.col_offset,
                            callee=a_callee, via_argument=True,
                        ))

    for qname in info.functions:
        fn = graph.functions[qname]
        edges_for(qname, fn.node, scopes[qname], fn.cls)
    edges_for(graph.module_body_id(info.name), info.tree, module_scope, None)
