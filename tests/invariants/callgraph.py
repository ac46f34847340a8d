"""One parse of a source tree: a module graph and an approximate call graph.

Every invariant in this directory is a function over a ``{path:
source}`` mapping; :meth:`CallGraph.of` turns the mapping into the
structures they read, once per distinct mapping, so the whole tree is
parsed once per run however many invariants read it.  Nothing is
imported or executed.

The graph records who imports whom (and whether the import hides
inside ``TYPE_CHECKING`` or a function body), and resolves calls by
static name lookup:

* plain calls to functions defined in an enclosing scope or at module
  top level (``helper()``);
* imported names, through import aliases (``from x import y as z;
  z()``), and module-attribute calls (``import repro.snmp.client as
  sc; sc.walk(...)``);
* ``self.method(...)`` against methods of the lexically enclosing
  class;
* class instantiation (an edge to ``Class.__init__`` when one exists);
* callables passed as arguments (``every(cb)`` reaches ``cb``),
  because scheduling and dispatch wrappers are how callbacks are
  invoked.

Everything else degrades gracefully: a dotted call that leaves the
project records its canonical external path (``time.sleep``), and a
call on an arbitrary expression records just the trailing attribute
name (``engine.run_until``), without pretending to resolve receivers.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: builtins recorded as external sinks when called by bare name (no
#: import resolves them): the one an invariant reads
_BUILTIN_SINKS = {"open"}


def under(path: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``path`` is one of ``prefixes`` or lives under one."""
    return any(path == p or path.startswith(p + "/") for p in prefixes)


def in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(rel_path: str) -> str | None:
    """Dotted module name for a repo-relative posix path, or None.

    ``src/repro/snmp/client.py`` -> ``repro.snmp.client``;
    ``tests/obs/test_x.py`` -> ``tests.obs.test_x`` (tests are not an
    importable package, but the graph still needs stable ids).
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


@dataclass
class ImportMap:
    """Which local names refer to which modules / module attributes."""

    #: local alias -> module path ("t" -> "time" for ``import time as t``)
    modules: dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" ("sleep" -> "time.sleep")
    members: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportMap":
        out = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.modules[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    out.members[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return out

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path for a Name/Attribute, through aliases.

        ``t.sleep`` -> "time.sleep" (after ``import time as t``);
        ``sleep`` -> "time.sleep" (after ``from time import sleep``).
        Only names reached through an actual import resolve — a local
        variable that happens to be called ``random`` yields None.
        """
        dn = dotted_name(node)
        if dn is None:
            return None
        head, _, rest = dn.partition(".")
        base = self.members.get(head) or self.modules.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base


@dataclass(frozen=True)
class ImportRecord:
    """One module-level dependency edge."""

    target: str  #: imported module or member (dotted, absolute)
    lineno: int
    #: "top" | "lazy" (inside a function) | "type_checking"
    kind: str


@dataclass(frozen=True)
class CallEdge:
    """One call site, as well as we could resolve it."""

    lineno: int
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

    @staticmethod
    def of(sources: Mapping[str, str]) -> "CallGraph":
        """The graph of ``{repo-relative path: source}``, built once per
        distinct mapping."""
        return _build(tuple(sorted(sources.items())))

    @staticmethod
    def forget() -> None:
        """Drop every graph :meth:`of` built: the whole tree's holds
        millions of AST nodes that every later garbage collection of the
        run would walk."""
        _build.cache_clear()

    def edges_from(self, qname: str) -> list[CallEdge]:
        return self.edges.get(qname, [])

    @staticmethod
    def module_body_id(module: str) -> str:
        """Pseudo-function id for a module's top-level statements."""
        return f"{module}.<module>"

    def resolve_callee(self, hint: str) -> str | None:
        """Map a dotted hint to a known function qname: the hint itself,
        or ``hint.__init__`` (instantiation of a known class)."""
        if hint in self.functions:
            return hint
        init = f"{hint}.__init__"
        return init if init in self.functions else None

    def module_of(self, dotted: str) -> str | None:
        """The registered module a dotted path points into, longest first."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            cand = ".".join(parts[:i])
            if cand in self.modules:
                return cand
        return None


@functools.cache
def _build(items: tuple[tuple[str, str], ...]) -> CallGraph:
    graph = CallGraph()
    scopes: dict[str, tuple[_Scope, dict[str, _Scope]]] = {}
    for rel, source in items:
        name = module_name_for(rel)
        if name is None:
            continue
        tree = ast.parse(source, filename=rel)
        info = ModuleInfo(name=name, path=rel, tree=tree, import_map=ImportMap.of(tree))
        graph.modules[name] = info
        _collect_imports(info)
        scopes[name] = _collect_functions(graph, info)
    for name, (module_scope, fn_scopes) in scopes.items():
        _collect_edges(graph, graph.modules[name], module_scope, fn_scopes)
    return graph


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
                    info.imports.append(ImportRecord(alias.name, node.lineno, kind))
            elif isinstance(node, ast.ImportFrom):
                base = resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    # `from repro import obs` names the module repro.obs,
                    # not the package: record the submodule as the target
                    info.imports.append(
                        ImportRecord(f"{base}.{alias.name}", node.lineno, kind)
                    )
            elif isinstance(node, ast.If):
                sub_kind = "type_checking" if _is_type_checking_test(node.test) else kind
                visit(node.body, sub_kind)
                visit(node.orelse, kind)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, "lazy")
            elif isinstance(node, (ast.ClassDef, ast.With, ast.Try, ast.For, ast.While)):
                for block in _blocks(node):
                    visit(block, kind)

    visit(info.tree.body, "top")


def _blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists directly under a compound statement."""
    out = [list(getattr(node, attr, [])) for attr in ("body", "orelse", "finalbody")]
    return out + [handler.body for handler in getattr(node, "handlers", [])]


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


def _collect_functions(
    graph: CallGraph, info: ModuleInfo
) -> tuple[_Scope, dict[str, _Scope]]:
    """Register every (possibly nested) function; returns the module
    scope and each function's own scope, for pass 3."""
    module_scope = _Scope()
    fn_scopes: dict[str, _Scope] = {}

    def walk(nodes: list[ast.stmt], prefix: str, scope: _Scope, cls: str | None) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                scope.defs[node.name] = qname
                args = node.args
                graph.functions[qname] = FunctionInfo(
                    qname=qname, module=info.name, path=info.path, node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef), cls=cls,
                    params=tuple(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs),
                )
                info.functions.append(qname)
                fn_scopes[qname] = inner = _Scope(parent=scope)
                walk(node.body, qname, inner, None)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                scope.defs[node.name] = qname
                # class bodies don't contribute names to method scopes:
                # methods resolve against the scope *containing* the class
                walk(node.body, qname, scope, qname)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for block in _blocks(node):
                    walk(block, prefix, scope, cls)

    walk(info.tree.body, info.name, module_scope, None)
    return module_scope, fn_scopes


# -- pass 3: call edges ----------------------------------------------------


def body_walk(scope: ast.AST) -> list[ast.AST]:
    """Every node of a scope, not descending into nested functions."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(sub)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _collect_edges(
    graph: CallGraph, info: ModuleInfo, module_scope: _Scope, fn_scopes: dict[str, _Scope]
) -> None:
    def resolve_target(
        node: ast.expr, scope: _Scope, cls: str | None
    ) -> tuple[str | None, str | None, str | None]:
        """(callee_qname, external, attr) for a call target expression."""
        if isinstance(node, ast.Name):
            local = scope.lookup(node.id)
            if local is not None:
                return graph.resolve_callee(local) or local, None, None
        elif isinstance(node, ast.Attribute):
            dn = dotted_name(node)
            if dn is not None and dn.startswith("self.") and cls is not None:
                rest = dn[len("self."):]
                hit = None if "." in rest else graph.resolve_callee(f"{cls}.{rest}")
                return hit, None, None if hit else node.attr
        else:
            return None, None, None
        resolved = info.import_map.resolve(node)
        if resolved is not None:
            if graph.module_of(resolved) is not None:
                return graph.resolve_callee(resolved) or resolved, None, None
            return None, resolved, None
        if isinstance(node, ast.Attribute):
            return None, None, node.attr
        return None, node.id if node.id in _BUILTIN_SINKS else None, None

    def edges_for(caller: str, body_owner: ast.AST, scope: _Scope, cls: str | None) -> None:
        out = graph.edges.setdefault(caller, [])
        for node in body_walk(body_owner):
            if not isinstance(node, ast.Call):
                continue
            callee, external, attr = resolve_target(node.func, scope, cls)
            if callee or external or attr:
                out.append(CallEdge(node.lineno, callee=callee, external=external, attr=attr))
            # callables handed onward: every(cb), partial(fn)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    a_callee, _, _ = resolve_target(arg, scope, cls)
                    if a_callee is not None and a_callee in graph.functions:
                        out.append(CallEdge(arg.lineno, callee=a_callee, via_argument=True))

    for qname in info.functions:
        fn = graph.functions[qname]
        edges_for(qname, fn.node, fn_scopes[qname], fn.cls)
    edges_for(graph.module_body_id(info.name), info.tree, module_scope, None)


def planted(
    check: Callable[[Mapping[str, str]], list[str]], files: Mapping[str, str]
) -> list[tuple[str, str]]:
    """``(path:line, reason)`` of each breach ``check`` finds in a planted
    tree (sources dedented), in path and line order."""
    found = check({path: textwrap.dedent(src) for path, src in files.items()})
    pairs = [tuple(f.split(": ", 1)) for f in found]
    return sorted(pairs, key=lambda p: (p[0].rpartition(":")[0], int(p[0].rpartition(":")[2])))
