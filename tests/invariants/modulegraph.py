"""One parse of a source tree: its modules and who imports whom.

Every invariant in this directory is a function over a ``{path:
source}`` mapping; :meth:`ModuleGraph.of` parses the mapping once per
distinct mapping, so the whole tree is parsed once per run however many
invariants read it.  Nothing is imported or executed.

Each module keeps its syntax tree, the imports it makes (and whether an
import hides inside ``TYPE_CHECKING`` or a function body), and the
local names those imports bind, so a check can resolve ``t.sleep`` to
``time.sleep`` after ``import time as t``.  Calls are not resolved:
a rule that needs more than imports scans the syntax tree itself.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import PurePosixPath


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
    """Which local names refer to which modules / module attributes
    (filled by the import pass, :func:`_collect_imports`)."""

    #: local alias -> module path ("t" -> "time" for ``import time as t``)
    modules: dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" ("sleep" -> "time.sleep")
    members: dict[str, str] = field(default_factory=dict)

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


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  #: dotted module name
    path: str  #: repo-relative posix path
    tree: ast.Module
    imports: list[ImportRecord] = field(default_factory=list)
    import_map: ImportMap = field(default_factory=ImportMap)


class ModuleGraph:
    """The parsed modules of a set of files, with their imports."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}

    @staticmethod
    def of(sources: Mapping[str, str]) -> "ModuleGraph":
        """The graph of ``{repo-relative path: source}``, built once per
        distinct mapping."""
        return _build(tuple(sorted(sources.items())))

    @staticmethod
    def forget() -> None:
        """Drop every graph :meth:`of` built: the whole tree's holds
        millions of AST nodes that every later garbage collection of the
        run would walk."""
        _build.cache_clear()

    def module_of(self, dotted: str) -> str | None:
        """The registered module a dotted path points into, longest first."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            cand = ".".join(parts[:i])
            if cand in self.modules:
                return cand
        return None


@functools.cache
def _build(items: tuple[tuple[str, str], ...]) -> ModuleGraph:
    graph = ModuleGraph()
    for rel, source in items:
        name = module_name_for(rel)
        if name is None:
            continue
        info = ModuleInfo(name=name, path=rel, tree=ast.parse(source, filename=rel))
        _collect_imports(info)
        graph.modules[name] = info
    return graph


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

    def visit(node: ast.AST, kind: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports.append(ImportRecord(alias.name, node.lineno, kind))
                info.import_map.modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = resolve_from(node)
            # `from repro import obs` names the module repro.obs, not
            # the package: record the submodule as the target
            for alias in node.names if base is not None else ():
                info.imports.append(ImportRecord(f"{base}.{alias.name}", node.lineno, kind))
                if node.level == 0:
                    info.import_map.members[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for sub in node.body:
                visit(sub, "type_checking")
            for sub in node.orelse:
                visit(sub, kind)
        else:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "lazy"
            # an import is a statement: every block it can sit in
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, (ast.stmt, ast.excepthandler, ast.match_case)):
                    visit(sub, kind)

    visit(info.tree, "top")


def planted(
    check: Callable[[Mapping[str, str]], list[str]], files: Mapping[str, str]
) -> list[tuple[str, str]]:
    """``(path:line, reason)`` of each breach ``check`` finds in a planted
    tree (sources dedented), in path and line order."""
    found = check({path: textwrap.dedent(src) for path, src in files.items()})
    pairs = [tuple(f.split(": ", 1)) for f in found]
    return sorted(pairs, key=lambda p: (p[0].rpartition(":")[0], int(p[0].rpartition(":")[2])))
