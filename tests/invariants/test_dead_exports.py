"""No dead export: every public name in ``src/repro`` has a witness.

A public module-level name that nothing in src, tests, benchmarks or
examples mentions is API surface no test breaks when it regresses, and
every reader must assume someone imports it.  Either a consumer (or a
test) exists, or the name is deleted or made private.

Liveness is name-based and deliberately coarse: a ``Name`` load, an
``x.attr`` access, a ``from m import name``, or a name in a string that
parses as a Python expression (a quoted annotation, ``getattr(x,
"name")``, an ``__all__`` entry) anywhere keeps a same-named export
alive.  A string that is not an expression is text, not a reference:
planted source such as ``"from m import name"`` keeps nothing alive.
Docstrings are prose and count for nothing, and so does a ``from .x
import y`` inside an ``__init__.py`` under ``src/repro``: re-exporting
is plumbing, not use.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping

import pytest

from .modulegraph import ModuleGraph, in_package, planted

#: module-level dunders that are metadata, not exports
_METADATA = {"__all__", "__version__"}


def dead_exports(sources: Mapping[str, str]) -> list[str]:
    graph = ModuleGraph.of(sources)
    used = _used_names(graph)
    return [
        f"{info.path}:{node.lineno}: public {name!r} in {info.name} is never referenced"
        for info in sorted(graph.modules.values(), key=lambda m: m.path)
        if in_package(info.name, "repro")
        for name, node in _exports(info.tree)
        if name not in used
    ]


def _exports(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (
            (name, node) for name in names
            if not name.startswith("_") and name not in _METADATA
        )


def _used_names(graph: ModuleGraph) -> set[str]:
    used: set[str] = set()
    for info in graph.modules.values():
        reexport_hub = info.path.endswith("__init__.py") and info.path.startswith("src/repro")
        docstrings = {
            id(owner.body[0].value)
            for owner in ast.walk(info.tree)
            if isinstance(owner, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and owner.body
            and isinstance(owner.body[0], ast.Expr)
            and isinstance(owner.body[0].value, ast.Constant)
            and isinstance(owner.body[0].value.value, str)
        }
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not reexport_hub:
                used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                used.update(_names_in_expression(node.value))
    return used


def _names_in_expression(text: str) -> frozenset[str]:
    """The names and attributes of ``text`` read as an expression, or
    none when it is not one."""
    try:
        expr = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError):  # ValueError: a NUL byte
        return frozenset()
    return frozenset(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(expr)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_the_committed_tree_holds(tree):
    assert dead_exports(tree) == []


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({
        "src/repro/util.py": """
            def orphan():
                return 1


            def used():
                return 2
            """,
        "tests/test_util.py": """
            from repro.util import used


            def test_used():
                assert used() == 2
            """,
    }, ["src/repro/util.py:2"], "'orphan'", id="unreferenced_public_function_fires"),
    pytest.param({
        "src/repro/util.py": """
            class Widget:
                pass


            def make(w: "Widget | None") -> int:
                return 0
            """,
        "tests/test_util.py": """
            from repro.util import make


            def test_make():
                assert make(None) == 0
            """,
    }, [], "", id="quoted_annotation_keeps_export_alive"),
    pytest.param({
        "src/repro/util.py": "def stamp():\n    return 0\n",
        "tests/test_planted.py": '''
            PLANTED = "from repro.util import stamp\\n\\nstamp()\\n"
            ''',
    }, ["src/repro/util.py:1"], "'stamp'", id="planted_source_text_keeps_nothing_alive"),
    pytest.param({
        "src/repro/pkg/__init__.py": "from repro.pkg.mod import orphan\n",
        "src/repro/pkg/mod.py": "def orphan():\n    return 1\n",
    }, ["src/repro/pkg/mod.py:1"], "'orphan'", id="init_reexport_does_not_count_as_use"),
])
def test_dead_exports(files, sites, words):
    found = planted(dead_exports, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)
