"""RML105 — dead exports: public names nobody references.

A public name in ``src/repro`` that no code in src, tests,
benchmarks, or examples ever mentions is API surface with no witness:
it cannot break a test when it regresses, and every reader must assume
someone imports it.  Either a consumer (or test) should exist, or the
name should be deleted or made private.

Liveness is name-based and deliberately coarse: any ``Name`` load, any
``x.attr`` access, or any ``from m import name`` *anywhere* in the
four trees keeps a same-named export alive.  The one exception is
re-export hubs — a ``from .x import y`` inside an ``__init__.py``
under ``src/repro`` is plumbing, not use, and does not count (else
every name re-exported by a package __init__ would look alive by
construction).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

#: module-level dunders that are metadata, not exports
_METADATA = {"__all__", "__version__"}


class DeadExportRule(Rule):
    code = "RML105"
    name = "dead-exports"
    rationale = (
        "a public name unreferenced by src, tests, benchmarks, and "
        "examples is untested API surface; use it, test it, or drop it"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        used = self._used_names(project)
        for info in sorted(project.src_modules(), key=lambda m: m.path):
            for name, node in self._exports(info.tree):
                if name in used:
                    continue
                kind = (
                    "class" if isinstance(node, ast.ClassDef)
                    else "function"
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else "name"
                )
                yield violation_at(
                    self, info.path, node,
                    f"public {kind} {name!r} in {info.name} is never "
                    "referenced from src, tests, benchmarks, or examples",
                )

    def _exports(self, tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name, node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and not target.id.startswith("_")
                        and target.id not in _METADATA
                    ):
                        yield target.id, node
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and not node.target.id.startswith("_")
                    and node.target.id not in _METADATA
                ):
                    yield node.target.id, node

    def _used_names(self, project: Project) -> set[str]:
        used: set[str] = set()
        for info in project.graph.modules.values():
            is_reexport_hub = (
                info.path.endswith("__init__.py")
                and info.path.startswith("src/repro")
            )
            docstrings = _docstring_nodes(info.tree)
            for node in ast.walk(info.tree):
                if node in docstrings:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not is_reexport_hub:
                    for alias in node.names:
                        used.add(alias.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # quoted annotations ("PredictionService | None"),
                    # getattr(x, "name"), __all__ entries, registry keys:
                    # every identifier-shaped token in a short string
                    # counts as a reference — generous on purpose, a
                    # liveness analysis must not kill quoted uses
                    if len(node.value) <= 200:
                        used.update(_IDENT.findall(node.value))
        return used


def _docstring_nodes(tree: ast.Module) -> set[ast.AST]:
    """Docstring Constants — prose, not references; never count as use."""
    out: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(body[0].value)
    return out
