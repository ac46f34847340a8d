"""The one lint run: parse the project once, run every rule, apply pragmas.

``repro lint`` parses ``src`` plus the consumer trees (``tests``,
``benchmarks``, ``examples``) into a :class:`~repro.lint.callgraph.
CallGraph` and hands the whole :class:`Project` to each :class:`Rule`.
A rule that looks at one file at a time picks its files by path
(:meth:`Project.files`); a whole-program rule walks the graph.  Either
way its violations pass through :func:`lint`, the one place inline
pragmas are applied.

Suppression is an inline pragma — ``# remoslint: disable=RML002[,…]``
on the reported line (or on a decorator line of a reported ``def``),
or ``# remoslint: disable-file=RML002`` anywhere in the file.  There
is no baseline: a finding is fixed or carries a pragma.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.lint.callgraph import CallGraph, FunctionInfo, ModuleInfo
from repro.lint.core import Violation, prefix_match

#: the trees a run parses: the shipped package plus every consumer whose
#: references keep an export alive and whose call sites the graph sees
SOURCE_TREES = ("src", "tests", "benchmarks", "examples")

_PRAGMA = re.compile(r"#\s*remoslint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9, ]+)")


class Project:
    """Every parsed file and the call graph over them."""

    def __init__(self) -> None:
        self.graph = CallGraph()
        #: repo-relative path -> source text
        self.sources: dict[str, str] = {}
        #: repo-relative path -> parse error
        self.errors: dict[str, str] = {}

    @classmethod
    def build(cls, root: Path) -> "Project":
        """Parse every ``.py`` file of :data:`SOURCE_TREES` under ``root``."""
        project = cls()
        for tree in SOURCE_TREES:
            for file in sorted((root / tree).rglob("*.py")):
                project.add(file.relative_to(root).as_posix(), file.read_text())
        project.graph.finish()
        return project

    def add(self, rel: str, source: str) -> None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            self.errors[rel] = f"syntax error: {exc}"
            return
        self.sources[rel] = source
        self.graph.add_module(rel, tree)

    # -- views used by several rules -----------------------------------

    def files(
        self, scope: tuple[str, ...], exempt: tuple[str, ...] = ()
    ) -> Iterator[ModuleInfo]:
        """Parsed files under a ``scope`` prefix and no ``exempt`` one."""
        for info in self.graph.modules.values():
            if any(prefix_match(info.path, p) for p in scope) and not any(
                prefix_match(info.path, p) for p in exempt
            ):
                yield info

    def src_modules(self) -> Iterator[ModuleInfo]:
        """Modules of the shipped package (dotted name under ``repro``)."""
        for info in self.graph.modules.values():
            if info.name == "repro" or info.name.startswith("repro."):
                yield info

    def functions_under(self, module_prefix: str) -> Iterator[FunctionInfo]:
        for fn in self.graph.functions.values():
            if fn.module == module_prefix or fn.module.startswith(module_prefix + "."):
                yield fn


class Rule:
    """Base class every remoslint rule extends.

    Class attributes are the plugin contract: ``code`` (the stable
    ``RMLxxx`` a pragma names), ``name`` (kebab-case label) and
    ``rationale`` (one line, shown by ``--list-rules``).  ``check`` sees
    the whole :class:`Project` and yields violations whose ``path`` is
    the repo-relative file they point at.
    """

    code: str = "RML000"
    name: str = "abstract-rule"
    rationale: str = ""

    def check(self, project: Project) -> Iterator[Violation]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.code}>"


def violation_at(rule: Rule, path: str, node: object, message: str) -> Violation:
    """A Violation at ``node``: an AST node, or any record carrying
    ``lineno`` / ``col_offset`` (an import record, a call edge).

    A decorated def reports at its ``def`` line, but a pragma on any of
    its decorator lines suppresses it too — decorators are part of the
    same statement as far as the author is concerned.
    """
    line = getattr(node, "lineno", 1)
    decorators = getattr(node, "decorator_list", None) or []
    first = min((d.lineno for d in decorators), default=line)
    return Violation(
        code=rule.code, path=path, line=line, col=getattr(node, "col_offset", 0),
        message=message, pragma_lines=tuple(range(first, line)),
    )


@dataclass
class PragmaSet:
    """Suppressions parsed from one file's comments."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)

    @classmethod
    def of(cls, source: str) -> "PragmaSet":
        out = cls()
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _PRAGMA.search(line)
            if not m:
                continue
            codes = {c.strip().upper() for c in m.group(2).split(",") if c.strip()}
            if m.group(1) == "disable-file":
                out.whole_file |= codes
            else:
                out.by_line.setdefault(lineno, set()).update(codes)
        return out

    def suppresses(self, v: Violation) -> bool:
        if v.code in self.whole_file or "ALL" in self.whole_file:
            return True
        for line in (v.line, *v.pragma_lines):
            codes = self.by_line.get(line, ())
            if v.code in codes or "ALL" in codes:
                return True
        return False


def lint(project: Project, rules: list[Rule]) -> list[Violation]:
    """Run ``rules`` over ``project``; what no pragma suppresses, sorted."""
    pragmas: dict[str, PragmaSet] = {}
    out: list[Violation] = []
    for rule in rules:
        for v in rule.check(project):
            if v.path not in pragmas:
                pragmas[v.path] = PragmaSet.of(project.sources.get(v.path, ""))
            if not pragmas[v.path].suppresses(v):
                out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def lint_source(source: str, rules: list[Rule], path: str) -> list[Violation]:
    """Lint one in-memory file as a one-file project (the unit-test entry
    point); ``path`` is the repo-relative path rules scope it by."""
    project = Project()
    project.add(path, source)
    project.graph.finish()
    return lint(project, rules)
