"""Core vocabulary of the linter: violations and import resolution."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    code: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    message: str
    #: extra lines where an inline pragma also suppresses this violation
    #: (for decorated defs: the decorator lines above the reported line)
    pragma_lines: tuple[int, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


def prefix_match(path: str, prefix: str) -> bool:
    """True when ``path`` is ``prefix`` itself or lives under it."""
    return path == prefix or path.startswith(prefix.rstrip("/") + "/")


# -- attribute-chain helpers shared by several rules ---------------------


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
        variable that happens to be called ``random`` yields None, so
        rules keyed on module paths don't false-positive on it.
        """
        dn = dotted_name(node)
        if dn is None:
            return None
        head, _, rest = dn.partition(".")
        if head in self.members:
            base = self.members[head]
            return f"{base}.{rest}" if rest else base
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        return None
