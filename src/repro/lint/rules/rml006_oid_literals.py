"""RML006 — OID literal hygiene.

Every MIB object the collectors touch is named once, in
``repro.snmp.oid``, so a MIB change is a one-file edit and OIDs are
greppable by symbolic name.  A raw dotted-OID string anywhere else
re-scatters the magic numbers the module exists to centralise.

A string literal counts as an OID when it has five or more numeric
components (``1.3.6.1.2``), or four starting with the standard
``1.3.6.`` prefix — dotted IPv4 addresses (always exactly four
components, not starting ``1.3.6.``) and version strings (two or three
components) never match.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

_DOTTED = re.compile(r"^\.?\d+(\.\d+)+$")


def looks_like_oid(text: str) -> bool:
    if not _DOTTED.match(text):
        return False
    n_components = text.strip(".").count(".") + 1
    if n_components >= 5:
        return True
    return n_components == 4 and text.lstrip(".").startswith("1.3.6.")


class OidLiteralRule(Rule):
    code = "RML006"
    name = "oid-literal-hygiene"
    rationale = (
        "raw dotted-OID strings belong in repro.snmp.oid; everywhere "
        "else use the symbolic constants"
    )
    scope = ("src/repro",)
    exempt = ("src/repro/snmp/oid.py",)

    def check(self, project: Project) -> Iterator[Violation]:
        for info in project.files(self.scope, self.exempt):
            for node in ast.walk(info.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and looks_like_oid(node.value)
                ):
                    yield violation_at(
                        self, info.path, node,
                        f"raw OID literal {node.value!r}; use a symbolic "
                        "constant from repro.snmp.oid",
                    )
