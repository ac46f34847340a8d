"""RML005 — bare and blind exception handlers in the collector stack.

A collector that swallows everything hides the difference between "the
agent is down" (a modelled, status-reported condition) and "the
collector has a bug" (which must surface).  Banned in the collector /
SNMP / fault layers:

* ``except:`` — catches ``KeyboardInterrupt``/``SystemExit`` too.
* ``except Exception:`` (or ``BaseException``) whose handler does
  nothing observable — only ``pass``/``...``/``continue``/``return
  <constant>`` — i.e. swallows without logging, narrowing, or
  re-raising.

Handlers that log, re-raise, or do real work are fine: deliberate
containment (the Master's per-fragment isolation) is the pattern,
silent swallowing is the bug.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

BROAD = {"Exception", "BaseException"}


class BlindExceptRule(Rule):
    code = "RML005"
    name = "blind-except"
    rationale = (
        "bare/blind excepts in collectors hide real bugs behind the "
        "graceful-degradation machinery; narrow, log, or re-raise"
    )
    scope = ("src/repro/collectors", "src/repro/snmp", "src/repro/faults.py")

    def check(self, project: Project) -> Iterator[Violation]:
        for info in project.files(self.scope):
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield violation_at(
                        self, info.path, node,
                        "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                        "catch Exception or a RemosError subclass",
                    )
                elif self._is_broad(node.type) and self._is_blind(node.body):
                    yield violation_at(
                        self, info.path, node,
                        "blind 'except Exception' swallows collector bugs "
                        "silently; narrow the type, log, or re-raise",
                    )

    def _is_broad(self, type_node: ast.expr) -> bool:
        names = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for n in names:
            if isinstance(n, ast.Name) and n.id in BROAD:
                return True
        return False

    def _is_blind(self, body: list[ast.stmt]) -> bool:
        """True when the handler has no observable effect."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / `...`
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            return False
        return True
