"""remoslint — AST-based invariant linting for the Remos stack.

The repo's load-bearing contracts (sim-clock determinism, seeded RNG
discipline, the status-carrying session API, the layer cake) are
enforced here rather than merely documented.  Each rule has a stable
``RMLxxx`` code and a rationale; a finding is fixed or suppressed by
an inline pragma on its line, never grandfathered.

Usage::

    repro lint                      # or: python -m repro.lint
    repro lint src/repro/collectors # only findings under that path
    repro lint --list-rules

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, lint, lint_source

__all__ = ["Project", "Rule", "Violation", "lint", "lint_source"]
