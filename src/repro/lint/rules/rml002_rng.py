"""RML002 — seeded-RNG discipline.

Every stochastic component must draw from an explicitly seeded
generator threaded through ``repro.common.rng.make_rng``.  Module-level
``random.*`` calls (global hidden state) and unseeded constructors
(``random.Random()``, ``np.random.default_rng()`` with no argument)
make runs irreproducible and chaos tests flaky.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

#: constructors that are fine *with* a seed argument, banned without one
SEEDABLE = {
    "random.Random",
    "random.SystemRandom",  # never deterministic, but flag the no-arg form too
    "numpy.random.default_rng",
    "numpy.random.RandomState",
}

#: module-attribute prefixes whose *function calls* are banned outright
BANNED_PREFIXES = ("random.", "numpy.random.")

#: attribute names under the banned prefixes that are not draws
_ALLOWED_TAILS = {
    "Random",
    "SystemRandom",
    "default_rng",
    "RandomState",
    "Generator",  # type annotations: np.random.Generator
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "Philox",
}


class SeededRngRule(Rule):
    code = "RML002"
    name = "seeded-rng-discipline"
    rationale = (
        "module-level random.* / unseeded generators use hidden global "
        "state; thread a seeded Generator via repro.common.rng.make_rng"
    )
    scope = ("src/repro",)
    exempt = ("src/repro/common/rng.py",)

    def check(self, project: Project) -> Iterator[Violation]:
        for info in project.files(self.scope, self.exempt):
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = info.import_map.resolve(node.func)
                if resolved is None:
                    continue
                if resolved in SEEDABLE:
                    if not node.args and not node.keywords:
                        yield violation_at(
                            self, info.path, node,
                            f"unseeded {resolved}(): pass an explicit seed "
                            "(or use repro.common.rng.make_rng)",
                        )
                    continue
                if resolved.startswith(BANNED_PREFIXES):
                    tail = resolved.rsplit(".", 1)[-1]
                    if tail in _ALLOWED_TAILS:
                        continue
                    yield violation_at(
                        self, info.path, node,
                        f"module-level {resolved}() draws from hidden global "
                        "state; use a seeded Generator from "
                        "repro.common.rng.make_rng",
                    )
