"""The tree every invariant reads: the shipped package plus every
consumer whose references keep an export alive."""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import pytest

from .modulegraph import ModuleGraph

REPO_ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "benchmarks", "examples")
#: quotes code as data: a name a mutant's snippet mentions is not a use
CATALOGUE = "tests/mutants/catalogue.py"


@pytest.fixture(scope="package")
def tree() -> Iterator[dict[str, str]]:
    """``{repo-relative path: source}`` of every ``.py`` file under
    :data:`TREES`; the invariants share one parse of it
    (:meth:`.modulegraph.ModuleGraph.of`), dropped once they have run."""
    sources = {
        f.relative_to(REPO_ROOT).as_posix(): f.read_text()
        for name in TREES
        for f in sorted((REPO_ROOT / name).rglob("*.py"))
        if f != REPO_ROOT / CATALOGUE
    }
    assert len(sources) > 200  # the whole tree, not a subset
    yield sources
    ModuleGraph.forget()
