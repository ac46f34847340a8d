"""The mutant catalogue matches the tree: every ``before`` occurs once in
its file, and every killer names a test function.  Files are parsed,
not collected; ``python tests/mutants/run.py`` checks the killers fail."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from .catalogue import MUTANTS, Mutant

REPO = Path(__file__).resolve().parents[2]


def _test_functions(path: Path) -> set[str]:
    """``function`` and ``Class::function`` of each function in ``path``."""
    found = set()
    for node in ast.parse(path.read_text()).body if path.is_file() else ():
        subs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}::" if isinstance(node, ast.ClassDef) else ""
        found.update(prefix + sub.name for sub in subs
                     if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return found


def catalogue_faults(mutants: list[Mutant], root: Path) -> list[str]:
    found, tests = [], {}
    for m in mutants:
        text = (root / m.file).read_text() if (root / m.file).is_file() else ""
        if not m.before or text.count(m.before) != 1:
            found.append(f"{m.name}: `before` occurs {text.count(m.before)} times in {m.file}")
        for killer in m.killers or ("",):
            path, _, test = killer.partition("::")
            if test not in tests.setdefault(path, _test_functions(root / path)):
                found.append(f"{m.name}: killer {killer!r} names no test function")
    return found


def test_the_catalogue_matches_the_tree():
    assert catalogue_faults(MUTANTS, REPO) == []
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("before, killers, faults", [
    pytest.param("y = 2\n", ["t.py::TestA::test_b", "t.py::test_c"], [], id="clean"),
    pytest.param("z = 3\n", ["t.py::test_c"], ["`before` occurs 0 times in a.py"], id="missing"),
    pytest.param("x = 1\n", ["t.py::test_c"], ["`before` occurs 2 times in a.py"], id="twice"),
    pytest.param("y = 2\n", ["t.py::test_gone", "t.py::TestA", "u.py::test_c", ""], [
        f"killer {k!r} names no test function"
        for k in ("t.py::test_gone", "t.py::TestA", "u.py::test_c", "")
    ], id="killer_names_no_test_function"),
])
def test_catalogue_faults(tmp_path, before, killers, faults):
    (tmp_path / "a.py").write_text("x = 1\nx = 1\ny = 2\n")
    (tmp_path / "t.py").write_text("class TestA:\n    def test_b(self):\n        pass\n\n\n"
                                   "def test_c():\n    pass\n")
    mutant = Mutant("m", "a.py", before, "", tuple(killers), "")
    assert catalogue_faults([mutant], tmp_path) == [f"m: {fault}" for fault in faults]
