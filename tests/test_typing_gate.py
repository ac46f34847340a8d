"""The strict-typing gate, testable without mypy installed.

CI runs real mypy over the strict allowlist (the strict
``[[tool.mypy.overrides]]`` module list in pyproject, which this module
reads).  The container running the unit tests may not have mypy,
so this module enforces the cheap, high-value half of the contract with
the stdlib ``ast``: every function in the strict modules carries full
parameter and return annotations (mypy's ``disallow_untyped_defs`` /
``disallow_incomplete_defs``).  When mypy *is* importable, a final test
runs it for real.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def _strict_modules() -> list[str]:
    """The module list of pyproject's strict ``[[tool.mypy.overrides]]``
    block: the one allowlist, read rather than mirrored."""
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        overrides = tomllib.load(fh)["tool"]["mypy"]["overrides"]
    return [m for o in overrides if o.get("disallow_untyped_defs") for m in o["module"]]


def _module_file(module: str) -> Path | None:
    """``repro.a.b`` -> ``src/repro/a/b.py``, or ``src/repro/a/b/__init__.py``
    for a package; ``None`` when neither exists."""
    base = SRC.joinpath(*module.split("."))
    for f in (base.with_suffix(".py"), base / "__init__.py"):
        if f.is_file():
            return f
    return None


STRICT_MODULES = _strict_modules()
STRICT_FILES = [f for f in map(_module_file, STRICT_MODULES) if f is not None]


def iter_untyped_defs(tree: ast.Module, filename: str):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        where = f"{filename}:{node.lineno} def {node.name}"
        if node.returns is None:
            yield f"{where}: missing return annotation"
        args = node.args
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional + args.kwonlyargs):
            if i == 0 and a.arg in ("self", "cls"):
                continue
            if a.annotation is None:
                yield f"{where}: parameter {a.arg!r} unannotated"
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                yield f"{where}: parameter *{star.arg} unannotated"


def test_every_strict_module_maps_to_a_file():
    """A module listed in pyproject but missing from ``src/`` (a typo,
    or a file moved away) would escape both mypy and the AST gate."""
    assert STRICT_MODULES, "no strict [[tool.mypy.overrides]] block in pyproject"
    assert [m for m in STRICT_MODULES if _module_file(m) is None] == []


def test_strict_modules_have_complete_annotations():
    assert STRICT_FILES, "strict allowlist resolved to no files"
    problems: list[str] = []
    for f in STRICT_FILES:
        tree = ast.parse(f.read_text())
        problems.extend(iter_untyped_defs(tree, f.relative_to(REPO_ROOT).as_posix()))
    assert problems == [], "\n".join(problems)


def test_mypy_strict_allowlist_passes():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy not installed in this environment (CI runs it)")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"] + [str(f) for f in STRICT_FILES],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
