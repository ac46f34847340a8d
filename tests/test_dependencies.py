"""Every third-party import is a declared dependency.

``src/`` may import only what ``[project] dependencies`` lists, and the
tests only that plus the ``test`` extra.  This is what keeps networkx —
the oracle of the graph-walk twins — out of the runtime: an import of
it under ``src/`` fails here, not in a user's environment.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro"}


def _module_names(requirements: list[str]) -> set[str]:
    """``"pytest-benchmark>=4"`` -> ``"pytest_benchmark"``."""
    return {re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower().replace("-", "_")
            for r in requirements}


def _third_party_imports(root: Path) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                # a script that puts ``root`` on its path imports its modules
                local = (root / top).is_dir() or (root / f"{top}.py").is_file()
                if top not in sys.stdlib_module_names and top not in FIRST_PARTY and not local:
                    found.setdefault(top, []).append(path.relative_to(REPO_ROOT).as_posix())
    return found


def _declared() -> tuple[set[str], set[str]]:
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    return _module_names(project["dependencies"]), _module_names(
        project["optional-dependencies"]["test"]
    )


def test_src_imports_only_runtime_dependencies():
    runtime, _ = _declared()
    undeclared = {m: files for m, files in _third_party_imports(REPO_ROOT / "src").items()
                  if m not in runtime}
    assert undeclared == {}


def test_tests_import_only_declared_dependencies():
    runtime, test = _declared()
    undeclared = {m: files for m, files in _third_party_imports(REPO_ROOT / "tests").items()
                  if m not in runtime | test}
    assert undeclared == {}


def test_networkx_is_a_test_dependency_only():
    runtime, test = _declared()
    assert "networkx" not in runtime and "networkx" in test
