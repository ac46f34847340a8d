"""Every ``benchmarks/…`` and ``tests/…`` path the CI workflow names exists.

A job that runs a file somebody later deletes or renames fails only on
the next push — or, for a path in a comment or an ``if-no-files-found:
ignore`` upload, never.  The workflow is read with a regex (PyYAML is
not a dependency): commands and comments alike, globs kept as globs.
"""

from __future__ import annotations

import glob
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

_PATH = re.compile(r"(?<![\w./-])(?:benchmarks|tests)/[\w./*?\[\]-]*")


def named_paths(text: str) -> list[str]:
    # a path that ends a sentence in a comment drags its full stop along
    return sorted({p.rstrip(".") for p in _PATH.findall(text)})


def test_the_regex_still_finds_the_paths():
    paths = named_paths(WORKFLOW.read_text())
    assert "benchmarks/e2e/run.py" in paths and len(paths) >= 10
    assert named_paths("run: pytest tests/a/test_b.py -q  # see benchmarks/out/BENCH_*.json.") == [
        "benchmarks/out/BENCH_*.json", "tests/a/test_b.py",
    ]


@pytest.mark.parametrize("path", named_paths(WORKFLOW.read_text()))
def test_a_path_named_in_the_workflow_exists(path: str):
    if "/out/" in path:
        # written by the job (and git-ignored): what must exist is the
        # directory the job writes ``out/`` into
        path = path.split("/out/")[0]
    assert glob.glob(str(REPO_ROOT / path)), f"ci.yml names {path}, which matches nothing"
