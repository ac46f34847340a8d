"""Self-check: the committed tree must satisfy its own lint gate.

``repro lint`` over the whole tree — the file rules, the layer
contract, async safety, sim-clock purity, status discipline and dead
exports — reports nothing, with nothing grandfathered, so a violation
shows up at ``pytest`` time on every Python version CI runs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import Project, lint
from repro.lint.cli import main
from repro.lint.rules import make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_is_lint_clean_with_committed_baseline():
    # What is committed grandfathers nothing: there is no baseline file,
    # so ``src/`` is clean only if every rule holds on it outright.
    assert not (REPO_ROOT / "lint-baseline.json").exists()
    project = Project.build(REPO_ROOT)
    src = [p for p in project.sources if p.startswith("src/")]
    assert {p: e for p, e in project.errors.items() if p.startswith("src/")} == {}
    found = [v for v in lint(project, make_rules()) if v.path.startswith("src/")]
    assert found == [], "\n".join(v.render() for v in found)
    assert len(src) > 50  # whole src tree, not a subset


def test_cli_check_baseline_exits_zero(capsys):
    assert main(["--root", str(REPO_ROOT), str(REPO_ROOT / "src")]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_project_analysis_is_clean(capsys):
    assert main(["--root", str(REPO_ROOT)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    analysed, violations = map(int, re.findall(r"\d+", summary))
    assert violations == 0
    assert analysed > 200  # src, tests, benchmarks and examples, not a subset
