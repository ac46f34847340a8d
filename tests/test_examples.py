"""Smoke tests: every shipped example must run cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
#: a line an example must print, beyond something
MUST_PRINT = {"grid_monitoring": "RPS forecast"}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print something"
    assert MUST_PRINT.get(script.stem, "") in proc.stdout


def test_all_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "mirror_selection",
        "video_streaming",
        "grid_monitoring",
        "wireless_roaming",
        "figure2_deployment",
    } <= names
