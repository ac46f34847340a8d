"""Replay the mutant catalogue: each planted fault must fail its killers.

    python tests/mutants/run.py

The working tree is copied once to a temporary directory.  Each mutant
of ``tests/mutants/catalogue.py`` in turn is applied there, its killers
run under pytest with a fixed Hypothesis seed and no example database,
and the file is put back.  A killer that fails or errors kills; a
mutant whose ``before`` no longer occurs once kills nothing.  The kill
matrix goes to stdout, and the exit status is 1 if any killer passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ left in the working tree
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from census import copy_repo  # noqa: E402
from mutants.catalogue import MUTANTS, Mutant  # noqa: E402


def failed(copy: Path, m: Mutant) -> set[str]:
    """Ids of the killers (or their files) that fail under ``m``."""
    target = copy / m.file
    text = target.read_text()
    if text.count(m.before) != 1:
        return set()
    target.write_text(text.replace(m.before, m.after))
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *m.killers],
            cwd=copy, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"),
        ).stdout
    finally:
        target.write_text(text)
    # "FAILED tests/a.py::TestA::test_b[param] - AssertionError"
    return {
        line.split()[1].partition("[")[0]
        for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))
    }


def main() -> int:
    survivals, t0 = 0, time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = copy_repo(Path(tmp) / "repo")
        for m in MUTANTS:
            print(f"{m.name} ({m.file}, {m.source})")
            hit = failed(copy, m)
            for killer in m.killers:
                killed = killer in hit or killer.partition("::")[0] in hit
                survivals += not killed
                print(f"    {'killed  ' if killed else 'SURVIVED'}  {killer}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivals} survivals, {time.perf_counter() - t0:.0f} s")
    return 1 if survivals else 0


if __name__ == "__main__":
    sys.exit(main())
