"""Locate the checkout this harness sits in and put its ``src`` first on the path.

The harness is driven as ``python3 benchmarks/e2e/run.py`` from a
checkout root with no ``PYTHONPATH``; entry scripts call
:func:`add_src` before importing ``repro`` so the code under test is
always the checkout's own, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def add_src() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2e benchmark: no program to measure under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
