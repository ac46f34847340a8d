"""Which functions under ``src/`` a deployment-like run reaches.

    python tests/census.py

Every ``def`` under ``src/`` is enumerated with :mod:`ast`.  Then the
deployment-like runs execute in a temporary copy of the repository:

* each script under ``examples/``;
* the paper-figure scripts (``pytest benchmarks --ignore=benchmarks/e2e
  --benchmark-disable``: ``benchmark.pedantic`` would switch the
  profiler off while it times);
* ``benchmarks/e2e/run.py --seed 7 --quick``;
* ``python -m repro stats``.

Each run starts with a generated ``sitecustomize.py`` first on
``PYTHONPATH``.  It installs ``sys.setprofile`` and
``threading.setprofile`` hooks that collect every code object called,
and writes the reached ``src/`` functions to a file when the process
exits, so child processes (the e2e harness's passes and server) are
counted too.  A function is keyed by its file and ``co_firstlineno``,
which for a decorated function is its first decorator line.

The report on stdout gives the defined and reached counts, each run's
exit status and duration, and then the unreached functions by module
with their line spans.  The working tree is left as it was: the figure
scripts write ``benchmarks/out/`` and the e2e harness
``benchmarks/e2e/out/`` inside the copy.

The exit status is that of the figure scripts, so a failing shape
assertion fails the census.  Under the profiler the whole census takes
six to eight minutes on two cores, nearly all of it the figure
scripts.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (label, argv after the interpreter), run in this order from the copy's root
RUNS = [
    *(
        (f"examples/{p.name}", [f"examples/{p.name}"])
        for p in sorted((REPO / "examples").glob("*.py"))
    ),
    (
        "figure scripts",
        ["-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
    ),
    ("e2e --seed 7 --quick", ["benchmarks/e2e/run.py", "--seed", "7", "--quick"]),
    ("repro stats", ["-m", "repro", "stats"]),
]
#: the run whose exit status is the census's
GATE = "figure scripts"

_HOOK = '''\
import atexit, os, sys, tempfile, threading

_codes = set()


def _profile(frame, event, arg, _add=_codes.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted(
        {{f"{{c.co_filename}}\\t{{c.co_firstlineno}}\\t{{c.co_name}}"
          for c in list(_codes) if c.co_filename.startswith({src!r})}}
    )
    fd, _ = tempfile.mkstemp(suffix=".txt", dir={out!r})
    with os.fdopen(fd, "w") as f:
        f.write("\\n".join(rows))


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def defined(src: Path) -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(path under src, first line, name) -> (qualified name, last line)``
    for every ``def`` under ``src``."""
    found: dict[tuple[str, int, str], tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qual = prefix + child.name
                found[(path, first, child.name)] = (qual, child.end_lineno or first)
                visit(child, path, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for f in sorted(src.rglob("*.py")):
        path = f.relative_to(src).as_posix()
        visit(ast.parse(f.read_text(), str(f)), path, "")
    return found


def copy_repo(dest: Path) -> Path:
    """``dest``, a copy of the working tree without git or run caches."""
    caches = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")
    shutil.copytree(REPO, dest, ignore=shutil.ignore_patterns(*caches))
    return dest


def main() -> int:
    functions = defined(REPO / "src")
    reached: set[tuple[str, int, str]] = set()
    results: list[tuple[str, int, float]] = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy, hook, out = copy_repo(Path(tmp) / "repo"), Path(tmp) / "hook", Path(tmp) / "out"
        hook.mkdir()
        out.mkdir()
        src = (copy / "src").resolve()
        (hook / "sitecustomize.py").write_text(
            _HOOK.format(src=str(src) + os.sep, out=str(out))
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(src)]))
        for label, argv in RUNS:
            log = Path(tmp) / "run.log"
            t0 = time.perf_counter()
            with log.open("w") as f:
                code = subprocess.run(
                    [sys.executable, *argv], cwd=copy, env=env, stdout=f, stderr=subprocess.STDOUT
                ).returncode
            results.append((label, code, time.perf_counter() - t0))
            if code:
                print(f"--- {label} exited {code}; the end of its output:", file=sys.stderr)
                print(log.read_text()[-4000:], file=sys.stderr)
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                filename, first, name = row.split("\t")
                path = Path(filename).resolve().relative_to(src).as_posix()
                reached.add((path, int(first), name))

    unreached = sorted(set(functions) - reached)
    span = {key: functions[key][1] - key[1] + 1 for key in functions}
    print(f"defined under src/: {len(functions)} functions, "
          f"{sum(span.values())} lines by def span")
    print(f"reached by deployment-like runs: {len(functions) - len(unreached)}")
    print(f"unreached: {len(unreached)} functions, "
          f"{sum(span[k] for k in unreached)} lines by def span")
    print("\nruns:")
    for label, code, seconds in results:
        print(f"  {label:<36} exit {code:<4} {seconds:7.1f} s")
    by_module: dict[str, list[tuple[str, int, str]]] = defaultdict(list)
    for key in unreached:
        by_module[key[0]].append(key)
    print("\nunreached, by module:")
    for path, keys in sorted(by_module.items()):
        print(f"  {path} ({len(keys)} functions, {sum(span[k] for k in keys)} lines)")
        for key in keys:
            qual, last = functions[key]
            print(f"    {key[1]}-{last}  {qual}")
    return next(code for label, code, _ in results if label == GATE)


if __name__ == "__main__":
    sys.exit(main())
