"""Command-line front end: ``repro lint`` and ``python -m repro.lint``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.core import prefix_match
from repro.lint.project import SOURCE_TREES, Project, lint
from repro.lint.rules import make_rules

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def configure_parser(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument(
        "paths", nargs="*",
        help="report only findings in these files/directories (default: "
             "all of " + ", ".join(SOURCE_TREES) + "); the whole project is "
             "analysed either way",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p.add_argument(
        "--root", default=".",
        help="repository root holding " + ", ".join(SOURCE_TREES) + " (default: cwd)",
    )
    return p


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in make_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"        {rule.rationale}")
        return EXIT_OK

    root = Path(args.root).resolve()
    wanted: list[str] = []
    for arg in args.paths:
        path = Path(arg).resolve()
        if not path.exists() or not path.is_relative_to(root):
            print(f"error: {arg} is not a path under {root}", file=sys.stderr)
            return EXIT_USAGE
        wanted.append(path.relative_to(root).as_posix())

    project = Project.build(root)

    def shown(path: str) -> bool:
        return not wanted or any(w == "." or prefix_match(path, w) for w in wanted)

    errors = {p: e for p, e in sorted(project.errors.items()) if shown(p)}
    violations = [v for v in lint(project, make_rules()) if shown(v.path)]
    for path, err in errors.items():
        print(f"{path}: {err}")
    for v in violations:
        print(v.render())
    print(
        f"{len(project.sources)} file(s) analysed, "
        f"{len(violations)} violation(s)"
    )
    return EXIT_VIOLATIONS if violations or errors else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = configure_parser(
        argparse.ArgumentParser(
            prog="repro lint",
            description="remoslint: AST-based invariant linter for the Remos stack",
        )
    )
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
