"""Framework-level tests: pragmas and CLI behaviour over a throwaway
mini-repo.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint.cli import main
from repro.lint.core import Violation
from repro.lint.project import PragmaSet, Rule, lint_source, violation_at
from repro.lint.rules import make_rules

IN_SCOPE = "src/repro/collectors/x.py"


def clock_rules() -> list[Rule]:
    return [r for r in make_rules() if r.code == "RML103"]


class TestPragmas:
    def test_disable_file_suppresses_everywhere(self):
        src = textwrap.dedent(
            """
            # remoslint: disable-file=RML103
            import time

            a = time.time()
            b = time.monotonic()
            """
        )
        assert lint_source(src, clock_rules(), path=IN_SCOPE) == []

    def test_disable_all_keyword(self):
        src = "import time\nt = time.time()  # remoslint: disable=ALL\n"
        assert lint_source(src, clock_rules(), path=IN_SCOPE) == []

    def test_multiple_codes_one_pragma(self):
        ps = PragmaSet.of("x = 1  # remoslint: disable=RML002, RML006\n")
        assert ps.by_line[1] == {"RML002", "RML006"}

    def test_pragma_on_decorator_line_suppresses_decorated_def(self):
        """A rule that reports at the ``def`` line of a decorated
        function must also honour a pragma sitting on any of the
        decorator lines — the decorators are part of the statement."""

        class DefRule(Rule):
            code = "RML105"

        src = textwrap.dedent(
            """
            import functools


            @functools.wraps  # remoslint: disable=RML105
            @functools.lru_cache(maxsize=4)
            async def fn():
                return 1
            """
        )
        node = next(
            n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.AsyncFunctionDef)
        )
        v = violation_at(DefRule(), "src/x.py", node, "m")
        assert v.line == node.lineno  # reported at the `def`
        assert set(v.pragma_lines) == set(
            range(node.decorator_list[0].lineno, node.lineno)
        )
        assert PragmaSet.of(src).suppresses(v)
        # the same violation without the decorator back-channel would
        # slip past the pragma — that was the blind spot
        bare = Violation(
            code=v.code, path=v.path, line=v.line, col=0, message="m"
        )
        assert not PragmaSet.of(src).suppresses(bare)

    def test_pragma_on_other_line_does_not_suppress(self):
        src = textwrap.dedent(
            """
            import time
            # remoslint: disable=RML103
            t = time.time()
            """
        )
        vs = lint_source(src, clock_rules(), path=IN_SCOPE)
        assert [v.code for v in vs] == ["RML103"]


def _mini_repo(tmp_path: Path) -> Path:
    """A throwaway repo root with one offending file and a test that
    keeps its export alive."""
    pkg = tmp_path / "src" / "repro" / "collectors"
    pkg.mkdir(parents=True)
    (pkg / "probe.py").write_text(
        textwrap.dedent(
            """
            def poll(agent, log):
                try:
                    return agent.get()
                except:
                    log.warning("agent failed")
                    return None
            """
        )
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "from repro.collectors.probe import poll\n"
    )
    return tmp_path


class TestCli:
    def test_violations_fail_and_a_pragma_clears_them(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "src/repro/collectors/probe.py:5:5: RML005" in out
        assert "2 file(s) analysed, 1 violation(s)" in out

        probe = root / "src" / "repro" / "collectors" / "probe.py"
        probe.write_text(
            probe.read_text().replace("except:", "except:  # remoslint: disable=RML005")
        )
        assert main(["--root", str(root)]) == 0

    def test_paths_narrow_the_report_not_the_analysis(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        # the export is kept alive by tests/, which the report leaves out
        assert main(["--root", str(root), str(root / "tests")]) == 0
        assert main(["--root", str(root), str(root / "src" / "repro")]) == 1
        assert "RML105" not in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), str(root / "absent")]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RML002", "RML005", "RML006", "RML101", "RML102",
                     "RML103", "RML104", "RML105"):
            assert code in out

    def test_syntax_error_reported_not_crashed(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        bad = root / "src" / "repro" / "collectors" / "broken.py"
        bad.write_text("def oops(:\n")
        assert main(["--root", str(root)]) == 1
        assert "syntax error" in capsys.readouterr().out
