"""Framework-level tests: pragmas, baseline semantics, config parsing,
autofix application, and CLI behaviour over a throwaway mini-repo.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.cli import main
from repro.lint.config import LintConfig, _parse_minimal_toml, load_config
from repro.lint.core import Violation
from repro.lint.engine import PragmaSet, lint_paths, lint_source
from repro.lint.rules import make_rules


def viol(code="RML001", path="src/x.py", line=1, text="import time"):
    return Violation(
        code=code, path=path, line=line, col=0, message="m", line_text=text
    )


class TestPragmas:
    def test_disable_file_suppresses_everywhere(self):
        src = textwrap.dedent(
            """
            # remoslint: disable-file=RML001
            import time

            a = time.time()
            b = time.monotonic()
            """
        )
        vs = lint_source(src, make_rules(), path="src/repro/collectors/x.py")
        assert vs == []

    def test_disable_all_keyword(self):
        src = "import time\nt = time.time()  # remoslint: disable=ALL\n"
        vs = lint_source(src, make_rules(), path="src/repro/collectors/x.py")
        assert vs == []

    def test_multiple_codes_one_pragma(self):
        ps = PragmaSet.of("x = 1  # remoslint: disable=RML001, RML006\n")
        assert ps.by_line[1] == {"RML001", "RML006"}

    def test_pragma_on_decorator_line_suppresses_decorated_def(self):
        """A rule that reports at the ``def`` line of a decorated
        function must also honour a pragma sitting on any of the
        decorator lines — the decorators are part of the statement."""
        import ast

        from repro.lint.core import FileContext, Rule

        class DefRule(Rule):
            code = "RML001"

        src = textwrap.dedent(
            """
            import functools


            @functools.wraps  # remoslint: disable=RML001
            @functools.lru_cache(maxsize=4)
            async def fn():
                return 1
            """
        )
        ctx = FileContext(src, path="src/x.py")
        node = next(
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.AsyncFunctionDef)
        )
        v = ctx.violation(DefRule(), node, "m")
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
            # remoslint: disable=RML001
            t = time.time()
            """
        )
        vs = lint_source(src, make_rules(), path="src/repro/collectors/x.py")
        assert [v.code for v in vs] == ["RML001"]


class TestBaseline:
    def test_partition_fresh_vs_grandfathered(self):
        bl = Baseline([BaselineEntry("RML001", "src/x.py", "import time")])
        old = viol(path="src/x.py", text="import time")
        new = viol(path="src/y.py", text="import time")
        fresh, grandfathered, stale = bl.partition([old, new])
        assert fresh == [new]
        assert grandfathered == [old]
        assert stale == []

    def test_multiset_budget(self):
        # one entry tolerates exactly one copy of an identical line
        bl = Baseline([BaselineEntry("RML001", "src/x.py", "t = time.time()")])
        v1 = viol(path="src/x.py", line=3, text="t = time.time()")
        v2 = viol(path="src/x.py", line=9, text="t = time.time()")
        fresh, grandfathered, _ = bl.partition([v1, v2])
        assert len(grandfathered) == 1 and len(fresh) == 1

    def test_line_moves_do_not_invalidate(self):
        bl = Baseline([BaselineEntry("RML001", "src/x.py", "t = time.time()")])
        moved = viol(path="src/x.py", line=99, text="t = time.time()")
        fresh, grandfathered, stale = bl.partition([moved])
        assert fresh == [] and len(grandfathered) == 1 and stale == []

    def test_stale_entries_reported(self):
        bl = Baseline([BaselineEntry("RML001", "src/gone.py", "import time")])
        fresh, grandfathered, stale = bl.partition([])
        assert [e.path for e in stale] == ["src/gone.py"]

    def test_save_load_roundtrip_preserves_notes(self, tmp_path):
        bl = Baseline(
            [BaselineEntry("RML004", "src/a.py", "ans = q()", note="reviewed")]
        )
        f = tmp_path / "baseline.json"
        bl.save(f)
        loaded = Baseline.load(f)
        assert loaded.entries == bl.entries

    def test_regenerate_carries_notes(self):
        prev = Baseline(
            [BaselineEntry("RML001", "src/x.py", "import time", note="legacy")]
        )
        regenerated = Baseline.from_violations(
            [viol(path="src/x.py", text="import time")], previous=prev
        )
        assert regenerated.entries[0].note == "legacy"

    def test_missing_file_loads_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == []


class TestConfig:
    def test_minimal_toml_parser(self):
        data = _parse_minimal_toml(
            textwrap.dedent(
                """
                # comment
                [tool.remoslint]
                paths = ["src", "examples"]
                baseline = "lint-baseline.json"
                flag = true
                count = 3

                [tool.remoslint.per-rule.RML004]
                exclude = ["src/repro/cli.py"]
                """
            )
        )
        sec = data["tool"]["remoslint"]
        assert sec["paths"] == ["src", "examples"]
        assert sec["baseline"] == "lint-baseline.json"
        assert sec["flag"] is True
        assert sec["count"] == 3
        assert sec["per-rule"]["RML004"]["exclude"] == ["src/repro/cli.py"]

    def test_load_config_from_repo_pyproject(self):
        # the committed pyproject must parse and point at the baseline
        cfg = load_config(Path(__file__).resolve().parents[2])
        assert cfg.paths == ["src"]
        assert cfg.baseline == "lint-baseline.json"

    def test_load_config_missing_pyproject(self, tmp_path):
        cfg = load_config(tmp_path)
        assert cfg.paths == ["src"]

    def test_per_rule_exclude_applied(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        bad = "import time\nt = time.time()\n"
        (pkg / "a.py").write_text(bad)
        config = LintConfig(
            root=tmp_path,
            per_rule={"RML001": {"exclude": ["src/a.py"]}},
        )
        rules = make_rules(select=["RML001"])
        # widen scope so the tmp file is visible to the rule
        for r in rules:
            r.scope = ()
        report = lint_paths([pkg], rules, config)
        assert report.violations == []


def _mini_repo(tmp_path: Path) -> Path:
    """A throwaway repo root with one in-scope offending file."""
    (tmp_path / "pyproject.toml").write_text(
        '[tool.remoslint]\npaths = ["src"]\nbaseline = "bl.json"\n'
    )
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
    return tmp_path


class TestCli:
    def test_violations_fail_then_baseline_tolerates(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RML005" in out

        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert main(["--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_check_baseline_fails_on_stale_debt(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        main(["--root", str(root), "--write-baseline"])
        # pay the debt down: the baseline entry is now stale
        probe = root / "src" / "repro" / "collectors" / "probe.py"
        probe.write_text("def poll(agent):\n    return agent.get()\n")
        capsys.readouterr()
        assert main(["--root", str(root)]) == 0  # tolerated without the flag
        assert main(["--root", str(root), "--check-baseline"]) == 1
        assert "stale baseline" in capsys.readouterr().out

    def test_fix_applies_autofix(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), "--fix"]) == 0
        probe = root / "src" / "repro" / "collectors" / "probe.py"
        assert "except Exception:" in probe.read_text()
        assert "applied 1 autofix" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "RML005"
        assert payload["violations"][0]["autofixable"] is True

    def test_select_and_ignore(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), "--select", "RML001"]) == 0
        assert main(["--root", str(root), "--ignore", "RML005"]) == 0
        capsys.readouterr()

    def test_no_rules_is_usage_error(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), "--select", "NOPE"]) == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        assert main(["--root", str(root), str(root / "absent")]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in (1, 2, 4, 5, 6, 7, 8):  # 3 was the deleted shim rule
            assert f"RML00{i}" in out

    def test_syntax_error_reported_not_crashed(self, tmp_path, capsys):
        root = _mini_repo(tmp_path)
        bad = root / "src" / "repro" / "collectors" / "broken.py"
        bad.write_text("def oops(:\n")
        assert main(["--root", str(root), "--select", "RML001"]) == 1
        assert "syntax error" in capsys.readouterr().out
