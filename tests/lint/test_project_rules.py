"""Synthetic-project tests for the whole-program rules.

The repo itself lints clean (tests/lint/test_self_check.py), so these
build throwaway trees under tmp_path where each rule has a known
positive — proof the analyzers actually fire — plus the suppression
and end-to-end CLI paths.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.cli import main
from repro.lint.project import Project, lint
from repro.lint.rules import make_rules


def make_project(tmp_path: Path, files: dict[str, str]) -> Project:
    for rel, src in files.items():
        f = tmp_path / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(textwrap.dedent(src))
    return Project.build(tmp_path)


def run_rule(tmp_path: Path, code: str, files: dict[str, str]):
    project = make_project(tmp_path, files)
    return lint(project, [r for r in make_rules() if r.code == code])


class TestImportLayering:
    def test_upward_import_fires(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML101",
            {
                "src/repro/collectors/base.py": "def poll():\n    return 1\n",
                "src/repro/netsim/probe.py": (
                    "from repro.collectors.base import poll\n"
                ),
            },
        )
        (v,) = vs
        assert v.code == "RML101"
        assert v.path == "src/repro/netsim/probe.py"
        assert "layer 'netsim'" in v.message and "layer 'collectors'" in v.message

    def test_downward_and_same_layer_imports_clean(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML101",
            {
                "src/repro/netsim/topology.py": "X = 1\n",
                "src/repro/collectors/base.py": (
                    "from repro.netsim.topology import X\n"
                    "from repro.collectors import helper\n"
                ),
                "src/repro/collectors/helper.py": "Y = 2\n",
            },
        )
        assert vs == []

    def test_type_checking_laundering_still_fires(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML101",
            {
                "src/repro/modeler/api.py": "class Answer:\n    pass\n",
                "src/repro/snmp/agent.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.modeler.api import Answer\n"
                ),
            },
        )
        (v,) = vs
        assert "TYPE_CHECKING" in v.message

    def test_local_import_laundering_still_fires(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML101",
            {
                "src/repro/rps/sensor.py": (
                    "def tick():\n"
                    "    from repro.session import RemosSession\n"
                    "    return RemosSession\n"
                ),
                "src/repro/session.py": "class RemosSession:\n    pass\n",
            },
        )
        (v,) = vs
        assert "laundered through a local import" in v.message


class TestAsyncSafety:
    def test_transitive_blocking_call_found(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML102",
            {
                "src/repro/service/app.py": """
                    import time

                    from repro.service.util import work


                    async def handle():
                        return work()
                """,
                "src/repro/service/util.py": """
                    import time


                    def work():
                        time.sleep(0.1)
                        return 1
                """,
            },
        )
        (v,) = vs
        assert v.path == "src/repro/service/util.py"
        assert "time.sleep" in v.message and "handle" in v.message

    def test_awaited_coroutines_walked_as_their_own_entries(self, tmp_path):
        # the sleep inside the awaited coroutine is reported exactly
        # once (for the inner entry), not once per awaiting caller
        vs = run_rule(
            tmp_path,
            "RML102",
            {
                "src/repro/service/app.py": """
                    import time

                    from repro.service.inner import leaf


                    async def outer():
                        return await leaf()
                """,
                "src/repro/service/inner.py": """
                    import time


                    async def leaf():
                        time.sleep(1)
                """,
            },
        )
        (v,) = vs
        assert v.path == "src/repro/service/inner.py"

    def test_sim_stepping_attr_heuristic(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML102",
            {
                "src/repro/service/app.py": """
                    async def handle(engine):
                        engine.run_until(5.0)
                """,
            },
        )
        (v,) = vs
        assert "run_until" in v.message


class TestTransitiveClock:
    def test_entry_reaching_wall_clock_through_helper(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML103",
            {
                "src/repro/collectors/sweep.py": """
                    from repro.helpers import stamp


                    def collect():
                        return stamp()
                """,
                "src/repro/helpers.py": """
                    import time


                    def stamp():
                        return time.time()
                """,
            },
        )
        (v,) = vs
        # reported at the entry point's def line, naming the sink
        assert v.path == "src/repro/collectors/sweep.py"
        assert "time.time" in v.message and "collect" in v.message

    def test_obs_timebase_is_sanctioned(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML103",
            {
                "src/repro/collectors/sweep.py": """
                    from repro.obs.timebase import wall_now


                    def collect():
                        return wall_now()
                """,
                "src/repro/obs/timebase.py": """
                    import time


                    def wall_now():
                        return time.time()
                """,
            },
        )
        assert vs == []


class TestStatusFlow:
    # the callee reads a data field on a path that never consults
    # status, and the value doesn't escape (returning the answer — or a
    # field of it — would shift the obligation to *its* caller)
    FILES = {
        "src/repro/apps/report.py": """
            def plot(ans):
                rate = ans.available_bps
                print(rate)


            def run(session):
                ans = session.flow_info("a", "b")
                return plot(ans)
        """,
    }

    def test_unchecked_handoff_fires(self, tmp_path):
        vs = run_rule(tmp_path, "RML104", self.FILES)
        (v,) = vs
        assert v.path == "src/repro/apps/report.py"
        assert "plot" in v.message and "'ans'" in v.message

    def test_checking_in_caller_clears_it(self, tmp_path):
        files = {
            "src/repro/apps/report.py": """
                def plot(ans):
                    rate = ans.available_bps
                    print(rate)


                def run(session):
                    ans = session.flow_info("a", "b")
                    if not ans.ok:
                        return None
                    return plot(ans)
            """,
        }
        assert run_rule(tmp_path, "RML104", files) == []

    def test_checking_in_callee_clears_it(self, tmp_path):
        files = {
            "src/repro/apps/report.py": """
                def plot(ans):
                    if ans.degraded:
                        return None
                    rate = ans.available_bps
                    print(rate)


                def run(session):
                    ans = session.flow_info("a", "b")
                    return plot(ans)
            """,
        }
        assert run_rule(tmp_path, "RML104", files) == []

    def test_forwarding_chain_propagates(self, tmp_path):
        files = {
            "src/repro/apps/report.py": """
                def render(a):
                    rate = a.available_bps
                    print(rate)


                def plot(ans):
                    render(ans)


                def run(session):
                    ans = session.flow_info("a", "b")
                    return plot(ans)
            """,
        }
        (v,) = run_rule(tmp_path, "RML104", files)
        assert "plot" in v.message


class TestDeadExports:
    def test_unreferenced_public_function_fires(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML105",
            {
                "src/repro/util.py": """
                    def orphan():
                        return 1


                    def used():
                        return 2
                """,
                "tests/test_util.py": """
                    from repro.util import used


                    def test_used():
                        assert used() == 2
                """,
            },
        )
        (v,) = vs
        assert "'orphan'" in v.message

    def test_quoted_annotation_keeps_export_alive(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML105",
            {
                "src/repro/util.py": """
                    class Widget:
                        pass


                    def make(w: "Widget | None") -> int:
                        return 0
                """,
                "tests/test_util.py": """
                    from repro.util import make


                    def test_make():
                        assert make(None) == 0
                """,
            },
        )
        assert vs == []

    def test_init_reexport_does_not_count_as_use(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML105",
            {
                "src/repro/pkg/__init__.py": "from repro.pkg.mod import orphan\n",
                "src/repro/pkg/mod.py": "def orphan():\n    return 1\n",
            },
        )
        assert [v.message for v in vs if "orphan" in v.message]

    def test_pragma_suppresses(self, tmp_path):
        vs = run_rule(
            tmp_path,
            "RML105",
            {
                "src/repro/util.py": (
                    "def orphan():  # remoslint: disable=RML105\n"
                    "    return 1\n"
                ),
            },
        )
        assert vs == []


class TestProjectCli:
    def _layering_repo(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro"
        (pkg / "collectors").mkdir(parents=True)
        (pkg / "netsim").mkdir(parents=True)
        (pkg / "collectors" / "base.py").write_text("def poll():\n    return 1\n")
        (pkg / "netsim" / "probe.py").write_text(
            "from repro.collectors.base import poll\n"
        )
        return tmp_path

    def test_project_rules_run_in_the_one_mode(self, tmp_path, capsys):
        root = self._layering_repo(tmp_path)
        assert main(["--root", str(root)]) == 1
        hits = [line for line in capsys.readouterr().out.splitlines() if "RML101" in line]
        assert len(hits) == 1
        assert hits[0].startswith("src/repro/netsim/probe.py:1:1: RML101")
