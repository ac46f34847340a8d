"""Unit tests for the module graph (``modulegraph.py``).

These pin what the layer and clock rules lean on: module names for
repo paths, relative imports resolved against their package, and the
top/lazy/TYPE_CHECKING classification of imports.
"""

from __future__ import annotations

import textwrap

from .modulegraph import ModuleGraph, module_name_for


def build(*files: tuple[str, str]) -> ModuleGraph:
    return ModuleGraph.of({rel: textwrap.dedent(src) for rel, src in files})


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/snmp/client.py") == "repro.snmp.client"

    def test_init_collapses_to_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_tests_tree_gets_stable_ids(self):
        assert module_name_for("tests/obs/test_export.py") == "tests.obs.test_export"

    def test_non_python_rejected(self):
        assert module_name_for("src/repro/py.typed") is None


class TestImportRecords:
    def test_kinds_top_lazy_type_checking(self):
        g = build(
            (
                "src/repro/a.py",
                """
                from typing import TYPE_CHECKING

                import repro.b

                if TYPE_CHECKING:
                    from repro.c import Thing

                def run():
                    from repro import d
                    return d
                """,
            )
        )
        kinds = {
            rec.target: rec.kind for rec in g.modules["repro.a"].imports
        }
        assert kinds["repro.b"] == "top"
        assert kinds["repro.c.Thing"] == "type_checking"
        assert kinds["repro.d"] == "lazy"

    def test_relative_import_resolved_against_package(self):
        g = build(
            (
                "src/repro/pkg/__init__.py",
                "from .mod import thing\n",
            ),
            (
                "src/repro/pkg/mod.py",
                "thing = 1\n",
            ),
        )
        targets = {rec.target for rec in g.modules["repro.pkg"].imports}
        assert "repro.pkg.mod.thing" in targets


def test_a_tree_is_parsed_once_however_many_checks_read_it(tree):
    assert ModuleGraph.of(tree) is ModuleGraph.of(dict(tree))
