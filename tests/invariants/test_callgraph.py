"""Unit tests for the module graph + approximate call graph.

These pin the resolution semantics the graph invariants lean on:
alias-aware import edges, ``self.method`` dispatch, class instantiation
landing on ``__init__``, callable-argument edges, and the
top/lazy/TYPE_CHECKING classification of imports.
"""

from __future__ import annotations

import textwrap

from .callgraph import CallGraph, module_name_for


def build(*files: tuple[str, str]) -> CallGraph:
    return CallGraph.of({rel: textwrap.dedent(src) for rel, src in files})


def callees(graph: CallGraph, qname: str) -> set[str]:
    return {e.callee for e in graph.edges_from(qname) if e.callee}


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/snmp/client.py") == "repro.snmp.client"

    def test_init_collapses_to_package(self):
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_tests_tree_gets_stable_ids(self):
        assert module_name_for("tests/obs/test_export.py") == "tests.obs.test_export"

    def test_non_python_rejected(self):
        assert module_name_for("src/repro/py.typed") is None


class TestCallResolution:
    def test_self_method_resolves_to_enclosing_class(self):
        g = build(
            (
                "src/repro/a.py",
                """
                class C:
                    def f(self):
                        return self.g()

                    def g(self):
                        return 1
                """,
            )
        )
        assert callees(g, "repro.a.C.f") == {"repro.a.C.g"}

    def test_module_alias_attribute_call(self):
        g = build(
            ("src/repro/b.py", "def helper():\n    return 1\n"),
            (
                "src/repro/a.py",
                """
                import repro.b as bb

                def run():
                    return bb.helper()
                """,
            ),
        )
        assert callees(g, "repro.a.run") == {"repro.b.helper"}

    def test_from_import_as(self):
        g = build(
            ("src/repro/b.py", "def helper():\n    return 1\n"),
            (
                "src/repro/a.py",
                """
                from repro.b import helper as h

                def run():
                    return h()
                """,
            ),
        )
        assert callees(g, "repro.a.run") == {"repro.b.helper"}

    def test_instantiation_lands_on_init(self):
        g = build(
            (
                "src/repro/a.py",
                """
                class C:
                    def __init__(self):
                        self.x = 1

                def make():
                    return C()
                """,
            )
        )
        assert callees(g, "repro.a.make") == {"repro.a.C.__init__"}

    def test_external_call_keeps_canonical_path(self):
        g = build(
            (
                "src/repro/a.py",
                """
                import time

                def nap():
                    time.sleep(1)
                """,
            )
        )
        (edge,) = g.edges_from("repro.a.nap")
        assert edge.external == "time.sleep" and edge.callee is None

    def test_opaque_receiver_records_trailing_attr(self):
        g = build(
            (
                "src/repro/a.py",
                """
                def step(engine):
                    engine.run_until(5.0)
                """,
            )
        )
        (edge,) = g.edges_from("repro.a.step")
        assert edge.attr == "run_until" and edge.callee is None

    def test_callable_argument_edge_is_flagged(self):
        g = build(
            (
                "src/repro/a.py",
                """
                def job():
                    return 1

                def retry(fn):
                    return fn()

                def run():
                    return retry(job)
                """,
            )
        )
        arg_edges = [e for e in g.edges_from("repro.a.run") if e.via_argument]
        assert [e.callee for e in arg_edges] == ["repro.a.job"]
        # the direct call edge to retry is there too
        assert "repro.a.retry" in callees(g, "repro.a.run")

    def test_module_body_calls_tracked_separately(self):
        g = build(
            (
                "src/repro/a.py",
                """
                def setup():
                    return 1

                VALUE = setup()
                """,
            )
        )
        assert callees(g, "repro.a.<module>") == {"repro.a.setup"}

    def test_local_shadow_beats_import(self):
        # a local def named like an imported member wins lexically
        g = build(
            ("src/repro/b.py", "def helper():\n    return 1\n"),
            (
                "src/repro/a.py",
                """
                from repro.b import helper

                def run():
                    def helper():
                        return 2
                    return helper()
                """,
            ),
        )
        assert callees(g, "repro.a.run") == {"repro.a.run.helper"}


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
    assert CallGraph.of(tree) is CallGraph.of(dict(tree))
