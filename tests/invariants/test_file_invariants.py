"""Per-file invariants of the shipped package.

* **Seeded RNGs** (``src/repro`` but ``common/rng.py``): no
  module-level ``random.*`` / ``numpy.random.*`` draw and no unseeded
  generator; runs are reproducible only when every stochastic component
  draws from a generator threaded through ``repro.common.rng.make_rng``.
* **No blind excepts** (collectors, snmp, ``faults.py``): a bare
  ``except:`` also catches ``KeyboardInterrupt``, and an ``except
  Exception`` that only passes hides a collector bug behind the
  graceful-degradation machinery.  A handler that logs, re-raises or
  does real work is deliberate containment and is fine.
* **OIDs named once** (``src/repro`` but ``snmp/oid.py``): a raw
  dotted-OID string re-scatters the numbers ``repro.snmp.oid`` exists
  to hold.  Five or more numeric components count, or four starting
  ``1.3.6.``; IPv4 addresses and version strings never do.

Each check is a function over a ``{path: source}`` mapping returning
``path:line: reason`` for every breach: the committed tree gives an
empty list, and each planted case is one more input to the same
function.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Mapping

import pytest

from .modulegraph import ModuleGraph, planted, under

#: constructors that are fine *with* a seed argument, banned without one
SEEDABLE = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
}
#: names under ``random.`` / ``numpy.random.`` that are not draws
NOT_DRAWS = {
    "Random", "SystemRandom", "default_rng", "RandomState", "Generator",
    "BitGenerator", "SeedSequence", "PCG64", "Philox",
}
_DOTTED = re.compile(r"^\.?\d+(\.\d+)+$")


def seeded_rng(sources: Mapping[str, str]) -> list[str]:
    found = []
    for info in ModuleGraph.of(sources).modules.values():
        if not under(info.path, ("src/repro",)) or info.path == "src/repro/common/rng.py":
            continue
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = info.import_map.resolve(node.func)
            if name is None:
                continue
            if name in SEEDABLE:
                if not node.args and not node.keywords:
                    found.append(f"{info.path}:{node.lineno}: unseeded {name}()")
            elif name.startswith(("random.", "numpy.random.")):
                if name.rsplit(".", 1)[-1] not in NOT_DRAWS:
                    found.append(f"{info.path}:{node.lineno}: {name}() draws from global state")
    return found


def _only_swallows(body: list[ast.stmt]) -> bool:
    """True when a handler has no observable effect."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / `...`
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


def blind_excepts(sources: Mapping[str, str]) -> list[str]:
    scope = ("src/repro/collectors", "src/repro/snmp", "src/repro/faults.py")
    found = []
    for info in ModuleGraph.of(sources).modules.values():
        if not under(info.path, scope):
            continue
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                found.append(f"{info.path}:{node.lineno}: bare 'except:'")
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            broad = any(
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                for t in types
            )
            if broad and _only_swallows(node.body):
                found.append(f"{info.path}:{node.lineno}: 'except Exception' that only swallows")
    return found


def _looks_like_oid(text: str) -> bool:
    if not _DOTTED.match(text):
        return False
    n_components = text.strip(".").count(".") + 1
    return n_components >= 5 or (n_components == 4 and text.lstrip(".").startswith("1.3.6."))


def oid_literals(sources: Mapping[str, str]) -> list[str]:
    found = []
    for info in ModuleGraph.of(sources).modules.values():
        if not under(info.path, ("src/repro",)) or info.path == "src/repro/snmp/oid.py":
            continue
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _looks_like_oid(node.value)
            ):
                found.append(f"{info.path}:{node.lineno}: raw OID {node.value!r}")
    return found


@pytest.mark.parametrize("check", [seeded_rng, blind_excepts, oid_literals])
def test_the_committed_tree_holds(tree, check):
    assert check(tree) == []


def sites(check, path: str, source: str) -> list[str]:
    """``path:line`` of each breach ``check`` finds in one planted file."""
    return [site for site, _ in planted(check, {path: source})]


NETSIM = "src/repro/netsim/traffic2.py"


@pytest.mark.parametrize("path, source, lines", [
    pytest.param(NETSIM, """
        import random

        def jitter():
            return random.random()
        """, [5], id="module_level_random_flagged"),
    pytest.param(NETSIM, """
        import random
        import numpy as np

        r1 = random.Random()
        r2 = np.random.default_rng()
        """, [5, 6], id="unseeded_constructors_flagged"),
    pytest.param(NETSIM, """
        import random
        import numpy as np

        r1 = random.Random(42)
        r2 = np.random.default_rng(7)

        def gen(rng: np.random.Generator) -> float:
            return rng.random()
        """, [], id="seeded_constructors_sanctioned"),
    pytest.param("src/repro/common/rng.py", """
        import numpy as np
        r = np.random.default_rng()
        """, [], id="rng_module_exempt"),
    pytest.param(NETSIM, """
        from repro.common.rng import make_rng

        random = make_rng(0)
        x = random.random()
        """, [], id="local_variable_named_random_not_flagged"),
])
def test_seeded_rng(path, source, lines):
    assert sites(seeded_rng, path, source) == [f"{path}:{n}" for n in lines]


COLLECTOR = "src/repro/collectors/somefile.py"


@pytest.mark.parametrize("path, source, lines", [
    pytest.param(COLLECTOR, """
        def poll(agent):
            try:
                return agent.get()
            except:
                return None
        """, [5], id="bare_except_flagged"),
    pytest.param(COLLECTOR, """
        def poll(agent):
            try:
                return agent.get()
            except Exception:
                pass
        """, [5], id="blind_except_exception_flagged"),
    pytest.param(COLLECTOR, """
        def poll(agent, log):
            try:
                return agent.get()
            except Exception as exc:
                log.warning("agent failed: %r", exc)
                return None
        """, [], id="containment_with_logging_sanctioned"),
    pytest.param(COLLECTOR, """
        from repro.common.errors import SnmpError

        def poll(agent):
            try:
                return agent.get()
            except SnmpError:
                return None
        """, [], id="narrow_except_sanctioned"),
    pytest.param("src/repro/rps/fit.py", """
        try:
            pass
        except Exception:
            pass
        """, [], id="out_of_scope_layer_ignored"),
])
def test_blind_excepts(path, source, lines):
    assert sites(blind_excepts, path, source) == [f"{path}:{n}" for n in lines]


SNMP_COLLECTOR = "src/repro/collectors/snmp_collector.py"


@pytest.mark.parametrize("path, source, lines", [
    pytest.param(SNMP_COLLECTOR, 'TARGET = "1.3.6.1.2.1.2.2.1.10"\n', [1], id="raw_oid_flagged"),
    pytest.param("src/repro/snmp/oid.py", 'MIB2 = "1.3.6.1.2.1"\n', [], id="oid_module_exempt"),
    pytest.param(
        SNMP_COLLECTOR, 'ip = "10.0.0.1"\nversion = "1.2.3"\nnet = "192.168.1.0"\n', [],
        id="ip_and_version_strings_sanctioned",
    ),
    # the classifier: five components, or four under 1.3.6.
    *(
        pytest.param(SNMP_COLLECTOR, f"X = {text!r}\n", lines, id=f"classifier-{text}")
        for text, lines in [
            ("1.3.6.1.99", [1]),
            ("1.3.6.1.2.1.2.2.1.10.3", [1]),
            (".1.3.6.4", [1]),
            ("10.0.0.1", []),
            ("1.2.3", []),
            ("hello", []),
        ]
    ),
])
def test_oid_literals(path, source, lines):
    assert sites(oid_literals, path, source) == [f"{path}:{n}" for n in lines]
