"""The import-layering contract: every import in ``src/repro`` points
down the layer cake; and the system under measurement never asks the
simulator for ground truth.

The simulated network is at the bottom, SNMP on top of it, collectors
above that, the modeler above the collectors, prediction above the
modeler, and the session/service plane on top.  An import pointing *up*
(a collector importing the predictor) inverts the dependency the
architecture promises and tends to rot into a cycle held together by
lazy imports.  An import laundered through ``if TYPE_CHECKING:`` or a
function body still counts: the cycle it hides is real at type-check
or call time.

``FlowManager.what_if`` reads the simulated network's true max-min
rates.  Tests and benchmarks hold the representation to it; a Modeler,
collector, service, session or predictor that called it would answer
from outside the system it stands for, and every accuracy figure
measured against it would read perfect.  The rule scans for the
attribute itself, so a ``.what_if`` that is stored and called later is
found as well as a direct call.

One wall-clock read in a collector decouples a run from its seed, so
under ``src/repro`` only ``repro.obs`` imports ``time`` or ``datetime``,
in any form: durations go through ``obs.wall_now()`` and behaviour reads
the Engine clock.  With the layer DAG, no simulation layer can reach a
clock read outside ``repro.obs``.

Module-to-layer assignment is longest-prefix-wins, so the bare
``"repro"`` prefix of the top layer is the fallback: a module nobody
placed lands at the top, where importing it from below fails until
someone places it deliberately.
"""

from __future__ import annotations

import ast
from collections.abc import Mapping

import pytest

from .modulegraph import ModuleGraph, in_package, planted, under

#: layer names, rank 0 (the foundation) upward
ORDER = [
    "foundation", "netsim", "snmp", "graph",
    "collectors", "modeler", "rps", "session", "entry",
]
#: layer name -> the module prefixes it holds; ``repro.modeler.graph``
#: (the shared topology vocabulary) sits below the collectors that
#: serialize graphs, the rest of ``repro.modeler`` above them
ASSIGN = {
    "foundation": ["repro.common", "repro.obs"],
    "netsim": ["repro.netsim", "repro.faults"],
    "snmp": ["repro.snmp"],
    "graph": ["repro.modeler.graph"],
    "collectors": ["repro.collectors"],
    "modeler": ["repro.modeler"],
    "rps": ["repro.rps"],
    "session": ["repro.session", "repro.service", "repro.apps"],
    "entry": ["repro"],
}
#: (prefix, layer), longest prefix first
_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in ASSIGN.items() for prefix in prefixes),
    key=lambda t: -len(t[0]),
)
_LAUNDERED = {"lazy": " through a local import", "type_checking": " through TYPE_CHECKING"}


def _layer(module: str) -> str | None:
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def upward_imports(sources: Mapping[str, str]) -> list[str]:
    graph = ModuleGraph.of(sources)
    found = []
    for info in graph.modules.values():
        layer = _layer(info.name)
        if layer is None:
            continue
        for imp in info.imports:
            # `from repro.session import RemosSession` names a member:
            # its layer is that of the module defining it
            target = graph.module_of(imp.target)
            t_layer = _layer(target) if target is not None else None
            if t_layer is not None and ORDER.index(t_layer) > ORDER.index(layer):
                found.append(
                    f"{info.path}:{imp.lineno}: {info.name} ({layer}) imports "
                    f"{target} ({t_layer}, above it){_LAUNDERED.get(imp.kind, '')}"
                )
    return found


def test_the_committed_tree_holds(tree):
    assert upward_imports(tree) == []


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({
        "src/repro/collectors/base.py": "def poll():\n    return 1\n",
        "src/repro/netsim/probe.py": "from repro.collectors.base import poll\n",
    }, ["src/repro/netsim/probe.py:1"], "(netsim) imports repro.collectors.base (collectors",
        id="upward_import_fires"),
    pytest.param({
        "src/repro/netsim/topology.py": "X = 1\n",
        "src/repro/collectors/base.py": (
            "from repro.netsim.topology import X\n"
            "from repro.collectors import helper\n"
        ),
        "src/repro/collectors/helper.py": "Y = 2\n",
    }, [], "", id="downward_and_same_layer_imports_clean"),
    pytest.param({
        "src/repro/modeler/api.py": "class Answer:\n    pass\n",
        "src/repro/snmp/agent.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.modeler.api import Answer\n"
        ),
    }, ["src/repro/snmp/agent.py:3"], "through TYPE_CHECKING",
        id="type_checking_laundering_still_fires"),
    pytest.param({
        "src/repro/rps/sensor.py": (
            "def tick():\n"
            "    from repro.session import RemosSession\n"
            "    return RemosSession\n"
        ),
        "src/repro/session.py": "class RemosSession:\n    pass\n",
    }, ["src/repro/rps/sensor.py:2"], "through a local import",
        id="local_import_laundering_still_fires"),
])
def test_upward_imports(files, sites, words):
    found = planted(upward_imports, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)


#: stdlib modules that read a process clock
CLOCK_MODULES = ("time", "datetime")


def clock_imports(sources: Mapping[str, str]) -> list[str]:
    graph = ModuleGraph.of(sources)
    return [
        f"{info.path}:{imp.lineno}: {info.name} imports {imp.target}"
        f"{_LAUNDERED.get(imp.kind, '')}; read clocks through repro.obs"
        for info in graph.modules.values()
        if in_package(info.name, "repro") and not in_package(info.name, "repro.obs")
        for imp in info.imports
        if imp.target.partition(".")[0] in CLOCK_MODULES
    ]


def test_only_obs_imports_a_clock(tree):
    assert clock_imports(tree) == []


C = "src/repro/collectors/c.py"


@pytest.mark.parametrize("files, sites, words", [
    pytest.param({C: "import time\nT0 = time.time()\n"}, [f"{C}:1"], "imports time;",
                 id="top_level_import_fires"),
    pytest.param({C: "import time\n\ndef poll():\n    return time.time()\n"}, [f"{C}:1"],
                 "imports time;", id="call_in_a_function_fires"),
    pytest.param({C: "import time as t\nCLOCK = t.monotonic\n"}, [f"{C}:1"], "imports time;",
                 id="aliased_import_fires"),
    pytest.param({C: "from time import perf_counter\n"}, [f"{C}:1"], "time.perf_counter",
                 id="from_import_fires"),
    pytest.param({C: "def retry():\n    import time\n    return time.monotonic()\n"},
                 [f"{C}:2"], "through a local import", id="function_local_import_fires"),
    pytest.param({C: "from datetime import datetime\n"}, [f"{C}:1"], "datetime.datetime",
                 id="datetime_import_fires"),
    pytest.param({C: "from repro import obs\n\n"
                     "def poll(net):\n    return net.engine.now, obs.wall_now()\n"},
                 [], "", id="wall_now_and_engine_clock_clean"),
    # a helper outside the simulation layers is no way round
    pytest.param({C: "from repro.helpers import stamp\n", "src/repro/helpers.py": "import time\n"},
                 ["src/repro/helpers.py:1"], "repro.helpers imports", id="helper_import_fires"),
    pytest.param({"src/repro/obs/timebase.py": "import time\n", "tests/t.py": "import time\n",
                  "benchmarks/b.py": "import datetime\n"}, [], "", id="obs_tests_benchmarks_clean"),
])
def test_clock_imports(files, sites, words):
    found = planted(clock_imports, files)
    assert [site for site, _ in found] == sites
    assert all(words in reason for _, reason in found)


#: files and packages that must not call ``what_if``: the Remos system
#: the simulator stands under
NO_GROUND_TRUTH = (
    "src/repro/modeler",
    "src/repro/collectors",
    "src/repro/service",
    "src/repro/session.py",
    "src/repro/rps",
)


def ground_truth_calls(sources: Mapping[str, str]) -> list[str]:
    return [
        f"{info.path}:{node.lineno}: {info.name} reads .what_if, the simulator's ground truth"
        for info in ModuleGraph.of(sources).modules.values()
        if under(info.path, NO_GROUND_TRUTH)
        for node in ast.walk(info.tree)
        if isinstance(node, ast.Attribute) and node.attr == "what_if"
    ]


def test_the_system_never_asks_for_ground_truth(tree):
    assert ground_truth_calls(tree) == []


_FLOWS = (
    "class FlowManager:\n"
    "    def what_if(self, pairs):\n"
    "        return []\n"
)


@pytest.mark.parametrize("files, sites", [
    pytest.param({
        "src/repro/netsim/flows.py": _FLOWS,
        "src/repro/collectors/cheat.py": (
            "def measure(net, a, b):\n"
            "    return net.flows.what_if([(a, b)])[0]\n"
        ),
        "src/repro/session.py": (
            "def answer(self, pairs):\n"
            "    return self.net.flows.what_if(pairs)\n"
        ),
    }, ["src/repro/collectors/cheat.py:2", "src/repro/session.py:2"], id="system_call_fires"),
    pytest.param({
        "src/repro/netsim/flows.py": _FLOWS,
        "tests/netsim/test_truth.py": (
            "def test_truth(net):\n"
            "    assert net.flows.what_if([]) == []\n"
        ),
        "benchmarks/accuracy.py": "RATES = NET.flows.what_if(PAIRS)\n",
        "src/repro/collectors/fine.py": "def poll(net):\n    return net.flows.flows_on()\n",
    }, [], id="tests_benchmarks_and_other_calls_clean"),
])
def test_ground_truth_calls(files, sites):
    found = planted(ground_truth_calls, files)
    assert [site for site, _ in found] == sites
