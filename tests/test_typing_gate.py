"""The strict-typing gate, testable without mypy installed.

CI runs real mypy over the strict allowlist (``[tool.mypy]`` overrides
in pyproject).  The container running the unit tests may not have mypy,
so this module enforces the cheap, high-value half of the contract with
the stdlib ``ast``: every function in the strict modules carries full
parameter and return annotations (mypy's ``disallow_untyped_defs`` /
``disallow_incomplete_defs``).  When mypy *is* importable, a final test
runs it for real.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: must mirror the module= list of the strict [[tool.mypy.overrides]]
STRICT_FILES = (
    sorted((REPO_ROOT / "src" / "repro" / "common").rglob("*.py"))
    + [
        REPO_ROOT / "src" / "repro" / "apps" / "mirror.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "base.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "benchmark_collector.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "bridge_collector.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "directory.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "discovery.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "master.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "monitor.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "persistence.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "protocol.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "protocol_xml.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "sharding.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "slp.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "snmp_collector.py",
        REPO_ROOT / "src" / "repro" / "collectors" / "wireless_collector.py",
        REPO_ROOT / "src" / "repro" / "deploy.py",
        REPO_ROOT / "src" / "repro" / "faults.py",
        REPO_ROOT / "src" / "repro" / "inspect.py",
        REPO_ROOT / "src" / "repro" / "modeler" / "api.py",
        REPO_ROOT / "src" / "repro" / "modeler" / "graph.py",
        REPO_ROOT / "src" / "repro" / "modeler" / "maxmin.py",
        REPO_ROOT / "src" / "repro" / "modeler" / "planner.py",
        REPO_ROOT / "src" / "repro" / "modeler" / "simplify.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "address.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "agents.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "bridging.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "builders.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "engine.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "failures.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "flows.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "mobility.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "paths.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "routing.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "spec.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "topology.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "traffic.py",
        REPO_ROOT / "src" / "repro" / "netsim" / "wireless.py",
        REPO_ROOT / "src" / "repro" / "rps" / "streaming.py",
        REPO_ROOT / "src" / "repro" / "session.py",
        REPO_ROOT / "src" / "repro" / "snmp" / "agent.py",
        REPO_ROOT / "src" / "repro" / "snmp" / "client.py",
        REPO_ROOT / "src" / "repro" / "snmp" / "mib.py",
        REPO_ROOT / "src" / "repro" / "snmp" / "oid.py",
    ]
    + sorted((REPO_ROOT / "src" / "repro" / "obs").rglob("*.py"))
    + sorted((REPO_ROOT / "src" / "repro" / "service").rglob("*.py"))
)

STRICT_MODULES = [
    "repro.apps.mirror",
    "repro.common",
    "repro.common.errors",
    "repro.common.graphwalk",
    "repro.common.rng",
    "repro.common.status",
    "repro.common.units",
    "repro.collectors.base",
    "repro.collectors.benchmark_collector",
    "repro.collectors.bridge_collector",
    "repro.collectors.directory",
    "repro.collectors.discovery",
    "repro.collectors.master",
    "repro.collectors.monitor",
    "repro.collectors.persistence",
    "repro.collectors.protocol",
    "repro.collectors.protocol_xml",
    "repro.collectors.sharding",
    "repro.collectors.slp",
    "repro.collectors.snmp_collector",
    "repro.collectors.wireless_collector",
    "repro.deploy",
    "repro.faults",
    "repro.inspect",
    "repro.modeler.api",
    "repro.modeler.graph",
    "repro.modeler.maxmin",
    "repro.modeler.planner",
    "repro.modeler.simplify",
    "repro.netsim.address",
    "repro.netsim.agents",
    "repro.netsim.bridging",
    "repro.netsim.builders",
    "repro.netsim.engine",
    "repro.netsim.failures",
    "repro.netsim.flows",
    "repro.netsim.mobility",
    "repro.netsim.paths",
    "repro.netsim.routing",
    "repro.netsim.spec",
    "repro.netsim.topology",
    "repro.netsim.traffic",
    "repro.netsim.wireless",
    "repro.service",
    "repro.service.admission",
    "repro.service.app",
    "repro.service.breaker",
    "repro.service.client",
    "repro.service.http",
    "repro.service.ratelimit",
    "repro.service.subs",
    "repro.service.wire",
    "repro.session",
    "repro.snmp.agent",
    "repro.snmp.client",
    "repro.snmp.mib",
    "repro.snmp.oid",
    "repro.obs",
    "repro.obs.catalog",
    "repro.obs.export",
    "repro.obs.flightrec",
    "repro.obs.log",
    "repro.obs.metrics",
    "repro.obs.registry",
    "repro.obs.timebase",
    "repro.obs.traceview",
    "repro.obs.tracing",
    "repro.rps.streaming",
]


def iter_untyped_defs(tree: ast.Module, filename: str):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        where = f"{filename}:{node.lineno} def {node.name}"
        if node.returns is None:
            yield f"{where}: missing return annotation"
        args = node.args
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional + args.kwonlyargs):
            if i == 0 and a.arg in ("self", "cls"):
                continue
            if a.annotation is None:
                yield f"{where}: parameter {a.arg!r} unannotated"
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                yield f"{where}: parameter *{star.arg} unannotated"


def test_strict_modules_have_complete_annotations():
    assert STRICT_FILES, "strict allowlist resolved to no files"
    problems: list[str] = []
    for f in STRICT_FILES:
        tree = ast.parse(f.read_text())
        problems.extend(iter_untyped_defs(tree, f.relative_to(REPO_ROOT).as_posix()))
    assert problems == [], "\n".join(problems)


def test_pyproject_strict_allowlist_matches_this_test():
    """The [[tool.mypy.overrides]] module list and STRICT_MODULES must
    not drift apart, or CI and the local gate would check different
    code."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    for mod in STRICT_MODULES:
        assert f'"{mod}"' in text, f"{mod} missing from [[tool.mypy.overrides]]"


def test_mypy_strict_allowlist_passes():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy not installed in this environment (CI runs it)")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"] + [str(f) for f in STRICT_FILES],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
