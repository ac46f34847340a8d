"""Smoke test for the end-to-end benchmark (not part of tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs the harness the way a person would, at ``--quick`` size, and holds
it to its own declaration: the names it prints are the names
``BENCHMARK.json`` declares, the contract line has the contract's keys,
and a spoiled answer turns the exit code non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run(*flags: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *flags],
        capture_output=True, text=True, timeout=170,
    )


def test_quick_run_prints_exactly_the_declared_names():
    done = run("--seed", "5", "--quick", "--traced")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    printed: dict[str, set[str]] = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, block, name = line.split()[:3]
            printed.setdefault(block, set()).add(name)
    declared = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    probed = printed.pop("probes")
    assert set(printed) == {w["name"] for w in BENCH["workloads"]}
    for workload, names in printed.items():
        assert names | probed == declared, (workload, (names | probed) ^ declared)
        assert not names & probed


def test_contract_line_has_the_contract_keys():
    done = run("--workload", "direct_overload_shed", "--seed", "5", "--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spoiled_answer_fails_the_run():
    done = run("--workload", "session_cold_discovery", "--seed", "5", "--quick", "--corrupt")
    assert done.returncode != 0
    assert "FAILED" in done.stdout
