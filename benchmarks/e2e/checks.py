"""The correctness gate: every answer a workload receives passes through here.

Three kinds of check, all counted into ``failed`` (and so into the exit
code):

* invariants on each answer — an ``OK`` flow answer offers more than
  nothing and no more than the smaller access link of its two sites, a
  topology answer resolves every host, a shed answer is ``STALE`` with
  a finite non-negative age;
* the twin check — a fresh server and a fresh in-process session built
  from the same recipe and driven with the same sequence give
  byte-identical canonical JSON (modulo ``trace_id``);
* the transport itself — non-200 responses and error envelopes.

``corrupt`` is the harness's own fault hook: it spoils the first answer
of every segment *before* it is checked, to prove the gate can fail.
"""

from __future__ import annotations

import json
import math
from typing import Any

import recipe
from repro.service.wire import canonical_json, result_body


class Gate:
    """Tallies verdicts for one segment at a time."""

    def __init__(self, corrupt: bool = False) -> None:
        self.corrupt = corrupt
        self._spoil_next = False
        self.failed = 0
        self.degraded = 0

    def begin_segment(self) -> None:
        self._spoil_next = self.corrupt
        self.failed = 0
        self.degraded = 0

    def flow(
        self, status: str, available_bps: float, src: str, dst: str, caps: dict[str, float]
    ) -> None:
        if self._spoil_next:
            self._spoil_next = False
            available_bps = -1.0
        if status == "failed":
            self.failed += 1
        elif status != "ok":
            self.degraded += 1
        elif not 0.0 < available_bps <= min(caps[src], caps[dst]):
            self.failed += 1

    def topology(self, status: str, unresolved: Any) -> None:
        if self._spoil_next:
            self._spoil_next = False
            unresolved = ["spoiled"]
        if status == "failed" or list(unresolved):
            self.failed += 1
        elif status != "ok":
            self.degraded += 1

    def envelope(self, env: dict[str, Any], caps: dict[str, float]) -> None:
        """One wire response envelope carrying a flow or topology answer."""
        result = env.get("result")
        if not env.get("ok") or not isinstance(result, dict):
            self.failed += 1
            return
        if env.get("served") == "shed_lkg":
            age = result.get("data_age_s")
            stale = result.get("status") == "stale"
            if not (stale and isinstance(age, float) and math.isfinite(age) and age >= 0.0):
                self.failed += 1
                return
        if result.get("kind") == "flow":
            self.flow(
                result["status"], result["available_bps"], result["src"], result["dst"], caps
            )
        elif result.get("kind") == "topology":
            self.topology(result["status"], result["unresolved"])
        else:
            self.failed += 1

    def http_bodies(self, bodies: list[bytes], caps: dict[str, float]) -> None:
        for raw in bodies:
            try:
                env = json.loads(raw)
            except ValueError:
                self.failed += 1
                continue
            self.envelope(env, caps)


def _without_trace_id(raw: str | bytes) -> str:
    env = json.loads(raw)
    if isinstance(env.get("result"), dict):
        env["result"]["trace_id"] = None
    return canonical_json(env)


def twin_mismatches(
    n_sites: int, endpoint: str, bodies: list[dict[str, Any]], served: list[bytes]
) -> int:
    """Responses of a fresh server that differ from a fresh twin session's.

    ``served[i]`` is what the server answered to ``bodies[i]``, asked in
    that order on one connection right after boot; the twin is asked the
    same sequence, so both meet the same cache misses at the same
    simulated instants.
    """
    session = recipe.deploy(recipe.multisite_world(n_sites)).session()
    if len(served) != len(bodies):
        return max(len(served), len(bodies))
    bad = 0
    for body, raw in zip(bodies, served):
        if endpoint == "flow_info":
            ans = session.flow_info(body["src"], body["dst"])
        else:
            ans = session.topology(body["hosts"], detail=body["detail"])
        expect = canonical_json(result_body(ans.to_dict(), served="live"))
        try:
            same = _without_trace_id(raw) == _without_trace_id(expect)
        except ValueError:
            same = False
        bad += not same
    return bad
