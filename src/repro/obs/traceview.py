"""Trace analysis and rendering: span trees, attribution, exports.

Everything here operates on *span dicts* — the JSON shape emitted by
:func:`repro.obs.export.snapshot` (``snapshot(reg)["spans"]``) and by
flight-recorder dumps — so the same code serves the ``repro trace``
CLI, the flight recorder's breakdown, the end-to-end benchmark's layer
shares, and offline analysis of a saved snapshot.  Live
:class:`~repro.obs.tracing.SpanRecord` objects are converted with
:func:`record_to_dict`.

The three consumers:

* :func:`span_tree` — reconstruct the causal tree from explicit
  ``parent_id`` links (never from names, depths, or timestamps, which
  are ambiguous under ``Engine.overlap``; see ``repro.obs.tracing``).
* :func:`time_by_layer` / :func:`time_by_site` /
  :func:`retry_timeout_counts` — latency attribution: where did an
  answer's time go?  Layer attribution uses *self time* (a span's
  duration minus its children's) so nested layers never double-count;
  site attribution keys on the ``site`` label the Master stamps on
  each fragment delegation.
* :func:`waterfall_lines` and :func:`to_chrome_trace` — a text
  waterfall for terminals, and Chrome trace-event JSON (load it at
  ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.obs.tracing import SpanRecord

#: one exported span, as in snapshot()["spans"] (plus "children" once
#: assembled into a tree)
SpanDict = dict[str, object]

#: span-name prefixes mapped to attribution layers, longest match wins
LAYER_PREFIXES: tuple[str, ...] = (
    "session",
    "modeler",
    "collectors.master",
    "collectors.snmp",
    "collectors",
    "snmp.client",
    "snmp",
    "netsim",
    "rps",
)


def record_to_dict(s: SpanRecord, open_at: float | None = None) -> SpanDict:
    """A SpanRecord in the exported-snapshot span shape.

    A span still open (entered, not yet exited) has no ``end_s`` or
    ``wall_s``: pass ``open_at`` to close it at that instant, with no
    wall time and an ``"open": True`` marker, so the tree renders.
    """
    if open_at is None:
        dur, wall = s.duration_s, s.wall_s
    else:
        dur, wall = max(0.0, open_at - s.start_s), 0.0
    out: SpanDict = {
        "name": s.name,
        "labels": dict(s.labels),
        "start_s": s.start_s,
        "duration_s": dur if math.isfinite(dur) else None,
        "wall_s": wall,
        "trace_id": s.trace_id,
        "span_id": s.span_id,
        "parent_id": s.parent_id,
    }
    if open_at is not None:
        out["open"] = True
    return out


def normalize_spans(obj: object) -> list[SpanDict]:
    """Find the span list inside any of the shapes we emit.

    Accepts a bare span list, a registry snapshot (``{"spans": ...}``),
    a flight-recorder dump (same key), or a document that nests a
    snapshot under ``obs`` (``{"obs": {"spans": ...}}``).
    """
    if isinstance(obj, list):
        return [dict(s) for s in obj]
    if isinstance(obj, dict):
        if isinstance(obj.get("spans"), list):
            return [dict(s) for s in obj["spans"]]
        obs_part = obj.get("obs")
        if isinstance(obs_part, dict) and isinstance(obs_part.get("spans"), list):
            return [dict(s) for s in obs_part["spans"]]
    raise ValueError("no span list found (expected snapshot, dump, or BENCH json)")


def _dur(span: Mapping[str, object]) -> float:
    v = span.get("duration_s")
    return float(v) if isinstance(v, (int, float)) else 0.0


def _start(span: Mapping[str, object]) -> float:
    v = span.get("start_s")
    return float(v) if isinstance(v, (int, float)) else 0.0


def _sort_key(span: Mapping[str, object]) -> tuple[float, str]:
    # span ids are ints; zero-pad so the string tiebreak sorts them
    # numerically (and still tolerates ad-hoc string ids in hand-made
    # fixtures)
    sid = span.get("span_id")
    return (_start(span), f"{sid:012d}" if isinstance(sid, int) else str(sid or ""))


def span_tree(spans: Iterable[SpanDict]) -> list[SpanDict]:
    """Assemble the causal tree from explicit parent_id links.

    Returns the roots, each a *copy* of its span dict with a
    ``children`` list (recursively), ordered by (start, span_id).
    Spans whose parent was evicted from the bounded ring become roots
    themselves, so a truncated recording still renders.
    """
    nodes: dict[str, SpanDict] = {}
    ordered: list[SpanDict] = []
    for s in spans:
        node = dict(s)
        node["children"] = []
        sid = str(s.get("span_id") or "")
        if sid:
            nodes[sid] = node
        ordered.append(node)
    roots: list[SpanDict] = []
    for node in ordered:
        pid = node.get("parent_id")
        parent = nodes.get(str(pid)) if pid else None
        if parent is not None and parent is not node:
            children = parent["children"]
            assert isinstance(children, list)
            children.append(node)
        else:
            roots.append(node)
    for node in ordered:
        children = node["children"]
        assert isinstance(children, list)
        children.sort(key=_sort_key)
    roots.sort(key=_sort_key)
    return roots


def self_time_s(node: Mapping[str, object]) -> float:
    """A tree node's duration minus its children's (floored at 0)."""
    children = node.get("children") or []
    assert isinstance(children, list)
    own = _dur(node) - sum(_dur(c) for c in children)
    return max(0.0, own)


def layer_of(name: str) -> str:
    """Attribution layer of a span name (longest registered prefix)."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if (name == prefix or name.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return best or name.split(".", 1)[0]


def time_by_layer(spans: Iterable[SpanDict]) -> dict[str, float]:
    """Self-time (registry-clock seconds) attributed per layer.

    Because self time excludes children, the values sum to the total
    traced time with no double counting across nested layers.
    """
    out: dict[str, float] = {}
    for root in span_tree(spans):
        stack = [root]
        while stack:
            node = stack.pop()
            layer = layer_of(str(node.get("name") or ""))
            out[layer] = out.get(layer, 0.0) + self_time_s(node)
            children = node.get("children") or []
            assert isinstance(children, list)
            stack.extend(children)
    return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))


def time_by_site(spans: Iterable[SpanDict]) -> dict[str, float]:
    """Registry-clock seconds spent per site, from delegation spans.

    The Master stamps ``site=<name>`` on each fragment delegation span
    (``collectors.master.delegate``); under overlapped delegation the
    per-site durations are logically concurrent, so they sum to the
    *serial* cost, not the makespan — exactly what "which site consumed
    the budget" asks.
    """
    out: dict[str, float] = {}
    for s in spans:
        labels = s.get("labels")
        if not isinstance(labels, dict):
            continue
        site = labels.get("site")
        if site is None:
            continue
        out[str(site)] = out.get(str(site), 0.0) + _dur(s)
    return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))


#: counter base names summed into the retry/timeout section
_RETRY_COUNTERS = ("snmp.retries", "collectors.master.fragment_retries")
_TIMEOUT_COUNTERS = ("snmp.client.timeouts", "master.fragment_timeouts")
_DEGRADE_COUNTERS = (
    "collectors.master.quarantine_skips",
    "collectors.master.lkg_served",
    "query.partial",
    "faults.injected",
)


def _sum_counters(counters: Mapping[str, float], bases: Iterable[str]) -> float:
    total = 0.0
    for rendered, value in counters.items():
        base = rendered.split("{", 1)[0]
        if base in bases:
            total += float(value)
    return total


def retry_timeout_counts(counters: Mapping[str, float]) -> dict[str, float]:
    """Retry/timeout/degradation tallies from a counters snapshot.

    ``counters`` is the ``snapshot(reg)["counters"]`` dict (rendered
    names with labels); labelled series are summed per base name.
    """
    out = {
        "retries": _sum_counters(counters, _RETRY_COUNTERS),
        "timeouts": _sum_counters(counters, _TIMEOUT_COUNTERS),
    }
    for base in _DEGRADE_COUNTERS:
        out[base] = _sum_counters(counters, (base,))
    return out


def breakdown(
    spans: Iterable[SpanDict], counters: Mapping[str, float] | None = None
) -> dict[str, object]:
    """The trace-derived sections embedded in ``BENCH_*.json``."""
    spans = list(spans)
    return {
        "time_by_layer": time_by_layer(spans),
        "time_by_site": time_by_site(spans),
        "counts": retry_timeout_counts(counters or {}),
        "spans_recorded": len(spans),
        "traces": len({s.get("trace_id") for s in spans if s.get("trace_id")}),
    }


# -- text waterfall ----------------------------------------------------


def _render_labels(span: Mapping[str, object]) -> str:
    labels = span.get("labels")
    if not isinstance(labels, dict) or not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def waterfall_lines(
    spans: Iterable[SpanDict],
    trace_id: str | None = None,
    width: int = 40,
) -> list[str]:
    """A per-trace indented waterfall with proportional duration bars.

    One block per trace (filtered to ``trace_id`` when given); each
    line shows the span's name+labels, its sim-clock window, and a bar
    positioned on the trace's own timeline, so overlapped fragments
    visibly run in parallel.
    """
    spans = list(spans)
    roots = span_tree(spans)
    by_trace: dict[str, list[SpanDict]] = {}
    for r in roots:
        tid = str(r.get("trace_id") or "?")
        by_trace.setdefault(tid, []).append(r)
    lines: list[str] = []
    for tid in sorted(by_trace):
        if trace_id is not None and tid != trace_id:
            continue
        trace_roots = by_trace[tid]
        t0 = min(_start(r) for r in trace_roots)
        t1 = max(_start(r) + _dur(r) for r in trace_roots)
        extent = max(t1 - t0, 1e-12)
        lines.append(f"trace {tid}  ({t1 - t0:.6f}s sim, t0={t0:.6f})")
        stack: list[tuple[SpanDict, int]] = [(r, 0) for r in reversed(trace_roots)]
        while stack:
            node, depth = stack.pop()
            start = _start(node)
            dur = _dur(node)
            lo = int(round((start - t0) / extent * width))
            hi = max(lo + 1, int(round((start + dur - t0) / extent * width)))
            bar = " " * lo + "#" * min(hi - lo, width - lo)
            name = "  " * depth + str(node.get("name")) + _render_labels(node)
            lines.append(
                f"  {name:<46} {dur * 1e3:9.3f}ms |{bar:<{width}}|"
            )
            children = node.get("children") or []
            assert isinstance(children, list)
            stack.extend((c, depth + 1) for c in reversed(children))
        lines.append("")
    if len(lines) and lines[-1] == "":
        lines.pop()
    return lines


# -- Chrome trace-event export -----------------------------------------


def to_chrome_trace(spans: Iterable[SpanDict]) -> dict[str, object]:
    """Spans as Chrome trace-event JSON (complete "X" events).

    Timestamps are the registry clock (sim seconds) scaled to
    microseconds.  Thread ids are lanes: a span shares its parent's
    lane unless it overlaps an earlier sibling there (the
    ``Engine.overlap`` case), in which case it gets a fresh lane — so
    logically concurrent fragments render side by side instead of
    corrupting the flame stack.
    """
    events: list[dict[str, object]] = []
    next_lane = 0

    def place(nodes: list[SpanDict], parent_lane: int) -> None:
        nonlocal next_lane
        #: (lane, busy-until) candidates for this sibling group
        candidates: list[tuple[int, float]] = [(parent_lane, -math.inf)]
        for node in nodes:
            start, end = _start(node), _start(node) + _dur(node)
            lane = -1
            for i, (cand, busy) in enumerate(candidates):
                if busy <= start:
                    lane = cand
                    candidates[i] = (cand, end)
                    break
            if lane < 0:
                next_lane += 1
                lane = next_lane
                candidates.append((lane, end))
            args: dict[str, object] = {
                "trace_id": node.get("trace_id"),
                "span_id": node.get("span_id"),
                "parent_id": node.get("parent_id"),
                "wall_ms": round(float(node.get("wall_s") or 0.0) * 1e3, 6),
            }
            labels = node.get("labels")
            if isinstance(labels, dict):
                args.update(labels)
            events.append(
                {
                    "name": str(node.get("name")),
                    "cat": str(node.get("trace_id") or "trace"),
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(_dur(node) * 1e6, 3),
                    "pid": 0,
                    "tid": lane,
                    "args": args,
                }
            )
            children = node.get("children") or []
            assert isinstance(children, list)
            place(children, lane)

    place(span_tree(spans), 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
