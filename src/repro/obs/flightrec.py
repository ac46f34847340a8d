"""Flight recorder: bounded black box dumped when queries degrade.

The paper's Remos deployment runs unattended; when a query comes back
FAILED or PARTIAL hours later, the interesting evidence — which site's
fragment timed out, which retry burned the deadline — is long gone
from any live dashboard.  The flight recorder keeps a bounded ring of
recent log events alongside the registry's span ring, and on a
degraded answer (or an injected fault) freezes both into a JSON dump:
the full causal span tree for the affected trace plus the log tail and
the retry/timeout tallies.

Usage::

    with obs.scoped_registry() as reg:
        rec = FlightRecorder(reg, out_dir="diag/")
        with rec:                       # installs the log-tail handler
            answers = session.flow_info_many(pairs)
    # any FAILED/PARTIAL answer auto-dumped diag/flightrec-001-*.json

``RemosSession`` calls :meth:`on_answer` for every answer it returns
and :mod:`repro.faults` calls :meth:`on_fault` when an injector fires;
both honour ``max_dumps`` so a retry storm cannot fill the disk.
Render a dump with ``repro trace <file>``.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from pathlib import Path
from typing import Protocol

from repro.obs import traceview
from repro.obs.log import ROOT as LOG_ROOT
from repro.obs.metrics import render_name
from repro.obs.registry import MetricsRegistry


class DegradableAnswer(Protocol):
    """The slice of the Answer family the recorder hook needs.

    ``obs`` sits at the bottom of the layer DAG and must not import
    the modeler that defines :class:`~repro.modeler.api.Answer` —
    callers from above satisfy this protocol structurally.
    """

    @property
    def status(self) -> object: ...

    @property
    def trace_id(self) -> "str | None": ...

#: dump payload version, bumped on incompatible shape changes
DUMP_VERSION = 1


class _RingHandler(logging.Handler):
    """Log handler appending formatted events to a bounded ring."""

    def __init__(self, recorder: "FlightRecorder") -> None:
        super().__init__(level=logging.DEBUG)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            msg = record.getMessage()
        except Exception:  # pragma: no cover - malformed log call
            msg = str(record.msg)
        self._recorder._log_event(record.name, record.levelname, msg)


class FlightRecorder:
    """Bounded recorder of log events, dumped with the span ring.

    Attaching (``with recorder:`` or :meth:`attach`) registers the
    recorder on ``registry.flight_recorder`` — which is how the session
    and the fault injector discover it — and hooks a DEBUG-level
    handler onto the ``repro`` logger so the ring sees every event
    regardless of the configured console level.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        out_dir: str | Path | None = None,
        max_log_events: int = 256,
        max_dumps: int = 8,
    ) -> None:
        self.registry = registry
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.max_dumps = max_dumps
        #: dumps produced so far, most recent last
        self.dumps: list[dict[str, object]] = []
        self._events: deque[dict[str, object]] = deque(maxlen=max_log_events)
        self._handler: _RingHandler | None = None
        self._dump_seq = 0

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> "FlightRecorder":
        if self._handler is None:
            self._handler = _RingHandler(self)
            root = logging.getLogger(LOG_ROOT)
            root.addHandler(self._handler)
            # the ring wants every event even when the console doesn't
            if root.level == logging.NOTSET or root.level > logging.DEBUG:
                root.setLevel(logging.DEBUG)
        self.registry.flight_recorder = self
        return self

    def detach(self) -> None:
        if self._handler is not None:
            logging.getLogger(LOG_ROOT).removeHandler(self._handler)
            self._handler = None
        if self.registry.flight_recorder is self:
            self.registry.flight_recorder = None

    def __enter__(self) -> "FlightRecorder":
        return self.attach()

    def __exit__(self, *exc: object) -> None:
        self.detach()

    # -- event intake --------------------------------------------------

    def _log_event(self, logger: str, level: str, message: str) -> None:
        self._events.append(
            {
                "t_s": self.registry.clock.now(),
                "logger": logger,
                "level": level,
                "message": message,
            }
        )

    # -- triggers ------------------------------------------------------

    def on_answer(self, answer: DegradableAnswer) -> None:
        """Session hook: dump when an answer comes back degraded."""
        status = getattr(answer.status, "name", str(answer.status))
        if status in ("FAILED", "PARTIAL"):
            self.maybe_dump(
                reason=f"answer.{status.lower()}",
                trace_id=getattr(answer, "trace_id", None),
            )

    def on_fault(self, kind: str) -> None:
        """Fault-injector hook: dump when a fault fires."""
        self.maybe_dump(reason=f"fault.{kind}", trace_id=None)

    # -- dumping -------------------------------------------------------

    def maybe_dump(
        self, reason: str, trace_id: str | None = None
    ) -> dict[str, object] | None:
        """Dump unless the ``max_dumps`` budget is exhausted."""
        if self._dump_seq >= self.max_dumps:
            return None
        return self.dump(reason, trace_id=trace_id)

    def dump(self, reason: str, trace_id: str | None = None) -> dict[str, object]:
        """Freeze the current evidence into a JSON-ready dict.

        Includes every span still in the registry ring (filtered to
        ``trace_id`` when given — plus any open ancestors so the tree
        has its roots), the log-event tail, and the counter snapshot
        the retry/timeout attribution reads from.  Written to
        ``out_dir`` as ``flightrec-NNN-<reason>.json`` when configured.
        """
        self._dump_seq += 1
        reg = self.registry
        spans = [traceview.record_to_dict(s) for s in reg.spans]
        # open spans (e.g. the session root at fault time) would be
        # invisible — the ring only holds completed spans — so record
        # them closed at the dump instant
        now = reg.clock.now()
        for open_span in reg._span_stack:
            spans.append(traceview.record_to_dict(open_span, open_at=now))
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == trace_id]
        counters = {
            render_name(c.name, c.labels): c.value
            for c in reg.counters()
        }
        payload: dict[str, object] = {
            "version": DUMP_VERSION,
            "reason": reason,
            "trace_id": trace_id,
            "t_s": now,
            "spans": spans,
            "events": list(self._events),
            "counters": counters,
            "breakdown": traceview.breakdown(spans, counters),
        }
        self.dumps.append(payload)
        reg.counter("obs.flightrec.dumps", reason=reason.split(".", 1)[0]).inc()
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            slug = "".join(c if c.isalnum() else "-" for c in reason)
            path = self.out_dir / f"flightrec-{self._dump_seq:03d}-{slug}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload


def load_dump(path: str | Path) -> dict[str, object]:
    """Read a flight-recorder dump back from disk.

    Round-trip guarantee: ``span_tree(load_dump(p)["spans"])`` equals
    the tree of the in-memory payload that produced ``p``.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "spans" not in data:
        raise ValueError(f"{path}: not a flight-recorder dump")
    return data
