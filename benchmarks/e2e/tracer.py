"""The harness's span recorder for the traced pass.

Spans opened here go into the same live registry the program's own
instrumentation writes to (installed with ``obs.scoped_registry``), so
a harness span around a public call parents every span the program
opens underneath it and one tree carries both.  Each span records its
name, start and end on the simulated clock, its wall-clock duration,
its parent and its trace (request) id.  Everything stays in memory
until the runner writes :meth:`Tracer.span_dicts` out when the pass ends.

Outside :meth:`Tracer.recording` the tracer is inert and the program
runs against its default no-op registry: end-to-end numbers are never
taken while spans are being recorded.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro import obs
from repro.obs import traceview

_INERT = nullcontext()


class Tracer:
    def __init__(self) -> None:
        # the default 4096-span ring would keep only the tail of a segment
        self.reg = obs.MetricsRegistry(max_spans=4_000_000)
        self.active = False

    def span(self, name: str, **labels: object) -> Any:
        return self.reg.span(name, **labels) if self.active else _INERT

    def use_clock(self, source: object) -> None:
        """Stamp spans against ``source``'s simulated clock from now on."""
        self.reg.use_sim_clock(source)

    @contextmanager
    def recording(self) -> Iterator[None]:
        with obs.scoped_registry(self.reg):
            self.active = True
            try:
                yield
            finally:
                self.active = False

    def span_dicts(self) -> list[dict[str, object]]:
        return [traceview.record_to_dict(s) for s in self.reg.spans]
