"""What the event loop promises the backend, with no lock around it.

The session is synchronous, and ``RemosService._call_backend`` yields
to the loop once and then runs the session call without awaiting again.
So the loop itself runs one session call at a time, in the order the
requests were admitted, and the yield lets admission see every
concurrent arrival before the first call runs.  These tests hold that
under the overload shape of the ``direct_overload_shed`` workload:
256 concurrent clients against ``max_inflight=64``, in waves.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import random

from repro.modeler.api import FlowAnswer
from repro.service.app import RemosService, ServiceConfig, SessionBackend
from repro.service.client import DirectClient

CLIENTS = 256
MAX_INFLIGHT = 64
WAVES = 4
BODIES = [{"src": f"10.0.{i}.1", "dst": f"10.1.{i}.1"} for i in range(8)]

#: which client's request is running, read by the probes below
_who: contextvars.ContextVar[int] = contextvars.ContextVar("who")


class RecordingSession:
    """Logs when each session call enters and exits, by client."""

    def __init__(self, log: list[tuple[str, int]]) -> None:
        self.log = log

    def flow_info(self, src: str, dst: str, **kw: object) -> FlowAnswer:
        self.log.append(("enter", _who.get(-1)))
        # give up the GIL (time.sleep would trip the loop trap): a call
        # run off the loop would overlap here
        os.sched_yield()
        self.log.append(("exit", _who.get(-1)))
        return FlowAnswer(
            src=src, dst=dst, available_bps=1.0, bottleneck_bps=1.0,
            capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=(),
        )


Wave = tuple[list[int], list[tuple[str, int]], list[str]]


def run_waves(seed: int) -> list[Wave]:
    """Per wave: the order its clients were gathered in (seeded, shuffled
    afresh each wave), its log of admissions and session calls, and the
    ``served`` field of each answer in gather order."""
    log: list[tuple[str, int]] = []
    config = ServiceConfig(rate=1e9, burst=1e9, max_inflight=MAX_INFLIGHT)
    service = RemosService(SessionBackend(RecordingSession(log)), config)
    try_admit = service.admission.try_admit

    def recording_admit() -> bool:
        admitted = try_admit()
        if admitted:
            log.append(("admit", _who.get(-1)))
        return admitted

    service.admission.try_admit = recording_admit  # type: ignore[method-assign]
    clients = [DirectClient(service, tenant=f"t{k}") for k in range(CLIENTS)]
    rng = random.Random(seed)

    async def one(k: int, body: dict[str, str]) -> str:
        _who.set(k)
        envelope = await clients[k].call("flow_info", body)
        return str(envelope["served"])

    async def run() -> list[Wave]:
        warm = DirectClient(service, tenant="warm-up")
        for body in BODIES:
            await warm.call("flow_info", body)
        waves: list[Wave] = []
        for w in range(WAVES):
            log.clear()
            order = list(range(CLIENTS))
            rng.shuffle(order)
            got = await asyncio.gather(*(one(k, BODIES[(w + k) % len(BODIES)]) for k in order))
            waves.append((order, list(log), got))
        return waves

    return asyncio.run(run())


def test_session_calls_run_one_at_a_time_in_admission_order():
    for _, log, _ in run_waves(seed=42):
        admitted = [k for what, k in log if what == "admit"]
        # every arrival of the wave reached admission before the first call
        assert log[: len(admitted)] == [("admit", k) for k in admitted]
        # enter and exit alternate, each exit the call just entered: no
        # two calls overlap, and they run in admission order
        calls = log[len(admitted) :]
        assert calls == [(what, k) for k in admitted for what in ("enter", "exit")]


def test_exactly_max_inflight_of_each_wave_are_live():
    for order, log, served in run_waves(seed=7):
        # the first 64 gathered are admitted, in gather order, and answer
        # live; the other 192 are shed to their last-known-good answer
        assert [k for what, k in log if what == "admit"] == order[:MAX_INFLIGHT]
        assert served == ["live"] * MAX_INFLIGHT + ["shed_lkg"] * (CLIENTS - MAX_INFLIGHT)
