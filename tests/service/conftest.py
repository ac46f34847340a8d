"""Every event loop in the service suite runs under a trap.

``repro.service`` is a single-threaded asyncio plane: a coroutine that
blocks stalls every other client on the loop.  So each test here runs
with the trap set (:func:`loop_trap`), and fails if its loop was
blocked:

* every ``asyncio.run`` executes under event-loop debug mode, and a
  callback that holds the loop longer than :data:`SLOW_CALLBACK_S`
  (a blocking socket read, file or subprocess I/O, a world built
  inside a coroutine) fails the test.  Debug mode also surfaces
  un-awaited coroutines and cross-loop misuse;
* ``time.sleep`` and ``Engine.run_until`` fail whenever an event loop
  is running in the calling thread, however short the call.  The
  service waits with ``asyncio.sleep``, the session backend moves the
  simulated clock only with ``Engine.advance``, and a test steps its
  world with ``run_until`` outside its coroutines.

The service intentionally executes *queries* synchronously on the loop
(the sim engine is single-threaded and a query is milliseconds of wall
time), so the threshold is a full second: tight enough to trip on a
multi-second deploy-and-warm, loose enough for dispatch.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import time
from collections.abc import Callable, Iterator
from typing import Any

import pytest

from repro.netsim.engine import Engine

#: longest a callback may hold the loop
SLOW_CALLBACK_S = 1.0


class LoopBlockedError(RuntimeError):
    """A call that blocks was made on a running event loop."""


class LoopTrap(logging.Handler):
    """Collects each way a test blocked its loop: asyncio's 'Executing
    ... took N seconds' warnings, and the calls :func:`loop_trap` bars."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.hits: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "Executing" in msg and "took" in msg:
            self.hits.append(msg)

    def barred(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, failing whenever a loop is running in this thread."""

        @functools.wraps(fn)
        def guarded(*args: Any, **kwargs: Any) -> Any:
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                return fn(*args, **kwargs)
            self.hits.append(f"{name} called on a running event loop")
            raise LoopBlockedError(f"{name} blocks the event loop")

        return guarded

    def check(self) -> None:
        assert not self.hits, (
            "event loop blocked; move the synchronous work out of the coroutine:\n"
            + "\n".join(self.hits)
        )


def _debug_run(main: Any, **kwargs: Any) -> Any:
    loop = asyncio.new_event_loop()
    loop.set_debug(True)
    loop.slow_callback_duration = SLOW_CALLBACK_S
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


@pytest.fixture(autouse=True)
def loop_trap(monkeypatch: pytest.MonkeyPatch) -> Iterator[LoopTrap]:
    """Run the test's event loops under the trap; fail it on any hit."""
    trap = LoopTrap()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(trap)
    # the warning is dropped before reaching handlers if the logger's
    # effective level is above WARNING
    old_level = asyncio_log.level
    if asyncio_log.getEffectiveLevel() > logging.WARNING:
        asyncio_log.setLevel(logging.WARNING)
    monkeypatch.setattr(asyncio, "run", _debug_run)
    monkeypatch.setattr(time, "sleep", trap.barred("time.sleep", time.sleep))
    monkeypatch.setattr(Engine, "run_until", trap.barred("Engine.run_until", Engine.run_until))
    try:
        yield trap
    finally:
        asyncio_log.removeHandler(trap)
        asyncio_log.setLevel(old_level)
    trap.check()
