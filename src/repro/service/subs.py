"""Long-poll subscriptions for flow updates.

Remos' pull API answers "what can I get *now*"; steering applications
(the paper's stock-market feed, remote visualization) also want to hear
when an answer *changes*.  The service offers the simplest contract
that survives HTTP: a client long-polls ``/v1/subscribe`` with the
channels it cares about (``"src->dst"`` flow pairs) and the last
sequence number it saw; the server parks the request until an update
arrives or the poll times out, then returns every newer event.

Determinism is load-bearing for tests: events carry a *global*
monotonically increasing ``seq`` assigned at publish time, and the
:class:`FlowWatcher` publishes in sorted-pair order each tick, so the
delivery order under the sim clock is a pure function of the world
seed.  The hub keeps a bounded ring buffer; a client that falls more
than ``capacity`` events behind is told its resume point is gone
(``resume_lost``) rather than silently missing updates.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Iterable

from repro import obs

__all__ = ["SubscriptionHub", "FlowWatcher", "flow_channel"]


def flow_channel(src: str, dst: str) -> str:
    """Canonical channel key for a flow pair."""
    return f"{src}->{dst}"


class SubscriptionHub:
    """Global-sequence event fan-out with a bounded replay buffer."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self._events: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._seq = 0
        self._published = 0
        self._waiters: set[asyncio.Event] = set()

    @property
    def seq(self) -> int:
        """Sequence number of the newest event (0 before any)."""
        return self._seq

    @property
    def published(self) -> int:
        """Total events ever published (ring buffer may hold fewer)."""
        return self._published

    @property
    def oldest_seq(self) -> int:
        """Lowest seq still replayable (0 when the buffer is empty)."""
        return self._events[0]["seq"] if self._events else 0

    def publish(self, channel: str, payload: Any) -> int:
        """Append an event and wake every parked long-poll."""
        self._seq += 1
        self._published += 1
        self._events.append({"seq": self._seq, "channel": channel, "payload": payload})
        for waiter in self._waiters:
            waiter.set()
        return self._seq

    def events_since(
        self, channels: Iterable[str] | None, since: int
    ) -> list[dict[str, Any]]:
        """Buffered events newer than ``since`` on ``channels``.

        ``channels=None`` subscribes to everything.
        """
        wanted = None if channels is None else set(channels)
        return [
            ev
            for ev in self._events
            if ev["seq"] > since and (wanted is None or ev["channel"] in wanted)
        ]

    def resume_lost(self, since: int) -> bool:
        """True when ``since`` predates the replay buffer (gap!)."""
        return 0 < since < self.oldest_seq - 1 or (
            since > 0 and not self._events and self._seq > since
        )

    async def wait(
        self,
        channels: Iterable[str] | None,
        since: int,
        timeout_s: float,
    ) -> list[dict[str, Any]]:
        """Long-poll: return matching events, parking up to ``timeout_s``.

        Returns immediately when newer events already exist; an empty
        list means the poll timed out with nothing new (the client
        re-polls with the same ``since``).
        """
        wanted = None if channels is None else list(channels)
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            ready = self.events_since(wanted, since)
            if ready:
                return ready
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return []
            waiter = asyncio.Event()
            self._waiters.add(waiter)
            try:
                await asyncio.wait_for(waiter.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return []
            finally:
                self._waiters.discard(waiter)


class FlowWatcher:
    """Polls watched flow pairs and publishes changes to a hub.

    ``tick()`` is driven by whoever owns the clock — the service's
    background task in wall time, or a test advancing the sim engine —
    and queries the session for every watched pair *in sorted order*,
    publishing an event per answer whose available bandwidth moved by
    more than ``epsilon_bps`` (or whose status changed).  Sorted
    iteration keeps the global sequence deterministic for a given
    world.
    """

    def __init__(self, session: Any, epsilon_bps: float = 1.0) -> None:
        self.session = session
        self.epsilon_bps = float(epsilon_bps)
        self._pairs: set[tuple[str, str]] = set()
        self._last: dict[tuple[str, str], tuple[str, float]] = {}

    def watch(self, src: str, dst: str) -> None:
        self._pairs.add((str(src), str(dst)))
        obs.get_registry().gauge("service.subs.watched_pairs").set(len(self._pairs))

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._pairs)

    def tick(self, hub: SubscriptionHub) -> int:
        """One poll sweep; returns the number of events published."""
        pairs = self.pairs
        if not pairs:
            return 0
        answers = self.session.flow_info_many(pairs)
        published = 0
        for pair, ans in zip(pairs, answers):
            signature = (str(ans.status), float(ans.available_bps))
            prev = self._last.get(pair)
            if prev is not None:
                same_status = prev[0] == signature[0]
                small_move = abs(prev[1] - signature[1]) <= self.epsilon_bps
                if same_status and small_move:
                    continue
            self._last[pair] = signature
            hub.publish(flow_channel(*pair), ans.to_dict())
            published += 1
        return published
