"""Admission control with shed-to-STALE.

The paper's whole design accepts staleness as the price of scalability
(cached collector data, SNMP polling intervals); the service plane
extends the same bargain to overload.  When more requests are in
flight than the backend can serve concurrently, new requests are not
queued — queuing under overload turns "slow" into "timed out" for
everyone.  Instead the request is *shed* to the last-known-good (LKG)
answer for the same query, served with ``status=STALE`` and a
``data_age_s`` that includes the shelf time.  Only when no LKG exists
does the client see an ``overloaded`` error.

The LKG store keeps answers in canonical wire form (plain dicts), so a
shed response is isolated from later mutation of live answers and
exercises exactly the serialization path a remote client sees.
It is also the one place that sees each answer next to the last one
served for the same query, so it is where a repeated answer inherits
the text already encoded for it (:class:`~repro.service.wire.AnswerRecord`).
Results containing any ``FAILED`` answer are never stored — a shed
must not launder a failure into a plausible-looking STALE answer.
Site-scoped invalidation mirrors ``RemosSession.invalidate_cache``:
entries whose provenance intersects the named sites are dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.common.status import QueryStatus
from repro.obs.timebase import wall_now
from repro.service.wire import AnswerRecord

__all__ = ["LastKnownGoodStore", "AdmissionController"]

#: most answers one service's last-known-good store keeps (its size is
#: the gauge ``service.lkg_entries``); past it the least recently
#: stored-or-served one is evicted
LKG_MAX_ENTRIES = 4096


def _iter_answer_dicts(payload: Any) -> Iterable[dict[str, Any]]:
    if isinstance(payload, dict):
        yield payload
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, dict):
                yield item


class LastKnownGoodStore:
    """LRU store of the freshest good answer per query key.

    Keys are canonical request strings (endpoint + canonical body), so
    identical queries from different tenants share one entry — LKG is
    about the *data*, which is tenant-independent, not the caller.
    """

    def __init__(
        self,
        max_entries: int = LKG_MAX_ENTRIES,
        clock: Callable[[], float] = wall_now,
    ) -> None:
        self.max_entries = int(max_entries)
        self._clock = clock
        # key -> (stored_at, wire payload dict-or-list)
        self._entries: OrderedDict[str, tuple[float, Any]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, key: str, payload: Any) -> bool:
        """Remember ``payload`` (wire dict or list of wire dicts).

        Returns False (and stores nothing) if any answer in the payload
        is FAILED: shedding must never replay a failure as data.

        An answer record that says what the record it replaces said
        (:meth:`AnswerRecord.mark`: everything but ``trace_id``, type
        for type) takes over that record's encoded text.
        """
        failed = QueryStatus.FAILED.to_dict()
        for d in _iter_answer_dicts(payload):
            if d.get("status") == failed:
                return False
        replaced = self._entries.pop(key, None)
        last = None if replaced is None else replaced[1]
        if (
            type(payload) is AnswerRecord
            and type(last) is AnswerRecord
            and last.encoded is not None  # never serialized: nothing to take over
            and payload.encoded is None
        ):
            mark = payload.mark()
            if mark and mark == last.mark():
                payload.encoded = last.encoded
        self._entries[key] = (self._clock(), payload)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return True

    def serve_stale(self, key: str) -> Any | None:
        """The LKG payload for ``key``, restamped as a shed answer.

        Every answer's status is degraded to ``STALE`` (unless already
        worse than stale — PARTIAL and STALE stay as they are) and its
        ``data_age_s`` grows by the wall-clock shelf time, so a client
        can tell exactly how old the shed answer is.  Returns ``None``
        when no entry exists.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        stored_at, payload = entry
        age_bonus = max(0.0, self._clock() - stored_at)
        stale = QueryStatus.STALE.to_dict()
        ok = QueryStatus.OK.to_dict()

        def restamp(d: dict[str, Any]) -> dict[str, Any]:
            out = dict(d)
            if out.get("status") == ok:
                out["status"] = stale
            out["data_age_s"] = float(out.get("data_age_s", 0.0)) + age_bonus
            return out

        if isinstance(payload, dict):
            return restamp(payload)
        if isinstance(payload, list):
            return [restamp(d) if isinstance(d, dict) else d for d in payload]
        return payload

    def invalidate(self, sites: Iterable[str] | None = None) -> int:
        """Drop entries; scoped by provenance when ``sites`` is given.

        Mirrors ``RemosSession.invalidate_cache(sites=...)`` semantics:
        ``None`` flushes everything, otherwise only entries with at
        least one answer whose provenance intersects ``sites`` go.
        Returns the number of evicted entries.
        """
        if sites is None:
            n = len(self._entries)
            self._entries.clear()
            return n
        wanted = set(sites)
        doomed = []
        for key, (_, payload) in self._entries.items():
            for d in _iter_answer_dicts(payload):
                if wanted.intersection(d.get("provenance") or ()):
                    doomed.append(key)
                    break
        for key in doomed:
            del self._entries[key]
        return len(doomed)


class AdmissionController:
    """Bounded-concurrency gate: admit, or shed to LKG, never queue."""

    def __init__(self, max_inflight: int = 64) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self._inflight = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_admit(self) -> bool:
        """Claim a slot; the caller must pair with :meth:`release`."""
        if self._inflight >= self.max_inflight:
            return False
        self._inflight += 1
        return True

    def release(self) -> None:
        self._inflight = max(0, self._inflight - 1)
