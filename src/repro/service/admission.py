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
Before it builds an answer's record the service reads the entry for
the query (:meth:`LastKnownGoodStore.peek`): an answer from the same
memoized fetch is served as that entry restamped
(:meth:`~repro.service.wire.AnswerRecord.restamped`), its text kept.
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

__all__ = ["LastKnownGoodStore", "AdmissionController"]

#: most answers one service's last-known-good store keeps (its size is
#: the gauge ``service.lkg_entries``); past it the least recently
#: stored-or-served one is evicted
LKG_MAX_ENTRIES = 4096

_FAILED = QueryStatus.FAILED.to_dict()
_STALE = QueryStatus.STALE.to_dict()
_OK = QueryStatus.OK.to_dict()


def _iter_answer_dicts(payload: Any) -> Iterable[dict[str, Any]]:
    if isinstance(payload, dict):
        yield payload
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, dict):
                yield item


def _restamp(answer: dict[str, Any], age_bonus: float) -> dict[str, Any]:
    """One copy of a stored answer dict, ``STALE`` where it was ``OK``
    and ``age_bonus`` older.  The copy is a plain dict: a record's
    canonical text, which says OK and the old age, stays behind."""
    out = dict(answer)
    if out.get("status") == _OK:
        out["status"] = _STALE
    out["data_age_s"] = float(out.get("data_age_s", 0.0)) + age_bonus
    return out


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

    def peek(self, key: str) -> Any | None:
        """The payload stored for ``key``, as stored, or None; its place
        in LRU order does not move."""
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def store(self, key: str, payload: Any) -> bool:
        """Remember ``payload`` (wire dict or list of wire dicts).

        Returns False (and stores nothing) if any answer in the payload
        is FAILED: shedding must never replay a failure as data.
        """
        if isinstance(payload, dict):
            if payload.get("status") == _FAILED:
                return False
        elif any(d.get("status") == _FAILED for d in _iter_answer_dicts(payload)):
            return False
        self._entries.pop(key, None)
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
        if isinstance(payload, dict):
            return _restamp(payload, age_bonus)
        if isinstance(payload, list):
            return [_restamp(d, age_bonus) if isinstance(d, dict) else d for d in payload]
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
