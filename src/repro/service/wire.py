"""Wire contract for the Remos query service (schema v1).

Everything that crosses the service boundary is JSON in *canonical
form*: keys sorted, no whitespace, produced by :func:`canonical_json`.
Canonical form is what makes the equivalence guarantee testable — an
answer serialized twice is byte-identical, so "the wire returns the
same Answer as an in-process call" can be asserted on raw bytes, not
just on parsed structures.

The payloads themselves are the PR 4 ``Answer``/``QueryStatus`` family
rendered through their ``to_dict``/``from_dict`` methods (see
:mod:`repro.modeler.api`); this module only adds the request/response
*envelopes* around them and the service error vocabulary.

Note on numbers: link capacities can legitimately be ``inf`` (the
paper's "unknown capacity" convention), and Python's :mod:`json`
round-trips ``Infinity`` natively.  Both ends of this wire are this
codebase, so we keep that extension rather than inventing a sentinel.
"""

from __future__ import annotations

import json
from typing import Any

from repro.modeler.api import WIRE_SCHEMA_VERSION, Answer
from repro.modeler.graph import GraphRecord

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ERROR_CODES",
    "WireError",
    "canonical_json",
    "decode_body",
    "error_body",
    "result_body",
    "parse_result",
]

#: Stable error vocabulary.  Clients switch on ``code``, never on the
#: human-readable ``message``.
ERROR_CODES: frozenset[str] = frozenset(
    {
        "bad_request",  # malformed JSON, unknown field, missing argument
        "not_found",  # unknown endpoint / schema version
        "rate_limited",  # tenant token bucket empty
        "overloaded",  # admission control shed and no LKG available
        "breaker_open",  # backend circuit breaker rejecting calls
        "backend_error",  # Modeler/Master raised after retries
    }
)


class WireError(Exception):
    """A service-level failure with a wire error code.

    Raised by the hardening layers (rate limiter, breaker, admission
    control) and mapped onto an HTTP status + canonical error body at
    the edge.
    """

    def __init__(self, code: str, message: str, *, retry_after_s: float = 0.0) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown wire error code: {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


#: one encoder for every message: ``json.dumps`` with non-default
#: arguments builds a fresh ``JSONEncoder`` per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to the canonical wire form.

    Sorted keys and compact separators: the same dict always yields the
    same bytes, which the round-trip property tests (and the over-the-
    wire equivalence test) rely on.

    The output is exactly ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))``.  A :class:`GraphRecord` held by an answer
    dict — ``obj`` itself, or the ``result`` of an envelope — is
    encoded once, the text kept on the record, and spliced into every
    later message that carries the same record, so an answer served
    from a shared frozen view costs its envelope and scalar fields.
    """
    spliced = _splice(obj, nested=True) if type(obj) is dict else None
    return _dumps(obj) if spliced is None else spliced


def _splice(obj: dict[Any, Any], nested: bool) -> str | None:
    """Canonical text of a dict built around the graph records among
    its values (and, with ``nested``, among its dict values' values),
    or None when there are none — or a key is not a string, which
    ``json.dumps`` orders and coerces by its own rules: the caller then
    encodes the dict whole."""
    found: dict[str, str] = {}
    for k, v in obj.items():
        if type(v) is GraphRecord:
            if v.encoded is None:
                v.encoded = _dumps(v)
            found[k] = v.encoded
        elif nested and type(v) is dict:
            text = _splice(v, nested=False)
            if text is not None:
                found[k] = text
    if not found or not all(type(k) is str for k in obj):
        return None
    return "{%s}" % ",".join(
        f"{_dumps(k)}:{found[k] if k in found else _dumps(obj[k])}"
        for k in sorted(obj)
    )


def decode_body(raw: bytes) -> dict[str, Any]:
    """Parse a request body, raising ``WireError(bad_request)`` on junk."""
    try:
        obj = json.loads(raw.decode("utf-8") if raw else "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("bad_request", f"invalid JSON body: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("bad_request", "request body must be a JSON object")
    return obj


# -- response envelopes ------------------------------------------------


def result_body(result: Any, *, served: str = "live") -> dict[str, Any]:
    """Success envelope.

    ``result`` is an ``Answer``, a list of answers, or a plain dict
    (health, metrics, subscription events).  ``served`` records whether
    the backend answered live or admission control shed to a
    last-known-good answer (``"shed_lkg"``).
    """
    if isinstance(result, Answer):
        payload: Any = result.to_dict()
    elif isinstance(result, list):
        payload = [a.to_dict() if isinstance(a, Answer) else a for a in result]
    else:
        payload = result
    return {"schema": WIRE_SCHEMA_VERSION, "ok": True, "served": served, "result": payload}


def error_body(err: WireError) -> dict[str, Any]:
    """Error envelope for a :class:`WireError`."""
    body: dict[str, Any] = {
        "schema": WIRE_SCHEMA_VERSION,
        "ok": False,
        "error": {"code": err.code, "message": err.message},
    }
    if err.retry_after_s > 0:
        body["error"]["retry_after_s"] = err.retry_after_s
    return body


def parse_result(body: dict[str, Any]) -> Any:
    """Client-side inverse of :func:`result_body`.

    Returns reconstructed ``Answer`` objects (single or list) when the
    payload carries the ``kind`` discriminator, the raw payload
    otherwise.  Raises :class:`WireError` for error envelopes so
    callers handle one exception type end to end.
    """
    if body.get("schema") != WIRE_SCHEMA_VERSION:
        raise WireError("not_found", f"unsupported schema: {body.get('schema')!r}")
    if not body.get("ok"):
        err = body.get("error") or {}
        raise WireError(
            err.get("code", "backend_error"),
            err.get("message", "unknown service error"),
            retry_after_s=float(err.get("retry_after_s", 0.0)),
        )
    payload = body.get("result")
    if isinstance(payload, dict) and "kind" in payload:
        return Answer.from_dict(payload)
    if isinstance(payload, list):
        return [
            Answer.from_dict(p) if isinstance(p, dict) and "kind" in p else p
            for p in payload
        ]
    return payload
