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
*envelopes* around them, the service error vocabulary, and the
:class:`AnswerRecord` that lets an answer which repeats be serialized
once.

Note on numbers: link capacities can legitimately be ``inf`` (the
paper's "unknown capacity" convention), and Python's :mod:`json`
round-trips ``Infinity`` natively.  Both ends of this wire are this
codebase, so we keep that extension rather than inventing a sentinel.
"""

from __future__ import annotations

import json
from _json import make_encoder  # what json.encoder calls c_make_encoder
from json.encoder import encode_basestring_ascii as _quote  # what _dumps does with a str
from typing import Any

from repro import obs
from repro.modeler.api import WIRE_SCHEMA_VERSION, Answer
from repro.modeler.graph import GraphRecord

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ERROR_CODES",
    "AnswerRecord",
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
        "backend_error",  # Modeler/Master raised (one attempt)
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


class AnswerRecord(dict[str, Any]):
    """The wire record of one answer a query endpoint serves: the dict
    ``Answer.to_dict`` returned, the ``basis`` of the answer (see
    :attr:`repro.modeler.api.Answer.basis`), and one slot for its
    canonical JSON text, kept as the two halves around the encoded
    ``trace_id``.

    The :class:`~repro.modeler.graph.GraphRecord` idiom one level up.
    :func:`canonical_json` fills ``encoded`` the first time the record
    is serialized.  An answer to the same query from the same memoized
    fetch says what the record stored for it says: the service serves
    it as :meth:`restamped`, which carries the text over and encodes
    only the new ``trace_id``.  A record is a snapshot: never edit one
    (``dict(record)`` is an ordinary dict).
    """

    __slots__ = ("encoded", "basis")

    def __init__(self, answer: dict[str, Any], basis: int | None = None) -> None:
        super().__init__(answer)
        self.encoded: tuple[str, str] | None = None
        self.basis = basis

    def restamped(self, trace_id: str | None) -> "AnswerRecord":
        """This record under another request's ``trace_id``, with this
        record's basis and text."""
        again = AnswerRecord(self, self.basis)
        again["trace_id"] = trace_id
        again.encoded = self.encoded
        return again


#: one C encoder for every message, built once with the arguments
#: ``JSONEncoder.iterencode`` passes it (``encode`` builds a fresh one per
#: call): sorted keys, compact separators, ASCII strings, NaN allowed, and
#: no circular-reference markers, because wire values are trees
_encoder = make_encoder(
    None, json.JSONEncoder().default, _quote, None, ":", ",", True, False, True
)


def _dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``."""
    return "".join(_encoder(obj, 0))


def _scalar(v: Any) -> str:
    """``_dumps(v)``.  Keys, trace ids and the atoms of an envelope are
    written directly: for anything but a ``str``, ``_dumps`` sets up a
    whole encoder pass."""
    if type(v) is str:
        return _quote(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is int:
        return repr(v)
    return _dumps(v)


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to the canonical wire form.

    Sorted keys and compact separators: the same dict always yields the
    same bytes, which the round-trip property tests (and the over-the-
    wire equivalence test) rely on.

    The output is exactly ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))``.  A record held by an answer dict — a
    :class:`GraphRecord` among the values of ``obj`` or of the
    ``result`` of an envelope, an :class:`AnswerRecord` as ``obj``
    itself or as that ``result`` — is encoded once, the text kept on
    the record, and spliced into every later message that carries the
    same record: an answer served from a shared frozen view costs its
    envelope and scalar fields, and an answer that repeats the last one
    stored for its query costs its envelope and its ``trace_id``.
    """
    kind = type(obj)
    pieces = _splice(obj, nested=True) if kind is dict or kind is AnswerRecord else None
    return _dumps(obj) if pieces is None else "".join(pieces)


def _splice(obj: dict[Any, Any], nested: bool) -> list[str] | None:
    """Canonical text of a dict built around the records among its
    values (and, with ``nested``, among its dict values' values), as
    pieces for one ``join`` — a large text is then copied once — or
    None when there are none — or a key is not a string, which
    ``json.dumps`` orders and coerces by its own rules: the caller then
    encodes the dict whole.  An answer record is itself such a dict,
    and keeps the text this builds around its ``trace_id``."""
    answer: AnswerRecord | None = None
    if type(obj) is AnswerRecord and "trace_id" in obj:
        answer = obj
        if answer.encoded is not None:
            obs.counter("service.wire.answer_text", result="reused").inc()
            return [answer.encoded[0], _scalar(answer["trace_id"]), answer.encoded[1]]
    found: dict[str, list[str]] = {}
    for k, v in obj.items():
        kind = type(v)
        if kind is GraphRecord:
            if v.encoded is None:
                v.encoded = _dumps(v)
            found[k] = [v.encoded]
        elif nested and (kind is dict or kind is AnswerRecord):
            inner = _splice(v, nested=False)
            if inner is not None:
                found[k] = inner
    if (not found and answer is None) or {*map(type, obj)} != {str}:
        return None
    if answer is not None:
        obs.counter("service.wire.answer_text", result="encoded").inc()
        if not found:
            # no record inside to splice: one encoder pass, and the text is
            # cut where the few members that sort after trace_id begin
            whole = _dumps(answer)
            after = {k: v for k, v in answer.items() if k > "trace_id"}
            tail = f",{_dumps(after)[1:]}" if after else "}"
            cut = len(whole) - len(tail) - len(_scalar(answer["trace_id"]))
            answer.encoded = (whole[:cut], tail)
            return [whole]
    pieces: list[str] = []
    at = 0  # where the trace_id value sits among the pieces of an answer record
    opener = "{"
    for k in sorted(obj):
        pieces.append(f"{opener}{_quote(k)}:")
        opener = ","
        if k == "trace_id":
            at = len(pieces)
        pieces += found[k] if k in found else (_scalar(obj[k]),)
    pieces.append("}")
    if answer is not None:
        answer.encoded = ("".join(pieces[:at]), "".join(pieces[at + 1 :]))
    return pieces


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
