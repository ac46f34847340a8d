"""Minimal asyncio HTTP/1.1 edge for the Remos query service.

Stdlib-only by design (the container bakes no aiohttp): a hand-rolled
HTTP/1.1 loop over ``asyncio.start_server`` with keep-alive and
``Content-Length`` bodies is all a JSON RPC plane needs, and owning the
parser keeps the service's failure surface inside this repo.  The edge
is deliberately thin — it parses requests, hands the JSON body to
:meth:`repro.service.app.RemosService.dispatch`, and maps
:class:`~repro.service.wire.WireError` codes onto HTTP statuses.  All
policy (rate limits, shedding, breaker) lives behind ``dispatch`` so
in-process and remote clients traverse identical code.

Routes (all bodies canonical JSON)::

    POST /v1/flow_info        {"src": ..., "dst": ..., "predict": ...}
    POST /v1/flow_info_many   {"pairs": [[s, d], ...], "own_flows": ...}
    POST /v1/topology         {"hosts": [...], "detail": ...}
    POST /v1/node_info        {"hosts": [...]}
    POST /v1/invalidate       {"sites": [...] | null}
    POST /v1/subscribe        {"pairs": [...], "since": n, "timeout_s": t}
    GET  /v1/health
    GET  /v1/metrics

The tenant is the ``X-Remos-Tenant`` header (``anonymous`` when
absent).  A request is framed by ``Content-Length`` and CRLF line ends
only; what cannot be framed (a head cut off or over 16 KiB, a bare LF,
``Transfer-Encoding``, disagreeing lengths, a body over 1 MiB) is
answered 400 / 413 and the connection closed, never dispatched
(docs/service.md, "What the edge accepts").
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro import obs
from repro.service.app import RemosService
from repro.service.wire import WireError, canonical_json, decode_body, error_body

__all__ = ["start_server", "serve_forever", "read_head", "body_length", "HTTP_STATUS"]

log = obs.get_logger(__name__)

#: wire error code -> HTTP status
HTTP_STATUS: dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "rate_limited": 429,
    "overloaded": 503,
    "breaker_open": 503,
    "backend_error": 502,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

MAX_BODY_BYTES = 1 << 20  # 1 MiB: topology requests list hosts, not graphs
MAX_HEADER_BYTES = 16 << 10

#: everything of a response head but the body length, per (status, keep-alive)
_HEADS: dict[tuple[int, bool], bytes] = {
    (status, keep_alive): (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    for status, reason in _REASONS.items()
    for keep_alive in (True, False)
}


def _response(status: int, body: dict[str, Any], keep_alive: bool) -> bytes:
    payload = canonical_json(body).encode("utf-8")
    return _HEADS[status, keep_alive] % len(payload) + payload


class _Refused(Exception):
    """A request the edge answers itself, with ``bad_request`` and a
    closed connection, because it cannot be framed: never dispatched."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def read_head(
    reader: asyncio.StreamReader,
) -> tuple[list[str], dict[str, str]] | None:
    """One message head, read and split in one pass: the three fields
    of its start line, and its headers under lower-cased names.

    None on a clean EOF before the first byte.  ``ValueError`` for a
    head that ends before its blank line, exceeds ``MAX_HEADER_BYTES``
    (or the ``limit`` ``reader`` was created with, if that is less),
    has a line not ended by CRLF, a start line of other than three
    fields, or two ``Content-Length`` headers that disagree.  Shared by
    the server (requests) and :class:`~repro.service.client.
    HttpServiceClient` (responses).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ValueError("message head cut off before its blank line") from None
        return None
    except asyncio.LimitOverrunError:
        raise ValueError("headers too large") from None
    if len(raw) > MAX_HEADER_BYTES:
        raise ValueError("headers too large")
    text = raw[:-4].decode("latin-1")
    start, *lines = text.split("\r\n")
    if text.count("\n") != len(lines) or text.count("\r") != len(lines):
        raise ValueError("bare CR or LF in message head")
    fields = start.split(None, 2)
    if len(fields) != 3:
        raise ValueError("malformed start line")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ValueError("conflicting Content-Length headers")
        headers[name] = value
    return fields, headers


def body_length(headers: dict[str, str]) -> int:
    """The declared ``Content-Length`` (0 when absent); ``ValueError``
    unless it is plain digits."""
    raw_length = headers.get("content-length") or "0"
    # int() alone would also take "+5", "1_0" and " 5 "; HTTP allows digits only
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ValueError(f"bad Content-Length {raw_length!r}")
    return int(raw_length)


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; None on clean EOF, ``_Refused`` on junk."""
    try:
        head = await read_head(reader)
        if head is None:
            return None
        (method, target, _version), headers = head
        length = body_length(headers)
    except ValueError as exc:
        raise _Refused(400, str(exc)) from None
    if "transfer-encoding" in headers:
        # a chunked body read as Content-Length 0 would be dispatched
        # empty and its chunks parsed as the next request
        raise _Refused(400, "Transfer-Encoding is not supported; send Content-Length")
    if length > MAX_BODY_BYTES:
        raise _Refused(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _handle_connection(
    service: RemosService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except _Refused as refused:
                err = WireError("bad_request", str(refused))
                writer.write(_response(refused.status, error_body(err), keep_alive=False))
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            if parsed is None:
                return
            method, target, headers, raw = parsed
            keep_alive = headers.get("connection", "keep-alive") != "close"
            status, body = await _serve_one(service, method, target, headers, raw)
            writer.write(_response(status, body, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _serve_one(
    service: RemosService,
    method: str,
    target: str,
    headers: dict[str, str],
    raw: bytes,
) -> tuple[int, dict[str, Any]]:
    """One request -> (HTTP status, response envelope)."""
    path = target.split("?", 1)[0]
    if not path.startswith("/v1/"):
        err = WireError("not_found", f"unknown path {path!r} (this build speaks /v1)")
        return 404, error_body(err)
    endpoint = path[len("/v1/") :].strip("/")
    if endpoint in ("health", "metrics"):
        if method not in ("GET", "POST"):
            err = WireError("bad_request", f"{method} not allowed on {path}")
            return 405, error_body(err)
    elif method != "POST":
        err = WireError("bad_request", f"{method} not allowed on {path}")
        return 405, error_body(err)
    tenant = headers.get("x-remos-tenant", "anonymous")
    try:
        body = decode_body(raw)
        envelope = await service.dispatch(endpoint, body, tenant=tenant)
        return 200, envelope
    except WireError as err:
        return HTTP_STATUS.get(err.code, 500), error_body(err)
    except Exception as exc:  # the edge never leaks a traceback
        log.error("unhandled service error on %s: %s", path, exc)
        err = WireError("backend_error", f"internal error: {type(exc).__name__}")
        return 500, error_body(err)


async def start_server(
    service: RemosService,
    host: str = "127.0.0.1",
    port: int = 8077,
    tick_interval_s: float = 0.0,
) -> asyncio.Server:
    """Bind and return the server (caller owns the loop).

    ``tick_interval_s > 0`` starts a background task polling the flow
    watcher so long-poll subscribers receive updates; the task is
    attached to the server object and cancelled when it closes.
    """
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w),
        host,
        port,
        limit=MAX_HEADER_BYTES,
    )

    if tick_interval_s > 0:

        async def _ticker() -> None:
            while True:
                await asyncio.sleep(tick_interval_s)
                service.tick_subscriptions()

        # asyncio servers have no shutdown hook; stash the ticker task
        # where serve_forever (and tests) can cancel it on close
        task = asyncio.get_running_loop().create_task(_ticker())
        server._repro_ticker = task  # type: ignore[attr-defined]
    return server


async def serve_forever(
    service: RemosService,
    host: str = "127.0.0.1",
    port: int = 8077,
    tick_interval_s: float = 0.5,
) -> None:
    """Run until cancelled (the ``repro serve`` entry point)."""
    server = await start_server(service, host, port, tick_interval_s)
    addrs = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
    )
    log.info("remos service listening on %s", addrs)
    try:
        async with server:
            await server.serve_forever()
    finally:
        ticker = getattr(server, "_repro_ticker", None)
        if ticker is not None:
            ticker.cancel()
