"""Clients for the Remos query service.

Two transports, one surface:

* :class:`HttpServiceClient` — a real TCP client (stdlib asyncio,
  HTTP/1.1 keep-alive) for talking to ``repro serve``;
* :class:`DirectClient` — in-process, calling
  :meth:`RemosService.dispatch` directly.  The closed-loop load
  benchmark runs thousands of these concurrently without burning file
  descriptors, while still traversing the full dispatch pipeline
  (rate limit, admission, breaker, serialization) — only the socket
  hop is skipped.

Both deserialize results through :func:`repro.service.wire.parse_result`,
so callers receive reconstructed ``Answer`` objects exactly as a
remote application would, and both surface policy rejections as
:class:`ServiceError` (carrying the wire error code).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.app import RemosService
from repro.service.http import body_length, read_head
from repro.service.wire import WireError, canonical_json, parse_result

__all__ = ["ServiceError", "DirectClient", "HttpServiceClient"]

#: re-export under the client-facing name: callers catch one exception
#: type regardless of transport
ServiceError = WireError


class _BaseClient:
    """Shared convenience wrappers over ``call(endpoint, body)``."""

    async def call(self, endpoint: str, body: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    async def request(self, endpoint: str, body: dict[str, Any]) -> Any:
        """Call and deserialize; raises :class:`ServiceError` on errors."""
        return parse_result(await self.call(endpoint, body))

    async def served(self, endpoint: str, body: dict[str, Any]) -> tuple[Any, str]:
        """Like :meth:`request` but also reports live vs shed_lkg."""
        envelope = await self.call(endpoint, body)
        return parse_result(envelope), str(envelope.get("served", "live"))

    # -- the Remos API, one coroutine per endpoint ---------------------

    async def flow_info(self, src: str, dst: str, **kw: Any) -> Any:
        return await self.request("flow_info", {"src": str(src), "dst": str(dst), **kw})

    async def flow_info_many(self, pairs: Any, **kw: Any) -> Any:
        body = {"pairs": [[str(s), str(d)] for s, d in pairs], **kw}
        return await self.request("flow_info_many", body)

    async def topology(self, hosts: Any, **kw: Any) -> Any:
        return await self.request("topology", {"hosts": [str(h) for h in hosts], **kw})

    async def node_info(self, hosts: Any, **kw: Any) -> Any:
        return await self.request("node_info", {"hosts": [str(h) for h in hosts], **kw})

    async def invalidate(self, sites: Any = None) -> Any:
        body = {"sites": None if sites is None else [str(s) for s in sites]}
        return await self.request("invalidate", body)

    async def subscribe(
        self, pairs: Any, since: int = 0, timeout_s: float = 0.0
    ) -> Any:
        body = {
            "pairs": [[str(s), str(d)] for s, d in pairs],
            "since": int(since),
            "timeout_s": float(timeout_s),
        }
        return await self.request("subscribe", body)

    async def health(self) -> Any:
        return await self.request("health", {})

    async def metrics(self) -> Any:
        return await self.request("metrics", {})


class DirectClient(_BaseClient):
    """In-process client: full dispatch pipeline, no socket."""

    def __init__(self, service: RemosService, tenant: str = "anonymous") -> None:
        self.service = service
        self.tenant = tenant

    async def call(self, endpoint: str, body: dict[str, Any]) -> dict[str, Any]:
        # round-trip the body through canonical JSON so in-process
        # callers cannot smuggle non-wire types past the dispatcher.  The
        # text keys the query's last-known-good answer, and the service
        # decodes it only for a step that reads the body
        text = canonical_json(body)
        if type(body) is dict and _reads_back_as_itself(body, text):
            return await self.service.dispatch(endpoint, None, self.tenant, text=text)
        return await self.service.dispatch(endpoint, json.loads(text), tenant=self.tenant)


def _reads_back_as_itself(body: dict[str, Any], text: str) -> bool:
    """Whether ``text``, the canonical text of ``body``, is also that of
    the body it decodes to.  Not when a dict has keys that are not
    strings: ``json`` sorts those before it writes them as strings, so
    ``{9: …, 10: …}`` decodes to a body whose text puts ``"10"`` first.

    A dict whose first key is a string has only string keys (mixed keys
    do not sort, and encoding them fails); a body whose text opens no
    second brace holds no other dict.  Any other body, a nested dict or
    a brace in a string, is decoded here and keyed by the service.
    """
    return (not body or type(next(iter(body))) is str) and text.find("{", 1) < 0


class HttpServiceClient(_BaseClient):
    """Keep-alive HTTP/1.1 client over one TCP connection.

    Not safe for concurrent calls on one instance (requests are
    pipelined strictly one at a time); open one client per concurrent
    task, as the load benchmark's wire phase does.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        tenant: str = "anonymous",
        timeout_s: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout_s = timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "HttpServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def call(self, endpoint: str, body: dict[str, Any]) -> dict[str, Any]:
        await self.connect()
        assert self._reader is not None and self._writer is not None
        payload = canonical_json(body).encode("utf-8")
        head = (
            f"POST /v1/{endpoint} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-Remos-Tenant: {self.tenant}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()
        return await asyncio.wait_for(self._read_response(), self.timeout_s)

    async def _read_response(self) -> dict[str, Any]:
        assert self._reader is not None
        try:
            head = await read_head(self._reader)
            if head is None:
                raise ServiceError("backend_error", "server closed the connection")
            length = body_length(head[1])
        except ValueError as exc:
            raise ServiceError("backend_error", f"malformed response: {exc}") from None
        raw = await self._reader.readexactly(length) if length else b""
        envelope = json.loads(raw.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ServiceError("backend_error", "malformed response envelope")
        return envelope
