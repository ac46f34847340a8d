"""The HTTP edge: routing, error mapping, keep-alive, tenancy.

Boots the real asyncio server on an ephemeral port against a small
deployed world and speaks to it over TCP — both through
:class:`HttpServiceClient` and through hand-written raw requests for
the malformed cases a well-behaved client never sends.
"""

import asyncio
import json

import pytest

from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan
from repro.service import RemosService, ServiceConfig
from repro.service.client import HttpServiceClient, ServiceError
from repro.service.http import start_server


def make_service(config=None):
    lan = build_switched_lan(8, fanout=4)
    dep = deploy_lan(lan)
    lan.net.engine.run_until(lan.net.now + 10.0)
    hosts = [str(h.ip) for h in lan.hosts]
    return RemosService.from_deployment(dep, config or ServiceConfig()), hosts


def with_server(coro_fn, config=None):
    """Run ``coro_fn(port, hosts, service)`` against a live server."""

    async def run():
        service, hosts = make_service(config)
        server = await start_server(service, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_fn(port, hosts, service)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(run())


async def raw_request(port: int, payload: bytes) -> tuple[int, dict]:
    """Send raw bytes, read one response; returns (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = json.loads(await reader.readexactly(length)) if length else {}
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionResetError:
            pass


def post(path: str, body: dict) -> bytes:
    payload = json.dumps(body).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + payload


class TestRouting:
    def test_flow_info_round_trip(self):
        async def go(port, hosts, service):
            async with HttpServiceClient("127.0.0.1", port) as client:
                return await client.flow_info(hosts[0], hosts[5])

        ans = with_server(go)
        assert ans.ok and ans.available_bps > 0

    def test_health_and_metrics_get(self):
        async def go(port, hosts, service):
            return await raw_request(
                port, b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )

        status, body = with_server(go)
        assert status == 200
        assert body["result"]["status"] == "ok"
        assert body["result"]["backend"]["kind"] == "master"

    def test_unknown_endpoint_404(self):
        async def go(port, hosts, service):
            return await raw_request(port, post("/v1/teleport", {}))

        status, body = with_server(go)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unversioned_path_404(self):
        async def go(port, hosts, service):
            return await raw_request(port, post("/flow_info", {}))

        status, body = with_server(go)
        assert status == 404
        assert "/v1" in body["error"]["message"]

    def test_wrong_method_405(self):
        async def go(port, hosts, service):
            return await raw_request(
                port,
                b"GET /v1/flow_info HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )

        status, body = with_server(go)
        assert status == 405
        assert body["error"]["code"] == "bad_request"


class TestBadInput:
    def test_junk_json_400(self):
        async def go(port, hosts, service):
            raw = b"not json {"
            head = (
                f"POST /v1/flow_info HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
            ).encode()
            return await raw_request(port, head + raw)

        status, body = with_server(go)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0", "\xb2"])
    def test_bad_content_length_400_and_close(self, length):
        """A Content-Length that is not plain digits is answered 400 and
        the connection closed — it used to escape as ValueError and drop
        the connection without a response."""

        async def go(port, hosts, service):
            head = (
                f"POST /v1/flow_info HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode("latin-1")
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(head + b"{}")
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
            return response

        response = with_server(go)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_missing_arguments_400(self):
        async def go(port, hosts, service):
            return await raw_request(port, post("/v1/flow_info", {"src": "only"}))

        status, body = with_server(go)
        assert status == 400

    def test_unknown_host_answers_failed_not_error(self):
        """Uncovered pairs are data, not errors: the session's FAILED
        answer crosses the wire as a 200 — and must never enter the
        LKG store (a later shed may not replay a failure)."""

        async def go(port, hosts, service):
            status, body = await raw_request(
                port, post("/v1/flow_info", {"src": "10.99.0.1", "dst": "10.99.0.2"})
            )
            return status, body, len(service.lkg)

        status, body, lkg_entries = with_server(go)
        assert status == 200
        assert body["ok"] is True
        assert body["result"]["status"] == "failed"
        assert lkg_entries == 0


class TestKeepAlive:
    def test_many_requests_one_connection(self):
        async def go(port, hosts, service):
            async with HttpServiceClient("127.0.0.1", port) as client:
                answers = []
                for i in range(5):
                    answers.append(await client.flow_info(hosts[0], hosts[i + 1]))
                return answers

        answers = with_server(go)
        assert len(answers) == 5 and all(a.ok for a in answers)


class TestTenancy:
    def test_rate_limit_maps_to_429(self):
        config = ServiceConfig(rate=1.0, burst=2.0)

        async def go(port, hosts, service):
            async with HttpServiceClient(
                "127.0.0.1", port, tenant="greedy"
            ) as client:
                statuses = []
                for _ in range(4):
                    try:
                        await client.health()
                        statuses.append(200)
                    except ServiceError as err:
                        statuses.append(err.code)
                return statuses

        statuses = with_server(go, config)
        assert statuses[:2] == [200, 200]
        assert "rate_limited" in statuses[2:]

    def test_tenants_do_not_share_buckets(self):
        config = ServiceConfig(rate=1.0, burst=1.0)

        async def go(port, hosts, service):
            async with HttpServiceClient("127.0.0.1", port, tenant="a") as ca:
                await ca.health()
                with pytest.raises(ServiceError):
                    await ca.health()
            async with HttpServiceClient("127.0.0.1", port, tenant="b") as cb:
                return await cb.health()

        assert (with_server(go, config))["status"] == "ok"
