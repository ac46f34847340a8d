"""The HTTP edge: routing, error mapping, keep-alive, tenancy.

Boots the real asyncio server on an ephemeral port against a small
deployed world and speaks to it over TCP — both through
:class:`HttpServiceClient` and through hand-written raw requests for
the malformed cases a well-behaved client never sends.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan
from repro.service import RemosService, ServiceConfig
from repro.service.client import HttpServiceClient, ServiceError
from repro.service.http import MAX_BODY_BYTES, MAX_HEADER_BYTES, start_server


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


async def exchange(port: int, payload: bytes, eof: bool = False) -> bytes:
    """Send raw bytes (then half-close with ``eof``) and read until the
    server closes the connection: everything it answered."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        if eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


def responses(raw: bytes) -> list[tuple[int, bool, dict]]:
    """Split a byte stream of responses: [(status, closes, body)]."""
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        out.append((int(lines[0].split()[1]), headers["connection"] == "close", json.loads(body)))
    return out


async def raw_request(port: int, payload: bytes) -> tuple[int, dict]:
    """Send one ``Connection: close`` request; returns (status, body)."""
    ((status, _, body),) = responses(await exchange(port, payload))
    return status, body


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
            return [
                await raw_request(
                    port, b"GET /v1/%s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" % path
                )
                for path in (b"health", b"metrics")
            ]

        with obs.scoped_registry() as reg:
            (status, body), (m_status, metrics) = with_server(go)
        assert status == 200
        assert body["result"]["status"] == "ok"
        assert body["result"]["backend"]["kind"] == "master"
        assert m_status == 200 and metrics["result"]["breaker_transitions"] == 0
        assert "service.breaker_transitions" in reg.metric_names()

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

    def test_unknown_detail_is_400_and_leaves_the_breaker_closed(self):
        """A caller's mistake is answered once, 400, and costs other
        tenants nothing: it is never recorded by the breaker."""

        async def go(port, hosts, service):
            bogus = post("/v1/topology", {"hosts": hosts[:2], "detail": "bogus"})
            answers = [await raw_request(port, bogus) for _ in range(20)]
            health = await raw_request(
                port, b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            return answers, health

        answers, (status, health) = with_server(go)
        assert {(s, body["error"]["code"]) for s, body in answers} == {(400, "bad_request")}
        assert status == 200 and health["result"]["breaker"] == "closed"

    @pytest.mark.parametrize("field", [{"since": "abc"}, {"timeout_s": "soon"}])
    def test_subscribe_with_non_numeric_since_or_timeout_400(self, field):
        async def go(port, hosts, service):
            return await raw_request(port, post("/v1/subscribe", {"pairs": [], **field}))

        status, body = with_server(go)
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestAbandonedLongPoll:
    def test_client_gone_mid_wait_leaves_no_waiter_and_the_server_serves_on(self):
        async def until(cond, timeout_s=5.0):
            deadline = asyncio.get_running_loop().time() + timeout_s
            while not cond():
                assert asyncio.get_running_loop().time() < deadline, "timed out"
                await asyncio.sleep(0.01)

        async def go(port, hosts, service):
            waiters = service.hub._waiters
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(post("/v1/subscribe", {"pairs": [hosts[:2]], "timeout_s": 0.3}))
            await writer.drain()
            await until(lambda: waiters)
            parked = len(waiters)
            writer.close()
            await writer.wait_closed()
            await until(lambda: not waiters)
            health = await raw_request(
                port, b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            return parked, health

        parked, (status, body) = with_server(go)
        assert parked == 1
        assert status == 200 and body["result"]["status"] == "ok"


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

        with obs.scoped_registry() as reg:
            statuses = with_server(go, config)
        assert statuses[:2] == [200, 200]
        assert "rate_limited" in statuses[2:]
        assert reg.counter("service.ratelimited").value == statuses.count("rate_limited")

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


class TestRequestFraming:
    """What the edge refuses before dispatch: a request it cannot frame
    is answered 400 (or 413) with ``Connection: close`` and never
    reaches the service — ``/v1/invalidate`` with an empty body flushes
    every cache, so "dispatched anyway" is not harmless."""

    @staticmethod
    def refused(payload: bytes, eof: bool = False, status: int = 400):
        async def go(port, hosts, service):
            async with HttpServiceClient("127.0.0.1", port) as client:
                await client.flow_info(hosts[0], hosts[5])  # one LKG entry to lose
            before = service.stats["requests"]
            raw = await exchange(port, payload, eof=eof)
            return raw, service.stats["requests"] - before, len(service.lkg)

        raw, dispatched, lkg_entries = with_server(go)
        assert (dispatched, lkg_entries) == (0, 1)
        ((got, closes, body),) = responses(raw)
        assert (got, closes, body["error"]["code"]) == (status, True, "bad_request")
        return body["error"]["message"]

    def test_head_cut_off_before_its_blank_line_is_not_dispatched(self):
        message = self.refused(b"POST /v1/invalidate HTTP/1.1\r\nHost: t\r\n", eof=True)
        assert "cut off" in message

    def test_clean_eof_between_requests_closes_silently(self):
        async def go(port, hosts, service):
            idle = await exchange(port, b"", eof=True)
            after_one = await exchange(
                port, b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n", eof=True
            )
            return idle, after_one

        idle, after_one = with_server(go)
        assert idle == b""
        assert [(status, closes) for status, closes, _ in responses(after_one)] == [(200, False)]

    def test_transfer_encoding_is_refused_not_read_as_an_empty_body(self):
        message = self.refused(
            b"POST /v1/invalidate HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        assert "Transfer-Encoding" in message

    def test_conflicting_content_lengths_are_refused(self):
        message = self.refused(
            b"POST /v1/invalidate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 2\r\nContent-Length: 0\r\n\r\n{}"
        )
        assert "Content-Length" in message

    def test_repeated_equal_content_lengths_are_one_length(self):
        async def go(port, hosts, service):
            return await exchange(
                port,
                b"POST /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                b"Content-Length: 2\r\ncontent-length: 2\r\n\r\n{}",
            )

        assert [r[0] for r in responses(with_server(go))] == [200]

    def test_declared_body_over_the_cap_is_413(self):
        message = self.refused(
            b"POST /v1/invalidate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            status=413,
        )
        assert str(MAX_BODY_BYTES) in message

    def test_bare_lf_line_endings_are_not_a_head(self):
        self.refused(b"POST /v1/invalidate HTTP/1.1\nHost: t\n\n", eof=True)
        self.refused(b"POST /v1/invalidate HTTP/1.1\r\nHost: t\nX-Remos-Tenant: a\r\n\r\n")

    @pytest.mark.parametrize(
        "headers",
        [
            b"X-Pad: " + b"a" * (MAX_HEADER_BYTES + 64) + b"\r\n",
            b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * 100) for i in range(160)),
        ],
        ids=["one-header", "many-headers"],
    )
    def test_head_over_16_kib_is_refused(self, headers):
        assert len(headers) > MAX_HEADER_BYTES
        message = self.refused(b"POST /v1/invalidate HTTP/1.1\r\n" + headers + b"\r\n")
        assert "too large" in message

    def test_malformed_request_line_is_refused(self):
        self.refused(b"INVALIDATE\r\nHost: t\r\n\r\n")


class TestOnePassHead:
    def test_pipelined_requests_in_one_segment_are_answered_in_order(self):
        async def go(port, hosts, service):
            first = json.dumps({"src": hosts[0], "dst": hosts[5]}).encode()
            return await exchange(
                port,
                b"POST /v1/flow_info HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(first)
                + first
                + b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )

        (s1, closes1, flow), (s2, closes2, health) = responses(with_server(go))
        assert (s1, closes1, s2, closes2) == (200, False, 200, True)
        assert flow["result"]["kind"] == "flow" and "breaker" in health["result"]

    def test_header_names_match_case_insensitively(self):
        config = ServiceConfig(rate=1.0, burst=1.0)

        async def go(port, hosts, service):
            def health(tenant_header: bytes) -> bytes:
                return (
                    b"POST /v1/health HTTP/1.1\r\nhOST: t\r\n" + tenant_header + b"\r\n"
                    b"CONTENT-LENGTH: 2\r\nconnection: close\r\n\r\n{}"
                )

            return [
                responses(await exchange(port, health(header)))[0][0]
                for header in (b"X-REMOS-TENANT: a", b"x-remos-tenant: a", b"X-Remos-Tenant: b")
            ]

        # the second request drew on the first one's bucket; the body was read both times
        assert with_server(go, config) == [200, 429, 200]

    def test_body_at_the_cap_arrives_whole_under_the_reader_limit(self):
        async def go(port, hosts, service):
            frame = b'{"pad":"%s"}'
            body = frame % (b"x" * (MAX_BODY_BYTES - len(frame % b"")))
            assert len(body) == MAX_BODY_BYTES > 2 * MAX_HEADER_BYTES
            return await exchange(
                port,
                b"POST /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body,
            )

        # a body cut short would not parse: 400, not 200
        assert [r[0] for r in responses(with_server(go))] == [200]


class TestClientReadsResponsesWithTheSameParser:
    @pytest.mark.parametrize(
        "head",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
            b"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
        ],
        ids=["signed-length", "conflicting-lengths", "cut-off", "bare-lf"],
    )
    def test_malformed_response_head_is_a_backend_error(self, head):
        async def run():
            async def answer(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(head)
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with HttpServiceClient("127.0.0.1", port, timeout_s=5.0) as client:
                    with pytest.raises(ServiceError) as exc:
                        await client.health()
                    return exc.value
            finally:
                server.close()
                await server.wait_closed()

        err = asyncio.run(run())
        assert err.code == "backend_error" and "malformed response" in err.message
