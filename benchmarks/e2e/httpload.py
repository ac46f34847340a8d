"""Harness-owned HTTP load generator and the two ways a server is hosted.

The client writes pre-encoded request bytes and reads by
``Content-Length`` with a byte-level status check, so what the timed
path costs the *client* stays small and constant and is never charged
to the server (``HttpServiceClient`` would add a ``canonical_json``, a
``json.loads`` and header formatting per call).  Bodies are kept and
validated after the clock stops.
"""

from __future__ import annotations

import asyncio
import atexit
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import bootstrap
import machine
from repro.service.wire import canonical_json

_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: e2e\r\n\r\n"
_LENGTH = b"Content-Length: "


def encode_request(endpoint: str, body: dict[str, Any], tenant: str) -> bytes:
    payload = canonical_json(body).encode()
    head = (
        f"POST /v1/{endpoint} HTTP/1.1\r\n"
        "Host: e2e\r\n"
        f"X-Remos-Tenant: {tenant}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


def wait_ready(port: int, timeout_s: float = 60.0) -> None:
    """Block until ``/v1/health`` answers 200."""
    deadline = time.perf_counter() + timeout_s
    while True:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                sock.sendall(_HEALTH)
                if sock.recv(64).startswith(b"HTTP/1.1 200"):
                    return
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server on port {port} never answered /v1/health")
        time.sleep(0.01)


class ServerChild:
    """The stock HTTP edge in its own process (untraced runs)."""

    def __init__(self, n_sites: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(bootstrap.HERE / "serve_child.py"), "--sites", str(n_sites)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        # whatever way the harness leaves, the child is stopped and waited for
        atexit.register(self.close)
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != b"PORT":
                raise RuntimeError(f"server child did not report a port: {line!r}")
            self.port = int(line[1])
            wait_ready(self.port)
        except BaseException:
            self.close()
            raise

    def _ask(self, what: bytes) -> list[bytes]:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(what)
        self.proc.stdin.flush()
        return self.proc.stdout.readline().split()

    def _usage(self) -> tuple[float, float]:
        """The child's own (CPU seconds, peak RSS in MB) so far."""
        cpu_s, rss_mb = self._ask(b"?")
        return float(cpu_s), float(rss_mb)

    def calibration_s(self) -> float:
        """``machine.calibration_s`` as the child runs it now."""
        return float(self._ask(b"c")[0])

    def cpu_s(self) -> float:
        """User + system time of the child so far (the host load it causes)."""
        return self._usage()[0]

    def rss_mb(self) -> float:
        return self._usage()[1]

    def close(self) -> None:
        atexit.unregister(self.close)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class InProcessServer:
    """The same edge hosted on the harness's loop (traced runs only).

    Client and server then share one registry and one span stack, which
    is what lets a request's client span parent the server's spans.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, n_sites: int) -> None:
        import recipe
        from repro.service import RemosService, ServiceConfig, start_server

        self.loop = loop
        self.world = recipe.multisite_world(n_sites)
        self.service = RemosService.from_deployment(recipe.deploy(self.world), ServiceConfig())
        self.server = loop.run_until_complete(start_server(self.service, "127.0.0.1", 0))
        self.port = self.server.sockets[0].getsockname()[1]

    def cpu_s(self) -> float:
        return time.process_time()

    def rss_mb(self) -> float:
        return machine.peak_rss_mb()

    def calibration_s(self) -> float:
        return machine.calibration_s()

    def close(self) -> None:
        self.server.close()
        self.loop.run_until_complete(self.server.wait_closed())
        # connection handlers still have to see their sockets close
        handlers = asyncio.all_tasks(self.loop)
        if handlers:
            self.loop.run_until_complete(asyncio.wait(handlers, timeout=1.0))


@dataclass
class HttpResult:
    wall_s: float = 0.0
    lat_s: list[float] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    non_200: int = 0


class Connections:
    """``n`` keep-alive connections driven closed-loop from one thread."""

    def __init__(self, loop: asyncio.AbstractEventLoop, port: int, n: int) -> None:
        self.loop = loop
        self.streams = [
            loop.run_until_complete(asyncio.open_connection("127.0.0.1", port))
            for _ in range(n)
        ]

    def run(self, plans: list[list[bytes]], span: Any = None) -> HttpResult:
        """Send ``plans[i]`` down connection ``i``; all connections concurrently.

        ``span`` (traced runs) is a callable returning a context manager
        that brackets each round trip.
        """
        out = HttpResult()

        async def drive(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter, plan: list[bytes]
        ) -> None:
            for request in plan:
                t0 = time.perf_counter()
                if span is None:
                    head, body = await _round_trip(reader, writer, request)
                else:
                    with span():
                        head, body = await _round_trip(reader, writer, request)
                out.lat_s.append(time.perf_counter() - t0)
                if not head.startswith(b"HTTP/1.1 200"):
                    out.non_200 += 1
                out.bodies.append(body)

        async def drive_all() -> None:
            await asyncio.gather(
                *(drive(r, w, plan) for (r, w), plan in zip(self.streams, plans))
            )

        t0 = time.perf_counter()
        self.loop.run_until_complete(drive_all())
        out.wall_s = time.perf_counter() - t0
        return out

    def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
        for _, writer in self.streams:
            try:
                self.loop.run_until_complete(writer.wait_closed())
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _round_trip(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> tuple[bytes, bytes]:
    writer.write(request)
    head = await reader.readuntil(b"\r\n\r\n")
    at = head.index(_LENGTH) + len(_LENGTH)
    body = await reader.readexactly(int(head[at : head.index(b"\r\n", at)]))
    return head, body
