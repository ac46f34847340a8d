"""``repro serve`` as shipped: a process that answers over HTTP, runs the
subscription ticker, and stops cleanly on SIGINT.

Starts ``python -m repro serve hub`` on a free port, then speaks to it
with a plain HTTP client: health, one flow answer, and a long poll on a
pair nobody watched before, which only the server's background ticker
can answer.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.netsim.builders import build_hub_lan

SRC = Path(__file__).resolve().parent.parent / "src"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def request(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def wait_for_health(proc: subprocess.Popen, port: int, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    while True:
        if proc.poll() is not None:
            pytest.fail(f"repro serve exited early with {proc.returncode}")
        try:
            return request(port, "GET", "/v1/health")
        except OSError:
            if time.monotonic() > deadline:
                pytest.fail("repro serve never answered /v1/health")
            time.sleep(0.1)


def test_repro_serve_answers_publishes_and_stops_on_sigint(tmp_path):
    hosts = [str(h.ip) for h in build_hub_lan().hosts]
    port = free_port()
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "hub",
             "--port", str(port), "--warmup", "10", "--tick", "0.2"],
            stdout=out, stderr=err, env=env,
        )
        try:
            status, health = wait_for_health(proc, port)
            assert status == 200 and health["ok"]
            assert health["result"]["status"] == "ok"

            body = {"src": hosts[0], "dst": hosts[1]}
            status, flow = request(port, "POST", "/v1/flow_info", body)
            assert status == 200 and flow["served"] == "live"
            assert flow["result"]["kind"] == "flow"
            assert flow["result"]["status"] == "ok"
            assert flow["result"]["available_bps"] > 0

            # a pair nobody watched: the long poll returns when the ticker
            # first sweeps it and publishes its answer
            pair = [hosts[2], hosts[3]]
            status, subs = request(
                port, "POST", "/v1/subscribe", {"pairs": [pair], "since": 0, "timeout_s": 20.0}
            )
            assert status == 200
            events = subs["result"]["events"]
            assert [e["channel"] for e in events] == [f"{pair[0]}->{pair[1]}"]
            assert events[0]["seq"] == subs["result"]["seq"] == 1
            assert events[0]["payload"]["src"] == pair[0]
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
    assert code == 0, (tmp_path / "err").read_text()[-2000:]
    assert "interrupted; shutting down" in (tmp_path / "out").read_text()
