"""The loop trap of ``conftest.py`` catches a coroutine that blocks.

Each planted coroutine blocks the loop one way: a ``time.sleep``, a
blocking ``recv`` on a socket, a step of the simulated clock.  Under the
trap every service test runs with, each one leaves a hit that fails the
test; here the hit is read, then cleared so that this test passes.  The
last test arms the service's own stall, ``service_delay``, which must
wait without blocking.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro import faults
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.netsim.engine import Engine
from repro.service import DirectClient, RemosService

from .conftest import SLOW_CALLBACK_S, LoopBlockedError, LoopTrap


def caught(trap: LoopTrap, words: str) -> None:
    """The trap would fail the test, naming ``words``; then forget it."""
    with pytest.raises(AssertionError, match=words):
        trap.check()
    trap.hits.clear()


def test_a_sleep_on_the_loop_fails_however_short(loop_trap):
    async def nap():
        time.sleep(0)

    with pytest.raises(LoopBlockedError):
        asyncio.run(nap())
    caught(loop_trap, "time.sleep called on a running event loop")


def test_a_blocking_recv_on_the_loop_fails(loop_trap):
    a, b = socket.socketpair()

    async def wait_for_a_byte():
        # nobody sends: the read holds the loop until its timeout
        a.settimeout(SLOW_CALLBACK_S * 1.2)
        with pytest.raises(TimeoutError):
            a.recv(1)

    with a, b:
        asyncio.run(wait_for_a_byte())
    caught(loop_trap, "took")


def test_stepping_the_simulation_on_the_loop_fails(loop_trap):
    engine = Engine()

    async def step():
        engine.run_until(1.0)

    with pytest.raises(LoopBlockedError):
        asyncio.run(step())
    caught(loop_trap, "Engine.run_until called on a running event loop")
    engine.run_until(1.0)  # off the loop it runs
    assert engine.now == 1.0


def test_an_armed_service_delay_waits_without_blocking():
    w = build_multisite_wan(
        [
            SiteSpec("aaa", access_bps=10 * MBPS, n_hosts=2),
            SiteSpec("bbb", access_bps=20 * MBPS, n_hosts=2),
        ]
    )
    dep = deploy_wan(w)
    faults.install(dep, faults.FaultPlan(service_delay_prob=1.0, service_delay_s=0.01))
    client = DirectClient(RemosService.from_deployment(dep))
    body = {"src": str(w.host("aaa", 0).ip), "dst": str(w.host("bbb", 0).ip)}

    ans, served = asyncio.run(client.served("flow_info", body))
    assert served == "live" and ans.ok
