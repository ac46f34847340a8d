"""Server child: one multisite world behind the stock HTTP edge.

Booted by :class:`httpload.ServerChild`.  Prints ``PORT <n>`` once the
socket is bound and serves until its stdin closes, so a harness that
dies takes its server with it.  Any byte on stdin is answered with one
line, ``<process CPU seconds> <peak RSS in MB>``: the child reads its
own clocks, at their full resolution.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

import bootstrap
import machine


async def serve(service: object) -> None:
    from repro.service.http import start_server

    server = await start_server(service, host="127.0.0.1", port=0)
    print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = loop.create_future()

    def on_stdin() -> None:
        asked = os.read(sys.stdin.fileno(), 1)
        if asked == b"c":
            print(repr(machine.calibration_s()), flush=True)
        elif asked:
            print(repr(time.process_time()), machine.peak_rss_mb(), flush=True)
        elif not stdin_closed.done():
            stdin_closed.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    try:
        await stdin_closed
    finally:
        loop.remove_reader(sys.stdin.fileno())
        server.close()
        await server.wait_closed()
        # connection handlers still have to see their sockets close
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=1.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sites", type=int, required=True)
    args = parser.parse_args()
    bootstrap.add_src()
    import recipe
    from repro.service import RemosService, ServiceConfig

    dep = recipe.deploy(recipe.multisite_world(args.sites))
    service = RemosService.from_deployment(dep, ServiceConfig())
    asyncio.run(serve(service))
    return 0


if __name__ == "__main__":
    sys.exit(main())
