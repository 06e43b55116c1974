"""The asyncio TCP daemon: newline-delimited JSON over a socket.

Each accepted connection reads one JSON request per line; every line
is handled as an independent task, so a single connection can keep
many requests in flight (responses interleave — clients match on
``id``).  All failure modes produce a structured error line, never a
silently dropped connection; anything that escapes the service's own
failure boundary is counted in ``serve.unhandled`` (a healthy daemon
holds that at zero — the serve-smoke CI job asserts it).
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
from typing import Any

from .protocol import error_response
from .service import ServeConfig, ServeService

log = logging.getLogger(__name__)

#: per-line size cap (1 MiB): a sweep over the whole corpus fits with
#: orders of magnitude to spare, and no client can balloon the reader.
MAX_LINE = 1 << 20


def _encode(resp: dict) -> bytes:
    return json.dumps(resp, separators=(",", ":")).encode("utf-8") + b"\n"


async def _handle_line(
    service: ServeService,
    line: bytes,
    writer: asyncio.StreamWriter,
    wlock: asyncio.Lock,
    peer: str,
) -> None:
    try:
        try:
            obj = json.loads(line)
        except ValueError:
            resp = error_response(None, "bad-json", "line is not valid JSON")
        else:
            resp = await service.handle(obj, default_client=peer)
    except Exception as exc:  # the service's own boundary failed
        service.registry.counter("serve.unhandled").inc()
        log.exception("serve: unhandled error on request from %s", peer)
        resp = error_response(
            None, "internal", f"{type(exc).__name__}: {exc}"
        )
    try:
        async with wlock:
            writer.write(_encode(resp))
            await writer.drain()
    except (ConnectionError, RuntimeError):
        pass  # client went away mid-response


async def _handle_conn(
    service: ServeService,
    conns: dict,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    peer = str(writer.get_extra_info("peername"))
    wlock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    me = asyncio.current_task()
    conns[me] = (writer, tasks)
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                async with wlock:
                    writer.write(_encode(error_response(
                        None, "bad-request",
                        f"request line exceeds {MAX_LINE} bytes",
                    )))
                    await writer.drain()
                break
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.ensure_future(
                _handle_line(service, line, writer, wlock, peer)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except ConnectionError:
        pass
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            # close() alone: awaiting wait_closed() here races loop
            # shutdown (the transport finishes closing on its own).
            writer.close()
        except (ConnectionError, RuntimeError):
            pass
        del conns[me]


async def _close_idle(conns: dict) -> None:
    """Close every connection with no request in flight and wait for
    its handler: the reader sees EOF and the handler returns normally,
    instead of being cancelled mid-read when the event loop shuts
    down."""
    idle = [task for task, (_, tasks) in conns.items() if not tasks]
    for task in idle:
        conns[task][0].close()
    if idle:
        await asyncio.wait(idle, timeout=5.0)


async def start_server(
    service: ServeService, host: str = "127.0.0.1", port: int = 0,
    conns: dict | None = None,
) -> asyncio.AbstractServer:
    """Bind and start serving; ``port=0`` picks an ephemeral port
    (read it back from ``server.sockets[0].getsockname()``).  ``conns``,
    when given, is kept mapping each open connection's handler task to
    its writer and its set of in-flight request tasks."""
    conns = {} if conns is None else conns
    return await asyncio.start_server(
        lambda r, w: _handle_conn(service, conns, r, w),
        host=host, port=port, limit=MAX_LINE,
    )


async def serve_forever(
    config: ServeConfig,
    host: str = "127.0.0.1",
    port: int = 7421,
    registry: Any = None,
    ready: Any = None,
) -> None:
    """Run the daemon until cancelled or signalled.

    ``ready`` (an optional callable) receives the bound ``(host,
    port)`` once listening.  SIGTERM/SIGINT trigger the graceful-drain
    path: stop accepting, refuse new compute with structured
    ``draining`` errors, flush in-flight requests under
    ``config.drain_deadline``, checkpoint the write-ahead journal,
    close the connections left idle, and return normally (exit 0).
    With ``config.resume`` set, :func:`repro.store.sweep.resume_journals`
    resumes every incomplete journal under the store root *before* the
    socket binds, so a restarted daemon owes nothing from its previous
    life.
    """
    service = ServeService(config, registry=registry)
    if config.resume and service.store is not None:
        from ..store.sweep import resume_journals

        resume_journals(service.store, workers=config.compute_width)
    service.start_watchdog()
    conns: dict = {}
    server = await start_server(service, host, port, conns)
    addr = server.sockets[0].getsockname()[:2]
    log.info("serve: listening on %s:%s", *addr)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    hooked: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support

    if ready is not None:
        ready(addr)
    try:
        # The server accepts from start_server on.  Not serve_forever():
        # from Python 3.12 its cancellation waits for every connection
        # to close, so an idle client would hold the daemon before the
        # drain began.
        async with server:
            await stop.wait()
            log.info("serve: signal received; draining")
            server.close()  # stop accepting new connections
            report = await service.drain_and_close()
            log.info("serve: %s", report.format())
            await _close_idle(conns)
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
        await service.aclose()


def run_server(
    config: ServeConfig,
    host: str = "127.0.0.1",
    port: int = 7421,
    registry: Any = None,
) -> int:
    """Blocking CLI entry; returns an exit code (0 after a graceful
    signal-triggered drain)."""
    def _ready(addr: tuple) -> None:
        # printed (not logged) so scripts can scrape the bound port
        print(f"serving on {addr[0]}:{addr[1]}", flush=True)

    try:
        asyncio.run(serve_forever(config, host, port, registry, ready=_ready))
    except KeyboardInterrupt:
        # fallback for platforms where add_signal_handler is a no-op
        print("serve: shutting down")
    except OSError as exc:
        print(f"serve: cannot bind {host}:{port}: {exc}")
        return 1
    print("serve: drained, exiting", flush=True)
    return 0
