"""Minimal asyncio HTTP/1.1 JSON layer for ``repro serve``.

Stdlib only (``asyncio.start_server`` + hand-rolled request parsing) —
the serving subsystem adds **no dependencies**.  The surface is small
and fully JSON:

=======  =================  ==========================================
method   path               behaviour
=======  =================  ==========================================
GET      /healthz           liveness + version + uptime
GET      /metrics           per-request serving counters + store stats
POST     /submit            one cell; body ``{"trace": ..., "config":
                            ..., "engine": ...}``; 200 with the result,
                            400 on bad input, 429 when the bounded
                            queue is full
POST     /sweep             traces x configs batch; ``"wait": false``
                            returns a job id for polling
GET      /status/<job>      job progress
GET      /result/<job>      finished job grid (409 while running)
=======  =================  ==========================================

Every error body is machine-readable: ``{"error": {"code": <stable
code>, "message": ...}}`` — the codes come from the
:class:`~repro.errors.ReproError` hierarchy (``config-error``,
``queue-full``, ``unknown-job``...), never a traceback.

Connections are keep-alive (HTTP/1.1 default), which matters for the
closed-loop bench clients: the hit path costs one request/response on a
warm socket, no reconnect.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ReproError, WorkerDiedError
from .service import (
    JobNotDoneError,
    QueueFullError,
    ServeConfig,
    SimulationService,
    UnknownJobError,
)

#: Request bodies beyond this are rejected with 413 (a sweep of every
#: preset x benchmark is ~2 kB; this is pure DoS hygiene).
MAX_BODY_BYTES = 8 << 20
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _BadRequest(
                f"request body is not valid JSON: {error}"
            ) from error

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class _BadRequest(Exception):
    pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[_Request]:
    """Parse one request off the stream; None on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest(f"malformed request line: {line!r}") from None
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many header lines")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise _BadRequest(f"bad Content-Length: {length!r}") from None
        if n > MAX_BODY_BYTES:
            raise _BadRequest(f"body too large ({n} bytes)")
        if n:
            body = await reader.readexactly(n)
    parts = urlsplit(target)
    query = {}
    if parts.query:
        for pair in parts.query.split("&"):
            name, _, value = pair.partition("=")
            query[name] = value
    return _Request(method.upper(), parts.path, query, headers, body)


def _error_payload(code: str, message: str) -> Dict[str, Any]:
    return {"error": {"code": code, "message": message}}


class ServeApp:
    """Routes HTTP requests onto a :class:`SimulationService`."""

    def __init__(self, service: SimulationService):
        self.service = service
        #: Live connection-handler tasks; cancelled at shutdown so the
        #: event loop closes without pending keep-alive readers.
        self._connections: set = set()

    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as error:
                    await self._respond(
                        writer, 400,
                        _error_payload("bad-request", str(error)),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                status, payload = await self.dispatch(request)
                await self._respond(
                    writer, status, payload, keep_alive=request.keep_alive
                )
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            # Shutdown cancelled this handler.  End *normally*: the
            # 3.11 streams callback calls task.exception() on the
            # handler task, which would re-raise a cancelled state
            # into the loop's exception handler.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def aclose(self) -> None:
        """Cancel outstanding keep-alive connection handlers."""
        tasks = [t for t in self._connections if not t.done()]
        for pending in tasks:
            pending.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    async def dispatch(
        self, request: _Request
    ) -> Tuple[int, Dict[str, Any]]:
        service = self.service
        try:
            if request.path == "/healthz":
                if request.method != "GET":
                    return self._method_not_allowed(request)
                service.metrics.count_request("healthz")
                return 200, service.health_payload()
            if request.path == "/metrics":
                if request.method != "GET":
                    return self._method_not_allowed(request)
                service.metrics.count_request("metrics")
                return 200, service.metrics_payload()
            if request.path == "/submit":
                if request.method != "POST":
                    return self._method_not_allowed(request)
                service.metrics.count_request("submit")
                return 200, await service.submit(request.json())
            if request.path == "/sweep":
                if request.method != "POST":
                    return self._method_not_allowed(request)
                service.metrics.count_request("sweep")
                return 200, await service.submit_sweep(request.json())
            if request.path.startswith("/status/"):
                if request.method != "GET":
                    return self._method_not_allowed(request)
                service.metrics.count_request("status")
                return 200, service.job_status(request.path[len("/status/"):])
            if request.path.startswith("/result/"):
                if request.method != "GET":
                    return self._method_not_allowed(request)
                service.metrics.count_request("result")
                return 200, service.job_result(request.path[len("/result/"):])
            return 404, _error_payload(
                "not-found", f"no such endpoint: {request.path}"
            )
        except _BadRequest as error:
            service.metrics.errors += 1
            return 400, _error_payload("bad-request", str(error))
        except QueueFullError as error:
            # Deliberately NOT counted in metrics.errors: rejection is
            # backpressure working as intended (it has its own counter).
            return 429, _error_payload(error.code, str(error))
        except UnknownJobError as error:
            service.metrics.errors += 1
            return 404, _error_payload(error.code, str(error))
        except JobNotDoneError as error:
            return 409, _error_payload(error.code, str(error))
        except WorkerDiedError as error:
            # The server's fault, not the request's: retrying is safe.
            service.metrics.errors += 1
            return 503, _error_payload(error.code, str(error))
        except ReproError as error:
            service.metrics.errors += 1
            return 400, _error_payload(error.code, str(error))
        except Exception as error:  # noqa: BLE001 - boundary
            service.metrics.errors += 1
            print(
                f"serve: internal error on {request.method} "
                f"{request.path}: {type(error).__name__}: {error}",
                file=sys.stderr,
            )
            return 500, _error_payload(
                "internal-error",
                f"{type(error).__name__} (details logged server-side)",
            )

    @staticmethod
    def _method_not_allowed(request: _Request) -> Tuple[int, Dict[str, Any]]:
        return 405, _error_payload(
            "method-not-allowed",
            f"{request.method} not supported on {request.path}",
        )


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
async def serve_async(
    config: Optional[ServeConfig] = None,
    service: Optional[SimulationService] = None,
    *,
    ready: Optional["asyncio.Future"] = None,
    shutdown: Optional[asyncio.Event] = None,
) -> None:
    """Bind and serve until ``shutdown`` is set (or cancelled)."""
    config = config if config is not None else ServeConfig()
    service = service if service is not None else SimulationService(config)
    app = ServeApp(service)
    server = await asyncio.start_server(
        app.handle_connection, host=config.host, port=config.port
    )
    try:
        bound = server.sockets[0].getsockname()
        if ready is not None and not ready.done():
            ready.set_result((bound[0], bound[1]))
        if shutdown is None:
            async with server:
                await server.serve_forever()
        else:
            await shutdown.wait()
    finally:
        # Close the listener, then cancel live keep-alive handlers
        # BEFORE wait_closed(): on 3.12+ wait_closed blocks until every
        # handler finishes, and idle keep-alive readers never would.
        server.close()
        await app.aclose()
        try:
            await server.wait_closed()
        except asyncio.CancelledError:
            pass
        service.close()


def run_server(config: Optional[ServeConfig] = None) -> None:
    """Foreground entry point (``repro serve``); Ctrl-C to stop."""
    config = config if config is not None else ServeConfig()

    async def main() -> None:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()

        async def announce() -> None:
            # Printed after the bind so --port 0 reports the actual
            # ephemeral port, not the configured 0.
            host, port = await ready
            print(f"repro serve: listening on http://{host}:{port}")

        announcer = loop.create_task(announce())
        try:
            await serve_async(config, ready=ready)
        finally:
            announcer.cancel()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")


class ServerThread:
    """Run a server on a background thread (tests, bench, smoke).

    Binds an ephemeral port when ``config.port == 0``; :meth:`start`
    returns the actual ``(host, port)``.  The service object is exposed
    for white-box assertions.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        service: Optional[SimulationService] = None,
    ):
        self.config = config if config is not None else ServeConfig(port=0)
        self.service = (
            service if service is not None else SimulationService(self.config)
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"serve thread failed to bind: {self._error}"
            ) from self._error
        assert self.host is not None and self.port is not None
        return self.host, self.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # pragma: no cover - defensive
            if not self._started.is_set():
                self._error = error
                self._started.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        ready: asyncio.Future = asyncio.get_running_loop().create_future()

        async def announce() -> None:
            self.host, self.port = await ready
            self._started.set()

        announcer = asyncio.get_running_loop().create_task(announce())
        try:
            await serve_async(
                self.config,
                self.service,
                ready=ready,
                shutdown=self._shutdown,
            )
        finally:
            announcer.cancel()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout)
        self.service.close()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
