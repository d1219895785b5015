"""The one asyncio server kernel behind ``serve --http``, ``route`` and
``cache-serve`` (docs/service.md, "Server kernel").

Stdlib only (``asyncio.start_server`` + a minimal HTTP/1.1 framing
layer): the repo's no-new-hard-deps rule applies to the network edge
too.  Defined here, once: the framing (:func:`read_request`,
:func:`encode_response`, and :func:`read_response` for the router's
client side); :class:`AsyncJsonServer` -- listener, keep-alive
connection loop, built-in ``/healthz`` ``/readyz`` ``/metrics``,
404/405 answers, status-bucket and in-flight accounting, and
SIGTERM/SIGINT with one drain order (stop listening -> wait for
in-flight handlers -> close idle keep-alive connections -> wait at most
5 s for handler tasks -> the subclass's ``on_drained()``); :func:`run`,
the banner-printing foreground entry; and :class:`BackgroundHarness`,
the in-process thread harness.  A server is a subclass overriding
:meth:`~AsyncJsonServer.handle` (its routes) plus whichever of the
``ready()`` / ``metrics()`` / ``on_start()`` / ``on_drained()`` /
``force_shutdown()`` hooks it needs.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass

#: request-body ceiling (a design source is tens of KB; 8 MiB is loud
#: misuse, not a workload)
MAX_BODY_BYTES = 8 * 1024 * 1024

#: per-header-section line cap
_MAX_HEADERS = 100

#: stray CRLFs tolerated before a request line (RFC 9112 asks servers to
#: skip "at least one"); past the cap the peer is not speaking HTTP
_MAX_BLANK_LINES = 8

#: how long a drain waits for handler tasks to observe their closed
#: transports before loop teardown cancels them
_LINGER_S = 5

_REASONS = {200: "OK", 204: "No Content", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            411: "Length Required", 413: "Payload Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            502: "Bad Gateway", 503: "Service Unavailable"}


# -- HTTP/1.1 framing ---------------------------------------------------------


class HttpError(Exception):
    """A request answered ``{"ok": false, "error": message}`` with
    *status*.  Raised by the framing layer it is a connection-level
    protocol error (answered, then closed); raised by a
    :meth:`AsyncJsonServer.handle` override it is an ordinary 4xx
    answer and the connection stays open."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict
    body: bytes

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def _read_headers(reader) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            raise HttpError(400, "header line too long")
        if not raw:
            raise HttpError(400, "truncated headers")
        text = raw.decode("latin-1").rstrip("\r\n")
        if not text:
            return headers
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > _MAX_HEADERS:
            raise HttpError(400, "too many headers")


async def _read_body(reader, headers: dict,
                     limit: int | None = None) -> bytes:
    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked bodies are not supported")
    raw_length = headers.get("content-length")
    if raw_length is None:
        raise HttpError(411, "Content-Length required")
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if limit is not None and length > limit:
        raise HttpError(413, f"body exceeds {limit} bytes")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated body")


async def read_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request; None on a clean EOF."""
    for _ in range(_MAX_BLANK_LINES + 1):
        try:
            line = await reader.readline()
        except ValueError:
            raise HttpError(400, "request line too long")
        if not line:
            return None
        text = line.decode("latin-1").strip()
        if text:
            break
    else:
        raise HttpError(400, "too many blank lines before a request")
    parts = text.split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version}")
    headers = await _read_headers(reader)
    body = b""
    if method in ("POST", "PUT"):
        body = await _read_body(reader, headers, MAX_BODY_BYTES)
    return HttpRequest(method, target.split("?", 1)[0], headers, body)


async def read_response(reader) -> tuple[int, dict, bytes]:
    """Parse one HTTP/1.1 response (the client side of the same
    framing): ``(status, headers, body)``.  Raises ``ConnectionError``
    on any framing problem -- the caller treats the peer as failed."""
    try:
        line = await reader.readline()
    except ValueError:
        raise ConnectionError("upstream status line too long")
    if not line:
        raise ConnectionError("upstream closed before status line")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError("malformed upstream status line")
    try:
        status = int(parts[1])
    except ValueError:
        raise ConnectionError("malformed upstream status code")
    try:
        headers = await _read_headers(reader)
        return status, headers, await _read_body(reader, headers)
    except HttpError as exc:
        raise ConnectionError(f"bad upstream response: {exc.message}")


def encode_response(status: int, body_obj, close: bool = False,
                    extra: tuple = ()) -> bytes:
    """One JSON response; a 204 carries no body and no content type."""
    body = b"" if status == 204 else json.dumps(body_obj).encode()
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}"]
    if status != 204:
        lines.append("Content-Type: application/json")
    lines += [f"Content-Length: {len(body)}",
              f"Connection: {'close' if close else 'keep-alive'}"]
    lines += [f"{name}: {value}" for name, value in extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def expect_route(request: HttpRequest, path: str, method: str) -> None:
    """404 unless *request* targets *path*, 405 unless by *method*."""
    if request.path != path:
        raise HttpError(404, f"no route {request.path}")
    if request.method != method:
        raise HttpError(405, f"{method} only")


def parse_address(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` (port 0 binds an ephemeral port)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise ValueError(f"--http expects HOST:PORT, got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"--http port must be an integer, got {port!r}")
    return host or "127.0.0.1", port_num


def close_quietly(writer) -> None:
    """Close a stream writer whose peer (or loop) may already be gone."""
    try:
        writer.close()
    except Exception:
        pass


# -- the server ---------------------------------------------------------------


class Connection:
    """One accepted client connection: where a handler writes its
    response.  Its identity doubles as the key of per-connection caps."""

    def __init__(self, server: "AsyncJsonServer", writer):
        self._server = server
        self._writer = writer
        #: answer the current request with ``Connection: close``
        self.close = False
        #: the current request has been answered
        self.answered = False

    async def write(self, status: int, body, extra: tuple = ()) -> None:
        """Send the (one) response to the current request."""
        self.answered = True
        self._server.status_totals[f"{status // 100}xx"] += 1
        try:
            self._writer.write(
                encode_response(status, body, self.close, extra))
            await self._writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass  # the client went away; the work is still accounted


class AsyncJsonServer:
    """One listening socket, JSON in and out, health and drain built in.

    All mutable state lives on the event-loop thread; there are no
    locks by construction.  Subclasses answer their own routes in
    :meth:`handle` and hook the lifecycle where they own resources.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        #: set by :meth:`force_shutdown` overrides: the drain stops
        #: waiting and :meth:`wait_drained` returns 1
        self.forced = False
        self._server: asyncio.base_events.Server | None = None
        # binds to the serving loop on first wait, not here
        self._drain_event = asyncio.Event()
        #: open connections: handler task -> its stream writer
        self._conns: dict = {}
        self._inflight = 0
        # counters -- mutated on the event-loop thread only
        self.http_requests = 0
        self.status_totals: Counter[str] = Counter()

    # -- what a subclass supplies --------------------------------------------

    async def handle(self, request: HttpRequest, conn: Connection) -> None:
        """Answer one request that is not a built-in endpoint with
        exactly one ``await conn.write(...)``, or raise
        :class:`HttpError` (:func:`expect_route` does, for a server
        with one route).  The base server has no routes."""
        raise HttpError(404, f"no route {request.path}")

    def ready(self) -> tuple[bool, dict]:
        """``/readyz`` while not draining: (ready?, body) -- answered
        200 or 503.  A draining server is unready without being asked."""
        return True, {"status": "ready"}

    def metrics(self) -> dict:
        """``/metrics`` payload; the kernel adds the ``http`` block."""
        return {}

    async def on_start(self) -> None:
        """Runs once the socket is listening (start background tasks)."""

    async def on_drained(self) -> None:
        """Runs last in a drain (cancel tasks, close pools)."""

    def force_shutdown(self) -> None:
        """Second-signal hook; the base server has nothing to abandon,
        so the graceful drain simply continues."""

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        await self.on_start()

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def draining(self) -> bool:
        return self._drain_event.is_set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._on_signal)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: self._on_signal())

    def _on_signal(self) -> None:
        if self.draining:
            self.force_shutdown()
        else:
            self.begin_drain()

    def begin_drain(self) -> None:
        """Start the graceful drain; in-flight work finishes.

        Must be called on the event-loop thread (the signal handlers
        and :class:`BackgroundHarness` both arrange that).
        """
        self._drain_event.set()

    async def wait_drained(self) -> int:
        """Block until a drain completes; 0 on graceful, 1 on forced."""
        await self._drain_event.wait()
        if self._server is not None:
            # stops listening at once; wait_closed() is not awaited --
            # from 3.12 it also waits for the open connections, which
            # this drain closes itself, in order, below
            self._server.close()
        # a handler leaves the in-flight count only after its response
        # bytes are flushed, so past this loop every owed response has
        # been written
        while self._inflight > 0 and not self.forced:
            await asyncio.sleep(0.02)
        lingering = dict(self._conns)
        for writer in lingering.values():
            close_quietly(writer)
        # let handler tasks observe the closed transports and return,
        # so loop teardown never cancels a task mid-await
        if lingering and not self.forced:
            await asyncio.wait(lingering, timeout=_LINGER_S)
        await self.on_drained()
        return 1 if self.forced else 0

    # -- connection handling -------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conns[task] = writer
        conn = Connection(self, writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    conn.close = True
                    await conn.write(exc.status,
                                     {"ok": False, "error": exc.message})
                    return
                except (ConnectionError, OSError):
                    return
                if request is None:
                    return
                self.http_requests += 1
                conn.close = request.wants_close
                conn.answered = False
                await self._dispatch(request, conn)
                if conn.close or self.draining:
                    return
        finally:
            del self._conns[task]
            close_quietly(writer)

    async def _dispatch(self, request: HttpRequest,
                        conn: Connection) -> None:
        try:
            builtin = self._builtin(request)
            if builtin is not None:
                await conn.write(*builtin)
                return
            self._inflight += 1
            try:
                await self.handle(request, conn)
            finally:
                self._inflight -= 1
        except HttpError as exc:
            await conn.write(exc.status,
                             {"ok": False, "error": exc.message})
        except Exception:
            # a handler bug must cost one connection, never the server
            # or a silent hang: report it, answer if nothing was, close
            traceback.print_exc(file=sys.stderr)
            conn.close = True
            if not conn.answered:
                await conn.write(500, {"ok": False,
                                       "error": "internal server error"})

    def _builtin(self, request: HttpRequest) -> tuple[int, dict] | None:
        """The endpoints every server answers the same way -- without
        entering the in-flight count, so ``/metrics`` never observes
        itself."""
        if request.path not in ("/healthz", "/readyz", "/metrics"):
            return None
        if request.method != "GET":
            raise HttpError(405, "GET only")
        if request.path == "/healthz":
            # liveness must answer under overload and during drain: no
            # subclass state is consulted
            return 200, {"status": "alive", "draining": self.draining}
        if request.path == "/readyz":
            ready, body = ((False, {"status": "draining"}) if self.draining
                           else self.ready())
            return (200 if ready else 503), body
        return 200, {**self.metrics(),
                     "http": {"requests": self.http_requests,
                              "responses": dict(self.status_totals),
                              "inflight": self._inflight}}


def run(server: AsyncJsonServer, banner: str) -> int:
    """Serve in the foreground until a signal drains *server*; returns
    the process exit status (0 graceful drain, 1 forced)."""

    async def main() -> int:
        await server.start()
        server.install_signal_handlers()
        host, port = server.address
        # scraped by tests/CI/bench to learn an ephemeral port; stderr
        # so stdout stays clean for tooling
        print(f"{banner} on http://{host}:{port}", file=sys.stderr,
              flush=True)
        return await server.wait_drained()

    return asyncio.run(main())


class BackgroundHarness:
    """An :class:`AsyncJsonServer` on a daemon thread, for tests and
    benchmarks.

    A subclass names its ``server_class``; the harness takes that
    class's constructor arguments and holds the instance as ``server``.
    ``start()`` returns once the socket is bound (``address`` is then
    set; bind port 0 to get an ephemeral port); ``stop()`` performs the
    graceful drain -- every in-flight request answered -- joins the
    thread, and is idempotent.  Usable as a context manager.
    """

    server_class: type[AsyncJsonServer] = AsyncJsonServer

    def __init__(self, *args, **kwargs):
        self.server = self.server_class(*args, **kwargs)
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def address_spec(self) -> str:
        assert self.address is not None
        return f"{self.address[0]}:{self.address[1]}"

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        ready = threading.Event()
        name = type(self.server).__name__
        self._thread = threading.Thread(
            target=self._main, args=(ready,),
            name=f"fveval-{name}", daemon=True)
        self._thread.start()
        if not ready.wait(30) or self._error is not None:
            raise RuntimeError(f"{name} failed to start: {self._error}")

    def _main(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._arun(ready))
        except BaseException as exc:  # surfaced by start()
            self._error = exc
        finally:
            ready.set()

    async def _arun(self, ready: threading.Event) -> None:
        await self.server.start()
        self.address = self.server.address
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        ready.set()
        await self._stop.wait()
        self.server.begin_drain()
        await self.server.wait_drained()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: a second stop()
        if self._thread is not None:
            self._thread.join(60)
