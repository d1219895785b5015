"""Kernel-contract suite: what ``serve --http``, ``route`` and
``cache-serve`` all inherit from :mod:`repro.service.aserver`, asserted
*identically* against the three servers (the shape of the cache
backend-conformance class) -- keep-alive, ``Connection: close``,
404/405, every framing rejection, the ``/metrics`` ``http`` block, the
drain order, and the background harness (docs/service.md, "Server
kernel")."""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
from http.client import HTTPResponse

import pytest

from repro.service import (
    BackgroundCacheServer,
    BackgroundRouter,
    BackgroundServer,
)
from repro.service.aserver import (
    MAX_BODY_BYTES,
    AsyncJsonServer,
    BackgroundHarness,
    read_response,
)

#: kind -> (harness class, constructor arguments, CLI arguments, banner).
#: The router fronts a port nothing listens on: the kernel contract
#: never forwards, so it needs no live replica.
_SERVERS = {
    "serve": (BackgroundServer, {},
              ["serve", "--http", "127.0.0.1:0"], "serving"),
    "route": (BackgroundRouter,
              {"replicas": "127.0.0.1:1", "health_interval": 60.0},
              ["route", "--replicas", "127.0.0.1:1",
               "--listen", "127.0.0.1:0"], "routing"),
    "cache-serve": (BackgroundCacheServer, {},
                    ["cache-serve", "--listen", "127.0.0.1:0"],
                    "cache-serve"),
}


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    for name in ("FVEVAL_FAULTS", "FVEVAL_CACHE", "FVEVAL_CACHE_TIERS",
                 "FVEVAL_WORKERS", "FVEVAL_EXECUTOR", "FVEVAL_MAX_QUEUE",
                 "FVEVAL_MAX_INFLIGHT"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(params=sorted(_SERVERS))
def kind(request):
    return request.param


def _release(server) -> None:
    service = getattr(server, "service", None)
    if service is not None:
        service.close()


@pytest.fixture
def address(kind):
    """A fresh in-process server of *kind*: its (host, port)."""
    harness_class, kwargs, _cli, _banner = _SERVERS[kind]
    with harness_class(**kwargs) as harness:
        yield harness.address
    _release(harness.server)


def _spawn_cli(*args):
    """``python -m repro ARGS`` as a child: (process, its first stderr
    line -- the banner)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args], cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        stderr=subprocess.PIPE, text=True)
    return proc, proc.stderr.readline()


def _reap(proc) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stderr.close()


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=10)
    sock.settimeout(10)
    return sock


def _read(sock):
    """One response off a raw socket: (status, headers, decoded body)."""
    response = HTTPResponse(sock)
    response.begin()
    body = response.read()
    headers = {name.lower(): value for name, value in response.getheaders()}
    return response.status, headers, json.loads(body) if body else None


def _ask(sock, method: str, path: str, *headers: str):
    lines = [f"{method} {path} HTTP/1.1", *headers, "", ""]
    sock.sendall("\r\n".join(lines).encode("latin-1"))
    return _read(sock)


def _closed(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True


class TestConnectionLoop:
    def test_keep_alive_reuses_one_socket(self, address):
        with _connect(address) as sock:
            for path in ("/healthz", "/metrics", "/healthz"):
                status, headers, _ = _ask(sock, "GET", path)
                assert status == 200
                assert headers["connection"] == "keep-alive"
            _, _, metrics = _ask(sock, "GET", "/metrics")
        assert metrics["http"]["requests"] == 4

    def test_connection_close_is_honoured(self, address):
        with _connect(address) as sock:
            status, headers, _ = _ask(sock, "GET", "/healthz",
                                      "Connection: close")
            assert status == 200 and headers["connection"] == "close"
            assert _closed(sock)

    def test_unknown_route_is_404_and_keeps_the_connection(self, address):
        with _connect(address) as sock:
            status, _, body = _ask(sock, "GET", "/nope")
            assert status == 404
            assert body == {"ok": False, "error": "no route /nope"}
            assert _ask(sock, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize("method, path", [("POST", "/healthz"),
                                              ("DELETE", "/metrics"),
                                              ("PUT", "/readyz")])
    def test_builtins_are_get_only(self, address, method, path):
        with _connect(address) as sock:
            status, _, body = _ask(sock, method, path, "Content-Length: 0")
            assert status == 405
            assert body == {"ok": False, "error": "GET only"}


_MANY_HEADERS = "".join(f"X-Pad-{i}: v\r\n" for i in range(101))

#: (label, raw bytes sent, half-close after sending, expected status)
_REJECTIONS = [
    ("malformed-request-line", b"GARBAGE\r\n\r\n", False, 400),
    ("unsupported-protocol", b"GET /healthz SPDY/3\r\n\r\n", False, 400),
    ("malformed-header", b"GET /healthz HTTP/1.1\r\nno colon\r\n\r\n",
     False, 400),
    ("too-many-headers",
     f"GET /healthz HTTP/1.1\r\n{_MANY_HEADERS}\r\n".encode(), False, 400),
    ("no-content-length", b"POST /healthz HTTP/1.1\r\n\r\n", False, 411),
    ("bad-content-length",
     b"POST /healthz HTTP/1.1\r\nContent-Length: many\r\n\r\n", False, 400),
    ("body-too-large",
     f"POST /healthz HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
     f"\r\n\r\n".encode(), False, 413),
    ("chunked",
     b"POST /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
     False, 501),
    ("truncated-body",
     b"POST /healthz HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", True, 400),
    ("truncated-headers", b"GET /healthz HTTP/1.1\r\nHost: x\r\n", True,
     400),
    # the shown defect: one recursion per stray blank line ended the
    # handler task with RecursionError and no response at all
    ("blank-line-flood",
     b"\r\n" * 3000 + b"GET /healthz HTTP/1.1\r\n\r\n", False, 400),
]


class TestFraming:
    @pytest.mark.parametrize(
        "raw, half_close, expected",
        [pytest.param(*case[1:], id=case[0]) for case in _REJECTIONS])
    def test_rejection_is_answered_then_closed(self, address, raw,
                                               half_close, expected):
        with _connect(address) as sock:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            status, headers, body = _read(sock)
            assert status == expected
            assert body["ok"] is False and body["error"]
            assert headers["connection"] == "close"
            assert _closed(sock)

    def test_a_few_stray_blank_lines_are_tolerated(self, address):
        with _connect(address) as sock:
            sock.sendall(b"\r\n\r\n")
            assert _ask(sock, "GET", "/healthz")[0] == 200

    def test_metrics_count_status_buckets(self, address):
        with _connect(address) as sock:
            assert _ask(sock, "GET", "/healthz")[0] == 200
            assert _ask(sock, "GET", "/nope")[0] == 404
            assert _ask(sock, "POST", "/metrics",
                        "Content-Length: 0")[0] == 405
        with _connect(address) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert _read(sock)[0] == 400
        with _connect(address) as sock:
            _, _, metrics = _ask(sock, "GET", "/metrics")
        # a request counts once parsed (the garbage never was); the
        # /metrics response itself is written after the snapshot
        assert metrics["http"] == {"requests": 4, "inflight": 0,
                                   "responses": {"2xx": 1, "4xx": 3}}


class _Faulty(AsyncJsonServer):
    async def handle(self, request, conn):
        raise RuntimeError("handler bug")


class _FaultyHarness(BackgroundHarness):
    server_class = _Faulty


class TestHandlerBoundary:
    def test_handler_exception_costs_one_connection_not_the_server(
            self, capsys):
        with _FaultyHarness() as harness:
            with _connect(harness.address) as sock:
                status, headers, body = _ask(sock, "GET", "/boom")
                assert status == 500 and headers["connection"] == "close"
                assert body == {"ok": False,
                                "error": "internal server error"}
                assert _closed(sock)
            with _connect(harness.address) as sock:
                _, _, metrics = _ask(sock, "GET", "/metrics")
        assert metrics["http"]["responses"] == {"5xx": 1}
        assert metrics["http"]["inflight"] == 0
        assert "handler bug" in capsys.readouterr().err  # reported


# ---------------------------------------------------------------------------
# drain: healthz answers, idle connections close, exit status 0
# ---------------------------------------------------------------------------


async def _aget(reader, writer, path: str):
    writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
    await writer.drain()
    status, headers, body = await asyncio.wait_for(read_response(reader),
                                                   10)
    return status, headers, json.loads(body)


class TestDrain:
    @staticmethod
    def run(kind, scenario):
        """Drive one server of *kind* on this thread's own loop, so the
        test -- not a signal -- decides when each drain step runs."""
        harness_class, kwargs, _cli, _banner = _SERVERS[kind]
        server = harness_class.server_class(**kwargs)

        async def main():
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                await scenario(server, reader, writer)
            finally:
                writer.close()

        try:
            asyncio.run(main())
        finally:
            _release(server)

    def test_healthz_answers_during_drain(self, kind):
        async def scenario(server, reader, writer):
            status, _, body = await _aget(reader, writer, "/healthz")
            assert status == 200 and body["draining"] is False
            server.begin_drain()
            status, headers, body = await _aget(reader, writer, "/healthz")
            assert status == 200
            assert body == {"status": "alive", "draining": True}
            # a draining server answers, then stops keeping alive
            assert await asyncio.wait_for(reader.read(), 10) == b""
            assert await asyncio.wait_for(server.wait_drained(), 10) == 0

        self.run(kind, scenario)

    def test_readyz_reports_draining(self, kind):
        async def scenario(server, reader, writer):
            assert (await _aget(reader, writer, "/readyz"))[0] == 200
            server.begin_drain()
            status, _, body = await _aget(reader, writer, "/readyz")
            assert status == 503 and body == {"status": "draining"}
            assert await asyncio.wait_for(server.wait_drained(), 10) == 0

        self.run(kind, scenario)

    def test_drain_closes_an_idle_keep_alive_connection(self, kind):
        async def scenario(server, reader, writer):
            assert (await _aget(reader, writer, "/healthz"))[0] == 200
            server.begin_drain()
            assert await asyncio.wait_for(server.wait_drained(), 10) == 0
            assert await asyncio.wait_for(reader.read(), 10) == b""

        self.run(kind, scenario)

    def test_sigterm_drains_the_cli_to_exit_status_0(self, kind):
        _harness, _kwargs, cli, banner = _SERVERS[kind]
        proc, first = _spawn_cli(*cli)
        try:
            match = re.fullmatch(
                rf"{banner} on http://([\d.]+):(\d+)\n", first)
            assert match, f"no {banner!r} banner in {first!r}"
            with _connect((match.group(1), int(match.group(2)))) as sock:
                assert _ask(sock, "GET", "/healthz")[0] == 200
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
                assert _closed(sock)  # the idle keep-alive was closed
        finally:
            _reap(proc)


DEEP_WIRE = {
    "kind": "prove", "use_cache": False, "deadline_s": 60,
    "engine": {"max_bmc": 64, "max_k": 40},
    "source": "module deep(input logic clk); logic [23:0] c; "
              "always_ff @(posedge clk) c <= c + 24'd1; "
              "p: assert property (@(posedge clk) c != 24'hFFFFFF); "
              "endmodule"}


class TestForcedShutdown:
    def test_second_signal_abandons_the_drain(self, wait_inflight,
                                              monkeypatch):
        """``serve`` only: a second signal kills the worker processes,
        says so and exits 1 at once -- it does not wait out the minute
        the in-flight proof would take."""
        # every solve of the deep proof sleeps a second (core/faults.py
        # slow_solve): the unit is in flight for as long as the test
        # needs, however fast the engine gets
        monkeypatch.setenv("FVEVAL_FAULTS", "slow_solve:1.0:1.0")
        proc, banner = _spawn_cli("serve", "--http", "127.0.0.1:0",
                                  "--workers", "2", "--executor", "process")
        try:
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            host, port = match.group(1), int(match.group(2))
            with _connect((host, port)) as sock:
                body = json.dumps(DEEP_WIRE)
                sock.sendall(f"POST /v1/verify HTTP/1.1\r\nContent-Length: "
                             f"{len(body)}\r\n\r\n{body}".encode())
                wait_inflight(host, port, 1)
                proc.send_signal(signal.SIGTERM)  # graceful: keeps waiting
                with pytest.raises(subprocess.TimeoutExpired):
                    proc.wait(timeout=0.5)
                proc.send_signal(signal.SIGTERM)  # forced
                assert proc.wait(timeout=30) == 1
            assert "forced shutdown" in proc.stderr.read()
        finally:
            _reap(proc)


class TestBackgroundHarness:
    def test_stop_is_idempotent(self, kind):
        harness_class, kwargs, _cli, _banner = _SERVERS[kind]
        harness = harness_class(**kwargs)
        harness.start()
        try:
            assert harness.address_spec == "%s:%d" % harness.address
            harness.stop()
            harness.stop()  # raised "Event loop is closed" for two of three
        finally:
            _release(harness.server)
