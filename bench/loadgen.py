"""The load generator: server children and the HTTP clients that drive
them, closed loop and open loop.

Servers are the repo's own CLIs (``python -m repro serve --http`` /
``route``) started as children on ephemeral ports with default flags;
readiness is their banner line on stderr followed by ``GET /readyz``.
:class:`Fleet` tears every child down in ``close()`` -- terminate,
wait, then kill -- and callers hold it in ``try``/``finally``.

All load comes from this one process over two keep-alive connections
(``nproc`` of the bench box is 2).
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import threading
import time
from collections import deque
from http.client import HTTPConnection, HTTPException

from . import harness

CONNECTIONS = 2
READY_TIMEOUT_S = 60.0
_BANNER = re.compile(r"(?:serving|routing) on http://([\d.]+):(\d+)")


class Child:
    """One server child and the address its banner announced."""

    def __init__(self, args: list[str], spans_out=None):
        launcher = ([str(harness.ROOT / "bench" / "trace.py"),
                     str(spans_out)] if spans_out else ["-m", "repro"])
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, *args], cwd=harness.ROOT,
            env=harness.clean_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.stderr_tail: deque[str] = deque(maxlen=20)
        self._banner = threading.Event()
        self.host, self.port = "", 0
        # the drain thread ends at the child's EOF, i.e. with the child
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip())
            match = _BANNER.search(line)
            if match and not self._banner.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._banner.set()

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        if not self._banner.wait(READY_TIMEOUT_S):
            raise RuntimeError("server child printed no banner: "
                               + " | ".join(self.stderr_tail))
        while True:
            try:
                if get_json(self.host, self.port, "/readyz")[0] == 200:
                    return
            except (OSError, HTTPException):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server child never became ready: "
                                   + " | ".join(self.stderr_tail))
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stderr.close()


class Fleet:
    """The server children of one workload.

    ``replicas`` serve children; with ``routed`` a ``route`` child in
    front of them.  ``front`` is the address clients talk to.  With
    *spans_dir* every child runs under the traced launcher and writes
    ``<spans_dir>/<role>.spans.jsonl`` when it drains.
    """

    def __init__(self, replicas: int = 1, routed: bool = False,
                 spans_dir=None):
        self.children: dict[str, Child] = {}
        try:
            for index in range(replicas):
                self._start(f"serve{index}", ["serve", "--http",
                                              "127.0.0.1:0"], spans_dir)
            for child in self.children.values():
                child.wait_ready()
            if routed:
                members = ",".join(f"{c.host}:{c.port}"
                                   for c in self.children.values())
                self._start("route", ["route", "--replicas", members,
                                      "--listen", "127.0.0.1:0"], spans_dir)
                self.children["route"].wait_ready()
        except BaseException:
            self.close()
            raise
        front = self.children["route" if routed else "serve0"]
        self.front = (front.host, front.port)

    def _start(self, role: str, args: list[str], spans_dir) -> None:
        spans_out = spans_dir / f"{role}.spans.jsonl" if spans_dir else None
        self.children[role] = Child(args, spans_out)

    def replicas(self) -> list[Child]:
        return [c for role, c in self.children.items() if role != "route"]

    def peak_rss_mb(self) -> float:
        return sum(child.peak_rss_mb() for child in self.children.values())

    def metrics(self, role: str) -> dict:
        child = self.children[role]
        return get_json(child.host, child.port, "/metrics")[1]

    def close(self) -> None:
        # the router first, so it stops probing replicas that are going
        for role in sorted(self.children, key=lambda r: r != "route"):
            self.children[role].stop()


def get_json(host: str, port: int, path: str):
    conn = HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read() or b"null")
    finally:
        conn.close()


def post(conn: HTTPConnection, payload) -> tuple[int, object]:
    conn.request("POST", "/v1/verify", json.dumps(payload),
                 {"Content-Type": "application/json"})
    reply = conn.getresponse()
    body = reply.read()
    try:
        return reply.status, json.loads(body)
    except ValueError:
        return reply.status, None


def answers_of(status: int, body, batch) -> dict:
    """Answers by request id of one reply; a non-200, a malformed body
    or an ``ok=false`` item leaves its requests unanswered (they fail
    the check)."""
    items = body if isinstance(body, list) else [body]
    if status != 200 or len(items) != len(batch):
        return {}
    return {sent["request_id"]: (got["verdict"], got["func"], got["partial"])
            for sent, got in zip(batch, items)
            if isinstance(got, dict) and got.get("ok")}


def closed_pass(address, batches):
    """One closed-loop pass: connection ``j`` sends batches ``j, j +
    CONNECTIONS, ...`` back to back.  Returns per-batch latencies (in
    batch order), the answers and the pass wall."""
    latencies = [0.0] * len(batches)
    answers: dict = {}
    errors: list[str] = []

    def client(lane: int) -> None:
        conn = HTTPConnection(*address, timeout=120)
        try:
            for index in range(lane, len(batches), CONNECTIONS):
                started = time.perf_counter()
                try:
                    status, body = post(conn, batches[index])
                except (OSError, HTTPException) as exc:
                    errors.append(repr(exc))
                    conn.close()
                    status, body = 0, None
                latencies[index] = time.perf_counter() - started
                answers.update(answers_of(status, body, batches[index]))
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(lane,))
               for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for error in errors[:3]:
        print(f"closed-loop client error: {error}", flush=True)
    return latencies, answers, wall


def sequential_latencies(address, singles) -> list[float]:
    """One connection, one single-request POST at a time."""
    conn = HTTPConnection(*address, timeout=120)
    out = []
    try:
        for item in singles:
            started = time.perf_counter()
            post(conn, item)
            out.append(time.perf_counter() - started)
    finally:
        conn.close()
    return out


def arrival_times(rng: random.Random, rate: float,
                  duration_s: float) -> list[float]:
    """Poisson arrivals at *rate* over *duration_s*, conditioned on
    their expected count (so every seed sends the same number): the
    order statistics of uniform draws."""
    count = max(1, round(rate * duration_s))
    return sorted(rng.random() * duration_s for _ in range(count))


def open_step(address, schedule):
    """One open-loop step.  *schedule* is ``[(due offset, request)]``
    sorted by offset; ``CONNECTIONS`` senders share it, each taking the
    next arrival, sleeping until it is due, and waiting for its reply.
    Latency runs from the due time, so time a request spent waiting for
    a free sender counts.  Returns per-request ``(latency, lateness,
    status, body)`` in schedule order."""
    results: list = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        conn = HTTPConnection(*address, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, item = schedule[index]
                due = origin + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    status, body = post(conn, item)
                except (OSError, HTTPException):
                    conn.close()
                    status, body = 0, None
                results[index] = (time.perf_counter() - due, sent - due,
                                  status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
