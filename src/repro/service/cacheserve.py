"""Shared warm-tier cache server (``python -m repro cache-serve``).

A tiny content-addressed HTTP store for verdict-cache entries, so N
``python -m repro serve`` replicas (or N benchmark runs) share one warm
tier through :class:`~repro.core.cache.RemoteBackend`.  A route table
over the shared server kernel (:mod:`repro.service.aserver`: listener,
keep-alive loop, framing errors, drain, signals -- docs/service.md).

Wire protocol (docs/cache.md):

``GET /v1/cache/<ns>/<key>``
    200 + the stored JSON object, or 404 on a miss.
``PUT /v1/cache/<ns>/<key>``
    Store one JSON object under the key; 204.  Keys are full SHA-256
    hex digests (:meth:`~repro.core.cache.VerdictCache.key`) -- the
    server is content-addressed and never inspects entry semantics.
``DELETE /v1/cache/<ns>/<key>``
    204, or 404 when absent (both are success to the client).
``GET /v1/keys/<ns>``
    ``{"keys": [...]}`` -- the namespace's stored keys.
``GET /healthz`` / ``GET /readyz`` / ``GET /metrics``
    The kernel's built-ins; ``/metrics`` adds per-backend stats and TTL
    counters to the request totals.

Storage is a :class:`~repro.core.cache.MemoryBackend` with the usual
``FVEVAL_CACHE_MEM_MAX``-style entry/byte caps, optionally write-through
to a :class:`~repro.core.cache.DiskBackend` directory (``--dir``) so the
warm tier survives restarts and is compactable by ``cache-gc``.  Clients
treat this server as *best-effort*: a dead or unreachable cache-serve
process fails open in the tiered :class:`~repro.core.cache.VerdictCache`
(a ``cache_remote`` FaultEvent plus a cooldown, never an error
response), so the server needs no HA story.
"""

from __future__ import annotations

import asyncio
import json
import time

from .aserver import (
    AsyncJsonServer, BackgroundHarness, Connection, HttpError, HttpRequest,
    parse_address, run,
)

# ..core.cache is imported lazily (inside CacheServer.__init__ and the
# routing path): repro.core's package init imports repro.service, so a
# module-level import here would be circular when repro.service loads
# first (e.g. ``from repro.service import BackgroundCacheServer`` as
# the process's first repro import)

__all__ = ["CacheServer", "BackgroundCacheServer", "serve_cache"]


class CacheServer(AsyncJsonServer):
    """One listening socket over a memory (+ optional disk) store.

    Reads check memory first, then disk (promoting the entry); writes go
    to both.  All storage calls are local and fast, so they run inline
    on the event loop -- the server trades peak concurrency for zero
    thread plumbing, which is the right trade for a cache whose clients
    fail open anyway.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_entries: int | None = None,
                 max_bytes: int | None = None,
                 disk_dir: str | None = None,
                 ttl_s: float | None = None):
        from ..core.cache import DiskBackend, MemoryBackend
        super().__init__(host, port)
        self.memory = MemoryBackend(max_entries=max_entries,
                                    max_bytes=max_bytes)
        self.disk = DiskBackend(disk_dir) if disk_dir else None
        #: entry time-to-live (None = entries never expire).  Expiry is
        #: lazy -- a stale entry found on GET is dropped and answered
        #: 404 -- plus a periodic sweep so untouched entries do not
        #: linger in memory for the full LRU horizon.
        self.ttl_s = float(ttl_s) if ttl_s else None
        #: (namespace, key) -> time.time() of the last PUT (entries
        #: inherited from a pre-existing --dir fall back to file mtime)
        self._stamps: dict[tuple[str, str], float] = {}
        self.expired = 0
        self._sweep_task: asyncio.Task | None = None

    # -- lifecycle hooks -----------------------------------------------------

    async def on_start(self) -> None:
        if self.ttl_s is not None:
            self._sweep_task = asyncio.get_running_loop().create_task(
                self._sweep_loop())

    async def on_drained(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()

    # -- routing -------------------------------------------------------------

    async def handle(self, request: HttpRequest, conn: Connection) -> None:
        await conn.write(*self._route(request))

    def _route(self, request: HttpRequest) -> tuple[int, object]:
        from ..core.cache import KEY_RE, NAMESPACE_RE
        parts = request.path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == "keys":
            if request.method != "GET":
                raise HttpError(405, "GET only")
            namespace = parts[2]
            if not NAMESPACE_RE.match(namespace):
                raise HttpError(400, "bad namespace")
            keys = set(self.memory.scan(namespace))
            if self.disk is not None:
                keys.update(self.disk.scan(namespace))
            return 200, {"keys": sorted(keys)}
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "cache":
            namespace, key = parts[2], parts[3]
            if not NAMESPACE_RE.match(namespace):
                raise HttpError(400, "bad namespace")
            if not KEY_RE.match(key):
                raise HttpError(400, "key must be a sha256 hex digest")
            return self._route_entry(request, namespace, key)
        raise HttpError(404, f"no route {request.path}")

    def _route_entry(self, request: HttpRequest, namespace: str,
                     key: str) -> tuple[int, object]:
        if request.method == "GET":
            if self._expire_if_stale(namespace, key):
                raise HttpError(404, "expired")
            value = self.memory.get(namespace, key)
            if value is None and self.disk is not None:
                value = self.disk.get(namespace, key)
                if value is not None:  # promote for the next reader
                    self.memory.put(namespace, key, value)
            if value is None:
                raise HttpError(404, "miss")
            return 200, value
        if request.method == "PUT":
            try:
                value = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise HttpError(400, "body is not valid JSON")
            if not isinstance(value, dict):
                raise HttpError(400, "entry must be a JSON object")
            self.memory.put(namespace, key, value)
            if self.disk is not None:
                self.disk.put(namespace, key, value)
            if self.ttl_s is not None:
                self._stamps[(namespace, key)] = time.time()
            return 204, None
        if request.method == "DELETE":
            present = self.memory.get(namespace, key) is not None
            self.memory.delete(namespace, key)
            if self.disk is not None:
                present = (self.disk.get(namespace, key) is not None
                           or present)
                self.disk.delete(namespace, key)
            self._stamps.pop((namespace, key), None)
            return (204, None) if present else (404, None)
        raise HttpError(405, "GET/PUT/DELETE only")

    # -- entry TTLs ----------------------------------------------------------

    def _entry_age_s(self, namespace: str, key: str) -> float | None:
        """Seconds since the entry was written, or None when unknown."""
        stamp = self._stamps.get((namespace, key))
        if stamp is None and self.disk is not None:
            # inherited from a pre-existing --dir: age by file mtime
            path = self.disk._path(namespace, key)
            if path is not None:
                try:
                    stamp = path.stat().st_mtime
                except OSError:
                    stamp = None
        if stamp is None:
            return None
        return time.time() - stamp

    def _expire_if_stale(self, namespace: str, key: str) -> bool:
        """Drop the entry from both stores when its TTL has elapsed."""
        if self.ttl_s is None:
            return False
        age = self._entry_age_s(namespace, key)
        if age is None:
            # unknown age but the entry exists (memory-resident,
            # pre-TTL restart): stamp it now so it ages from here
            if self.memory.get(namespace, key) is not None:
                self._stamps[(namespace, key)] = time.time()
            return False
        if age <= self.ttl_s:
            return False
        self.memory.delete(namespace, key)
        if self.disk is not None:
            self.disk.delete(namespace, key)
        self._stamps.pop((namespace, key), None)
        self.expired += 1
        return True

    async def _sweep_loop(self) -> None:
        assert self.ttl_s is not None
        interval = min(max(1.0, self.ttl_s / 2.0), 60.0)
        while True:
            await asyncio.sleep(interval)
            for namespace, key in list(self._stamps):
                self._expire_if_stale(namespace, key)

    def metrics(self) -> dict:
        backends = {"memory": self.memory.stats()}
        if self.disk is not None:
            backends["disk"] = self.disk.stats()
        return {"backends": backends, "ttl_s": self.ttl_s,
                "expired": self.expired}


def serve_cache(spec: str, max_entries: int | None = None,
                max_bytes: int | None = None,
                disk_dir: str | None = None,
                ttl_s: float | None = None) -> int:
    """Run the cache server until a signal stops it; returns exit
    status (always 0 -- there is no forced-drain path to fail)."""
    host, port = parse_address(spec)
    server = CacheServer(host=host, port=port, max_entries=max_entries,
                         max_bytes=max_bytes, disk_dir=disk_dir,
                         ttl_s=ttl_s)
    return run(server, "cache-serve")


class BackgroundCacheServer(BackgroundHarness):
    """In-process cache server for tests and benchmarks: takes
    :class:`CacheServer`'s constructor arguments and runs it on a
    :class:`~repro.service.aserver.BackgroundHarness` thread."""

    server_class = CacheServer
