"""Tiered cross-sample verdict memoization for pass@k evaluation.

FVEval's dominant cost is re-checking many LLM samples per problem; in a
pass@k sampling run a large fraction of samples are semantically identical
(same property modulo formatting, operand order, operator spelling).  The
:class:`VerdictCache` maps a *semantic key* -- design/context signature +
canonicalized assertion (:mod:`repro.sva.canonical`) + engine
configuration -- to the verdict-level fields of an evaluation, so
duplicate samples within a problem share one formal verdict and repeated
runs skip re-proving entirely.

The cache is a stack of *tiers*, each implementing the small
:class:`CacheBackend` protocol (``get``/``put``/``delete``/``scan``/
``stats``).  Three backends ship:

* :class:`MemoryBackend` -- per-namespace ``OrderedDict`` LRU with the
  entry/byte caps long-running services pass (``FVEVAL_CACHE_MEM_MAX``);
* :class:`DiskBackend` -- one JSON file per key under
  ``<dir>/<namespace>/<k[:2]>/<k>.json``, written atomically (temp file +
  ``os.replace``), corrupt entries quarantined as ``*.json.corrupt``;
* :class:`RemoteBackend` -- a tiny content-addressed HTTP protocol
  (``GET/PUT/DELETE /v1/cache/<ns>/<key>``) against a
  ``python -m repro cache-serve`` endpoint, so N ``serve`` replicas share
  one warm tier (:mod:`repro.service.cacheserve`, docs/cache.md).

Tier composition is one spec string (e.g.
``memory,disk=DIR,remote=HOST:PORT``), parsed once from
``FVEVAL_CACHE_TIERS`` / ``FVEVAL_CACHE`` by :class:`repro.options.
Options` (``FVEVAL_CACHE=DIR`` means ``memory,disk=DIR``; neither set
means ``memory``).  Reads go front to back with *read-through
promotion* (a hit in tier *i* is copied into tiers ``0..i-1``); writes
go *write-through* to every tier.  A failing tier (dead cache-serve
process, unreachable host) is **fail-open**: the error is recorded as a
``cache_remote`` :class:`~repro.core.faults.FaultEvent`, the tier is
skipped for a short cooldown, and the lookup falls through to the next
tier -- a broken cache can degrade latency but never a response.

Keys are SHA-256 over a stable JSON rendering and include the engine
configuration (prover kwargs / equivalence settings) plus a schema
version, so changing either invalidates the cache instead of serving
stale verdicts (``tests/test_core_cache.py``,
``tests/test_cache_backends.py``).

Correctness note: only *deterministic, history-independent* fields are
cached (verdict, functional flags, detail, proof metadata) -- never solver
statistics, which legitimately vary with incremental-solver history.
Cached and uncached runs are therefore record-for-record identical.

The disk layer is append-only during evaluation; long-lived ``FVEVAL_CACHE``
directories are compacted offline by :func:`gc_cache_dir` (age- and
LRU-based eviction; ``python -m repro cache-gc``).  Disk hits refresh the
entry's mtime, so "least recently used" means least recently *read*, not
least recently written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

#: bump to invalidate all persisted entries on semantics changes
SCHEMA_VERSION = 1

#: age after which an orphaned writer temp file is considered crashed
_TMP_GRACE_S = 3600.0

#: seconds a failing remote tier is skipped before it is re-probed
REMOTE_COOLDOWN_S = 2.0

#: cache keys are full SHA-256 hex digests (content addressing)
KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: namespaces are path-safe identifiers
NAMESPACE_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


class CacheBackendError(Exception):
    """A tier's storage failed (unreachable host, refused connection...).

    Raised by backends for *infrastructure* failures only -- an absent key
    is a plain ``None`` miss, and a corrupt disk entry is quarantined and
    served as a miss.  The tiered :class:`VerdictCache` catches this,
    records a ``cache_remote`` fault, and fails open to the next tier.
    """


class CacheBackend:
    """Contract shared by every verdict-cache tier.

    A backend is a content-addressed store of JSON objects under
    ``(namespace, key)`` where ``key`` is a 64-hex-digit SHA-256 digest
    (:meth:`VerdictCache.key`).  The five operations:

    * ``get(namespace, key)`` -> ``dict | None`` -- a miss is ``None``,
      never an exception; corrupt entries are quarantined internally and
      served as misses.
    * ``put(namespace, key, value)`` -- idempotent upsert; concurrent
      writers of the same key may race, but a reader sees either a
      complete old value or a complete new one, never a torn entry.
    * ``delete(namespace, key)`` -- remove if present; absent is a no-op.
    * ``scan(namespace)`` -> ``list[str]`` -- keys currently stored.
    * ``stats()`` -> dict of counters.  ``gets``/``puts``/``deletes``/
      ``errors`` are monotonically non-decreasing over the backend's
      lifetime; gauges (``entries``, ``mem_bytes``) reflect the moment.

    Infrastructure failures raise :class:`CacheBackendError`
    (``tests/test_cache_backends.py`` asserts this contract identically
    for all three shipped backends).
    """

    name = "backend"

    def __init__(self):
        self._counters = {"gets": 0, "puts": 0, "deletes": 0, "errors": 0}
        self._counter_lock = threading.Lock()

    def _count(self, counter: str, n: int = 1) -> None:
        with self._counter_lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def get(self, namespace: str, key: str) -> dict | None:
        self._count("gets")
        try:
            return self._get(namespace, key)
        except CacheBackendError:
            self._count("errors")
            raise

    def put(self, namespace: str, key: str, value: dict) -> None:
        self._count("puts")
        try:
            self._put(namespace, key, value)
        except CacheBackendError:
            self._count("errors")
            raise

    def delete(self, namespace: str, key: str) -> None:
        self._count("deletes")
        try:
            self._delete(namespace, key)
        except CacheBackendError:
            self._count("errors")
            raise

    def scan(self, namespace: str) -> list[str]:
        try:
            return self._scan(namespace)
        except CacheBackendError:
            self._count("errors")
            raise

    def stats(self) -> dict[str, int]:
        with self._counter_lock:
            stats = dict(self._counters)
        stats.update(self._extra_stats())
        return stats

    def close(self) -> None:
        """Release held resources (connections); safe to call twice."""

    # subclass hooks -------------------------------------------------------

    def _get(self, namespace: str, key: str) -> dict | None:
        raise NotImplementedError

    def _put(self, namespace: str, key: str, value: dict) -> None:
        raise NotImplementedError

    def _delete(self, namespace: str, key: str) -> None:
        raise NotImplementedError

    def _scan(self, namespace: str) -> list[str]:
        raise NotImplementedError

    def _extra_stats(self) -> dict[str, int]:
        return {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_counter_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._counter_lock = threading.Lock()


class MemoryBackend(CacheBackend):
    """Per-namespace ``OrderedDict`` LRU tier.

    ``max_entries``/``max_bytes`` bound each namespace (None =
    unbounded).  Front of the OrderedDict = least recently used; a
    ``get`` refreshes recency, so eviction is by last *read*.  The byte
    cap is approximate, over the entries' compact-JSON size.
    """

    name = "memory"

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        super().__init__()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._spaces: dict[str, OrderedDict[str, dict]] = {}
        #: compact-JSON size per (namespace, key), only under a byte cap
        self._sizes: dict[str, dict[str, int]] = {}
        self._bytes: dict[str, int] = {}
        self._lock = threading.RLock()

    def space(self, namespace: str) -> OrderedDict[str, dict]:
        """The live per-namespace LRU map (shared, not a copy)."""
        with self._lock:
            space = self._spaces.get(namespace)
            if space is None:
                space = self._spaces[namespace] = OrderedDict()
                self._sizes[namespace] = {}
                self._bytes[namespace] = 0
            return space

    def mem_bytes(self, namespace: str) -> int:
        with self._lock:
            return self._bytes.get(namespace, 0)

    def _get(self, namespace: str, key: str) -> dict | None:
        with self._lock:
            space = self._spaces.get(namespace)
            if space is None:
                return None
            value = space.get(key)
            if value is None:
                return None
            if not isinstance(value, dict):
                # a damaged entry (only possible through direct state
                # corruption) is dropped and served as a miss, mirroring
                # the disk tier's quarantine contract
                del space[key]
                self._bytes[namespace] -= \
                    self._sizes[namespace].pop(key, 0)
                return None
            space.move_to_end(key)  # LRU: eviction by last *read*
            return value

    def _put(self, namespace: str, key: str, value: dict) -> None:
        with self._lock:
            space = self.space(namespace)
            if key in space:
                space.move_to_end(key)
                if space[key] is value:
                    return
                self._bytes[namespace] -= \
                    self._sizes[namespace].pop(key, 0)
            space[key] = value
            if self.max_bytes is not None:
                size = len(json.dumps(value, separators=(",", ":"),
                                      default=str))
                self._sizes[namespace][key] = size
                self._bytes[namespace] += size
            self._bound(namespace)

    def _bound(self, namespace: str) -> None:
        space = self._spaces[namespace]
        while ((self.max_entries is not None
                and len(space) > self.max_entries)
               or (self.max_bytes is not None
                   and self._bytes[namespace] > self.max_bytes
                   and len(space) > 1)):
            evicted, _value = space.popitem(last=False)  # LRU first
            self._bytes[namespace] -= \
                self._sizes[namespace].pop(evicted, 0)

    def _delete(self, namespace: str, key: str) -> None:
        with self._lock:
            space = self._spaces.get(namespace)
            if space is not None and key in space:
                del space[key]
                self._bytes[namespace] -= \
                    self._sizes[namespace].pop(key, 0)

    def _scan(self, namespace: str) -> list[str]:
        with self._lock:
            space = self._spaces.get(namespace)
            return list(space) if space is not None else []

    def _extra_stats(self) -> dict[str, int]:
        with self._lock:
            stats = {"entries": sum(len(s) for s in self._spaces.values())}
            if self.max_bytes is not None:
                stats["mem_bytes"] = sum(self._bytes.values())
            return stats

    def __getstate__(self):
        state = super().__getstate__()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        super().__setstate__(state)
        self._lock = threading.RLock()


class DiskBackend(CacheBackend):
    """Atomic-write JSON-file tier under ``<root>/<ns>/<k[:2]>/<k>.json``.

    Writes are temp-file + ``os.replace`` -- atomic on POSIX, so racing
    writers in *any* process need no locking and readers never observe a
    torn entry.  Corrupt/truncated entries (a writer died mid-write on a
    filesystem without atomic replace, bit rot...) are quarantined as
    ``<entry>.json.corrupt`` -- diagnosable, never re-read -- and served
    as misses.  Disk hits refresh mtime for :func:`gc_cache_dir` LRU.
    """

    name = "disk"

    def __init__(self, root: str | os.PathLike):
        super().__init__()
        self.root = os.fspath(root)
        #: corrupt entries quarantined (monotonic)
        self.corrupt = 0

    def _path(self, namespace: str, key: str) -> Path:
        return Path(self.root) / namespace / key[:2] / f"{key}.json"

    def _get(self, namespace: str, key: str) -> dict | None:
        path = self._path(namespace, key)
        try:
            raw = path.read_text()
        except OSError:
            return None  # absent (or unreadable): a plain miss
        from .faults import inject
        try:
            if inject("cache_corrupt") is not None:
                raise ValueError("injected cache corruption")
            value = json.loads(raw)
            if not isinstance(value, dict):
                raise ValueError("entry is not a JSON object")
        except ValueError:
            self._quarantine(path)
            return None
        try:
            os.utime(path)  # LRU touch: gc eviction by last *read*
        except OSError:
            pass
        return value

    def _quarantine(self, path: Path) -> None:
        self._count("corrupt")
        with self._counter_lock:
            self.corrupt += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            try:
                path.unlink()  # quarantine failed: drop it outright
            except OSError:
                pass

    def _put(self, namespace: str, key: str, value: dict) -> None:
        path = self._path(namespace, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(value, fh, separators=(",", ":"))
                os.replace(tmp, path)  # atomic on POSIX: no torn reads
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # disk tier is best-effort; upper tiers already hold it

    def _delete(self, namespace: str, key: str) -> None:
        try:
            self._path(namespace, key).unlink()
        except OSError:
            pass

    def _scan(self, namespace: str) -> list[str]:
        space = Path(self.root) / namespace
        if not space.is_dir():
            return []
        return sorted(p.stem for p in space.rglob("*.json") if p.is_file())

    def _extra_stats(self) -> dict[str, int]:
        with self._counter_lock:
            return {"corrupt": self.corrupt}


class RemoteBackend(CacheBackend):
    """HTTP client tier against ``python -m repro cache-serve`` endpoints.

    Content-addressed wire protocol (docs/cache.md):

    * ``GET /v1/cache/<ns>/<key>`` -> 200 + JSON body, or 404 (miss)
    * ``PUT /v1/cache/<ns>/<key>`` + JSON body -> 204
    * ``DELETE /v1/cache/<ns>/<key>`` -> 204 (404 for absent is fine)
    * ``GET /v1/keys/<ns>`` -> ``{"keys": [...]}``

    ``address`` is one ``HOST:PORT`` or several joined with ``;``: with
    multiple endpoints the tier shards client-side over the same
    consistent-hash ring the routing tier uses
    (:class:`repro.service.ring.HashRing`), so every client agrees on
    which endpoint owns a ``(namespace, key)`` without coordination and
    an endpoint change only moves that member's keyspace.  ``scan``
    unions all endpoints.

    One persistent ``http.client`` connection per thread per endpoint;
    any transport failure closes it and raises
    :class:`CacheBackendError` -- the tiered cache above fails open.
    The timeout is deliberately short: a dead cache host must cost
    milliseconds, not a prover deadline.
    """

    name = "remote"

    def __init__(self, address: str, timeout: float = 2.0):
        super().__init__()
        from ..service.aserver import parse_address
        from ..service.ring import HashRing
        self.endpoints: list[str] = []
        for part in str(address).split(";"):
            part = part.strip()
            if not part:
                continue
            host, port = parse_address(part)
            name = f"{host}:{port}"
            if name not in self.endpoints:
                self.endpoints.append(name)
        if not self.endpoints:
            raise ValueError(
                f"remote tier expects HOST:PORT[;HOST:PORT...], "
                f"got {address!r}")
        # single-endpoint compatibility surface (and the common case)
        self.host, _, port_text = self.endpoints[0].rpartition(":")
        self.port = int(port_text)
        self.address = ";".join(self.endpoints)
        self.ring = HashRing(self.endpoints)
        self.timeout = timeout
        self._local = threading.local()

    def _endpoint_for(self, namespace: str, key: str) -> str:
        return self.ring.node_for((namespace, key))

    def _connection(self, endpoint: str):
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        conn = conns.get(endpoint)
        if conn is None:
            from http.client import HTTPConnection
            host, _, port = endpoint.rpartition(":")
            conn = HTTPConnection(host, int(port), timeout=self.timeout)
            conns[endpoint] = conn
        return conn

    def _drop_connection(self, endpoint: str | None = None) -> None:
        conns = getattr(self._local, "conns", None)
        if not conns:
            return
        for name in (list(conns) if endpoint is None else [endpoint]):
            conn = conns.pop(name, None)
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass

    def _request(self, method: str, path: str,
                 body: bytes | None = None,
                 endpoint: str | None = None) -> tuple[int, bytes]:
        endpoint = endpoint or self.endpoints[0]
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection(endpoint)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            return response.status, payload
        except Exception as exc:
            self._drop_connection(endpoint)
            raise CacheBackendError(
                f"cache-serve {endpoint} unreachable: "
                f"{type(exc).__name__}: {exc}") from exc

    def _get(self, namespace: str, key: str) -> dict | None:
        endpoint = self._endpoint_for(namespace, key)
        status, payload = self._request(
            "GET", f"/v1/cache/{namespace}/{key}", endpoint=endpoint)
        if status == 404:
            return None
        if status != 200:
            raise CacheBackendError(
                f"cache-serve {endpoint} GET -> {status}")
        try:
            value = json.loads(payload)
            if not isinstance(value, dict):
                raise ValueError("entry is not a JSON object")
        except ValueError as exc:
            raise CacheBackendError(
                f"cache-serve {endpoint} sent a malformed entry: "
                f"{exc}") from exc
        return value

    def _put(self, namespace: str, key: str, value: dict) -> None:
        endpoint = self._endpoint_for(namespace, key)
        body = json.dumps(value, separators=(",", ":"),
                          default=str).encode()
        status, _payload = self._request(
            "PUT", f"/v1/cache/{namespace}/{key}", body,
            endpoint=endpoint)
        if status not in (200, 204):
            raise CacheBackendError(
                f"cache-serve {endpoint} PUT -> {status}")

    def _delete(self, namespace: str, key: str) -> None:
        endpoint = self._endpoint_for(namespace, key)
        status, _payload = self._request(
            "DELETE", f"/v1/cache/{namespace}/{key}", endpoint=endpoint)
        if status not in (200, 204, 404):
            raise CacheBackendError(
                f"cache-serve {endpoint} DELETE -> {status}")

    def _scan(self, namespace: str) -> list[str]:
        keys: set[str] = set()
        for endpoint in self.endpoints:
            status, payload = self._request(
                "GET", f"/v1/keys/{namespace}", endpoint=endpoint)
            if status != 200:
                raise CacheBackendError(
                    f"cache-serve {endpoint} scan -> {status}")
            try:
                keys.update(json.loads(payload).get("keys", []))
            except ValueError as exc:
                raise CacheBackendError(
                    f"cache-serve {endpoint} sent malformed keys: "
                    f"{exc}") from exc
        return sorted(keys)

    def close(self) -> None:
        self._drop_connection()

    def __getstate__(self):
        state = super().__getstate__()
        state.pop("_local", None)  # travels across FVEVAL_JOBS workers
        return state

    def __setstate__(self, state):
        super().__setstate__(state)
        self._local = threading.local()


def parse_tiers(spec: str, *,
                max_mem_entries: int | None = None,
                max_mem_bytes: int | None = None,
                ) -> tuple[list[CacheBackend], list[str]]:
    """Build a backend stack from a ``FVEVAL_CACHE_TIERS`` spec.

    Grammar: comma-separated terms, front tier first --
    ``memory`` | ``disk=/path`` |
    ``remote=HOST:PORT[;HOST:PORT...]`` (``;``-joined endpoints shard
    client-side over a consistent-hash ring).  A bare ``disk`` is bound
    to ``FVEVAL_CACHE`` when the options are parsed
    (:class:`repro.options.Options`); one that arrives here unbound
    names no directory.
    Returns ``(backends, errors)``; an unknown/malformed term is skipped
    and reported, never fatal (the caller records a ``config`` fault).
    """
    backends: list[CacheBackend] = []
    errors: list[str] = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        name, _, arg = term.partition("=")
        name = name.strip().lower()
        arg = arg.strip()
        try:
            if name == "memory" and not arg:
                backends.append(MemoryBackend(max_entries=max_mem_entries,
                                              max_bytes=max_mem_bytes))
            elif name == "disk" and arg:
                backends.append(DiskBackend(arg))
            elif name == "disk":
                errors.append(f"cache tier term {term!r} names no "
                              "directory (set FVEVAL_CACHE or write "
                              "disk=DIR)")
            elif name == "remote" and arg:
                backends.append(RemoteBackend(arg))
            else:
                errors.append(f"unknown cache tier term {term!r}")
        except ValueError as exc:
            errors.append(f"bad cache tier term {term!r}: {exc}")
    return backends, errors


class VerdictCache:
    """Tiered verdict store over a :class:`CacheBackend` stack.

    ``namespace`` separates task families.  ``tiers`` -- a
    ``FVEVAL_CACHE_TIERS``-grammar string (:func:`parse_tiers`) or a
    prebuilt backend list -- is the whole stack; the cache never reads
    the environment (the service passes ``Options.cache_tiers``).  A
    spec that builds no tier at all falls back to ``memory`` with a
    ``config`` fault.

    Reads promote front-ward (a hit in tier *i* is written into tiers
    ``0..i-1``); writes go to every tier.  A tier raising
    :class:`CacheBackendError` fails open: the error becomes a pending
    ``cache_remote`` fault (:meth:`drain_faults`), the tier is skipped
    for :data:`REMOTE_COOLDOWN_S`, and the operation continues with the
    remaining tiers -- by construction a cache outage can never surface
    as an error response.
    """

    def __init__(self, namespace: str,
                 tiers: str | list[CacheBackend] = "memory",
                 max_mem_entries: int | None = None,
                 max_mem_bytes: int | None = None):
        self.namespace = namespace
        #: caps on the in-memory tier (None = unbounded).  Benchmark
        #: runs terminate, so they default unbounded; long-running
        #: services (``python -m repro serve`` /
        #: ``FVEVAL_CACHE_MEM_MAX``) pass caps -- eviction is LRU (a
        #: ``get`` refreshes recency), and a capped entry that was also
        #: persisted simply costs a lower-tier re-read later.
        self.max_mem_entries = max_mem_entries
        self.max_mem_bytes = max_mem_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: cache-eligible results that turned out uncacheable (``timeout``
        #: verdicts): their plan-time miss can never become a hit, so the
        #: /metrics hit rate excludes them from the denominator
        self.uncacheable = 0
        #: ``config``/``cache_remote`` FaultEvents not yet drained into a
        #: response's ``degraded`` provenance
        self._pending_faults: list[dict] = []
        #: per-tier fail-open cooldown deadlines (time.monotonic)
        self._skip_until: dict[int, float] = {}
        config_errors: list[str] = []
        if isinstance(tiers, str):
            self.backends, config_errors = parse_tiers(
                tiers, max_mem_entries=max_mem_entries,
                max_mem_bytes=max_mem_bytes)
            if not self.backends:
                config_errors.append(
                    f"cache tier spec {tiers!r} built no tiers; "
                    "using memory")
                self.backends = [MemoryBackend(max_entries=max_mem_entries,
                                               max_bytes=max_mem_bytes)]
        else:
            self.backends = tiers
        #: per-tier counters, index-aligned with ``self.backends``
        self.tier_stats: list[dict] = [
            {"hits": 0, "misses": 0, "puts": 0, "promotions": 0,
             "errors": 0, "skipped": 0, "latency_s": 0.0}
            for _ in self.backends]
        #: guards the counters and the memory tier: concurrent flushes
        #: of one service get/put from several threads, and a bare
        #: ``self.hits += 1`` would lose increments between the read and
        #: the write.  Disk writes need no lock -- the temp-file +
        #: ``os.replace`` protocol is already atomic against racing
        #: writers in *any* process.
        self._lock = threading.RLock()
        for detail in config_errors:
            self._record_fault("config", detail)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)  # travels across FVEVAL_JOBS workers
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- tier plumbing -------------------------------------------------------

    @property
    def mem(self) -> OrderedDict[str, dict]:
        """Live LRU map of the first memory tier (legacy accessor)."""
        for backend in self.backends:
            if isinstance(backend, MemoryBackend):
                return backend.space(self.namespace)
        return OrderedDict()  # no memory tier: nothing is held here

    def _path(self, key: str) -> Path | None:
        """Disk path of *key* in the first disk tier (tests/tooling)."""
        for backend in self.backends:
            if isinstance(backend, DiskBackend):
                return backend._path(self.namespace, key)
        return None

    def _record_fault(self, code: str, detail: str) -> None:
        from .faults import FaultEvent
        event = FaultEvent(code=code, stage="cache", retryable=True,
                           detail=detail)
        with self._lock:
            self._pending_faults.append(event.as_dict())

    def drain_faults(self) -> list[dict]:
        """Pop pending tier-degradation faults (for ``degraded``
        provenance).  Faults attach to *responses*, never to cached
        entries or EvalRecords, so parity with uncached runs holds."""
        with self._lock:
            faults, self._pending_faults = self._pending_faults, []
            return faults

    def _tier_available(self, index: int) -> bool:
        with self._lock:
            deadline = self._skip_until.get(index)
            if deadline is None:
                return True
            if time.monotonic() >= deadline:
                del self._skip_until[index]
                return True
            self.tier_stats[index]["skipped"] += 1
            return False

    def _tier_failed(self, index: int, exc: Exception) -> None:
        backend = self.backends[index]
        with self._lock:
            self.tier_stats[index]["errors"] += 1
            self._skip_until[index] = time.monotonic() + REMOTE_COOLDOWN_S
        self._record_fault(
            "cache_remote",
            f"cache tier {index} ({backend.name}) failed open: {exc}")

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key(*parts) -> str:
        """Stable digest of arbitrarily nested JSON-serializable parts."""
        blob = json.dumps([SCHEMA_VERSION, *parts], sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- storage -------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        for index, backend in enumerate(self.backends):
            if not self._tier_available(index):
                continue
            t0 = time.perf_counter()
            try:
                value = backend.get(self.namespace, key)
            except CacheBackendError as exc:
                self._tier_failed(index, exc)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.tier_stats[index]["latency_s"] += elapsed
            if value is None:
                with self._lock:
                    self.tier_stats[index]["misses"] += 1
                continue
            with self._lock:
                self.tier_stats[index]["hits"] += 1
                self.hits += 1
            # read-through promotion: copy the hit into every faster tier
            for front in range(index):
                if not self._tier_available(front):
                    continue
                try:
                    self.backends[front].put(self.namespace, key, value)
                except CacheBackendError as exc:
                    self._tier_failed(front, exc)
                    continue
                with self._lock:
                    self.tier_stats[front]["promotions"] += 1
            return value
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, value: dict) -> None:
        with self._lock:
            self.puts += 1
        for index, backend in enumerate(self.backends):
            if not self._tier_available(index):
                continue
            t0 = time.perf_counter()
            try:
                backend.put(self.namespace, key, value)
            except CacheBackendError as exc:
                self._tier_failed(index, exc)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.tier_stats[index]["latency_s"] += elapsed
            with self._lock:
                self.tier_stats[index]["puts"] += 1

    def delete(self, key: str) -> None:
        for index, backend in enumerate(self.backends):
            if not self._tier_available(index):
                continue
            try:
                backend.delete(self.namespace, key)
            except CacheBackendError as exc:
                self._tier_failed(index, exc)

    def scan(self) -> list[str]:
        keys: set[str] = set()
        for index, backend in enumerate(self.backends):
            if not self._tier_available(index):
                continue
            try:
                keys.update(backend.scan(self.namespace))
            except CacheBackendError as exc:
                self._tier_failed(index, exc)
        return sorted(keys)

    def note_uncacheable(self) -> None:
        """A planned cache fill was abandoned (``timeout`` verdicts are
        never cached): its plan-time miss is permanent, so hit-rate
        denominators exclude it."""
        with self._lock:
            self.uncacheable += 1

    def close(self) -> None:
        for backend in self.backends:
            backend.close()

    @property
    def corrupt(self) -> int:
        return sum(backend.corrupt for backend in self.backends
                   if isinstance(backend, DiskBackend))

    def _tier_label(self, index: int) -> str:
        name = self.backends[index].name
        total = sum(1 for b in self.backends if b.name == name)
        return name if total == 1 else f"{name}{index}"

    def stats(self) -> dict:
        """Whole-stack counters plus a nested per-tier breakdown
        (``stats()["tiers"]["disk"]["hits"]`` counts disk hits)."""
        with self._lock:
            stats: dict = {
                "hits": self.hits, "misses": self.misses, "puts": self.puts,
                "entries": len(self.mem), "corrupt": self.corrupt,
                "uncacheable": self.uncacheable,
            }
            if self.max_mem_bytes is not None:
                for backend in self.backends:
                    if isinstance(backend, MemoryBackend):
                        stats["mem_bytes"] = \
                            backend.mem_bytes(self.namespace)
                        break
            tiers: dict[str, dict] = {}
            for index, per_tier in enumerate(self.tier_stats):
                tier = dict(per_tier)
                tier["latency_ms"] = round(tier.pop("latency_s") * 1e3, 3)
                tiers[self._tier_label(index)] = tier
            stats["tiers"] = tiers
            return stats


# ---------------------------------------------------------------------------
# disk-layer compaction
# ---------------------------------------------------------------------------


def _entry_files(root: Path):
    """Every persisted verdict entry under *root* (any namespace/bucket)."""
    for path in root.rglob("*.json"):
        if path.is_file():
            yield path


def gc_cache_dir(root: str | os.PathLike,
                 max_age_s: float | None = None,
                 max_entries: int | None = None,
                 max_bytes: int | None = None,
                 now: float | None = None,
                 dry_run: bool = False) -> dict[str, int]:
    """Compact one ``FVEVAL_CACHE`` directory; returns eviction statistics.

    Two policies compose (either may be ``None`` = unlimited):

    * **age** -- entries whose mtime is older than ``max_age_s`` are
      removed.  Disk hits refresh mtime, so an entry only ages out after
      ``max_age_s`` without being *read*.
    * **LRU caps** -- if more than ``max_entries`` entries (or more than
      ``max_bytes`` of JSON) survive the age pass, the least recently
      used are removed until both caps hold.

    Removal is safe against concurrent readers/writers: a reader that
    loses the race simply misses and recomputes (the layer is best-effort
    by design), and writers replace atomically, so no torn entry can be
    observed.  Orphaned ``*.tmp`` files (a writer killed between
    ``mkstemp`` and ``os.replace``) and quarantined ``*.corrupt``
    entries older than a short grace period are reaped first, then
    empty bucket directories are pruned afterwards.
    With ``dry_run`` nothing is deleted; the returned counts describe
    what *would* go.

    Returns ``{"scanned", "removed", "kept", "bytes_freed",
    "bytes_kept"}``.
    """
    root = Path(root)
    stats = {"scanned": 0, "removed": 0, "kept": 0,
             "bytes_freed": 0, "bytes_kept": 0}
    if not root.is_dir():
        return stats
    now = time.time() if now is None else now

    # reap crashed writers' temp files and quarantined corrupt entries
    # (the same grace period keeps freshly quarantined files around long
    # enough to be inspected)
    for tmp in [*root.rglob("*.tmp"), *root.rglob("*.corrupt")]:
        try:
            st = tmp.stat()
        except OSError:
            continue
        if st.st_mtime < now - _TMP_GRACE_S:
            if not dry_run:
                try:
                    tmp.unlink()
                except OSError:
                    continue
            stats["scanned"] += 1  # keep scanned == removed + kept
            stats["removed"] += 1
            stats["bytes_freed"] += st.st_size
    entries: list[tuple[float, int, Path]] = []  # (mtime, size, path)
    for path in _entry_files(root):
        try:
            st = path.stat()
        except OSError:
            continue  # raced with a concurrent removal
        entries.append((st.st_mtime, st.st_size, path))
    stats["scanned"] += len(entries)

    doomed: list[tuple[float, int, Path]] = []
    if max_age_s is not None:
        cutoff = now - max_age_s
        doomed = [e for e in entries if e[0] < cutoff]
        entries = [e for e in entries if e[0] >= cutoff]
    # LRU pass: oldest-read first until both caps hold
    entries.sort()  # ascending mtime == least recently used first
    kept_bytes = sum(size for _mtime, size, _path in entries)
    over_entries = (len(entries) - max_entries
                    if max_entries is not None else 0)
    index = 0
    while index < len(entries) and (
            index < over_entries
            or (max_bytes is not None and kept_bytes > max_bytes)):
        kept_bytes -= entries[index][1]
        doomed.append(entries[index])
        index += 1
    entries = entries[index:]

    for _mtime, size, path in doomed:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue  # already gone: don't count it twice
        stats["removed"] += 1
        stats["bytes_freed"] += size
    stats["kept"] = len(entries)
    stats["bytes_kept"] = sum(size for _mtime, size, _path in entries)

    if not dry_run:
        # prune bucket dirs the eviction emptied (<namespace>/<k[:2]>/)
        for bucket in sorted((p for p in root.rglob("*") if p.is_dir()),
                             key=lambda p: len(p.parts), reverse=True):
            try:
                bucket.rmdir()  # only succeeds when empty
            except OSError:
                pass
    return stats
