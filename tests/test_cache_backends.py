"""Backend-conformance suite for the CacheBackend protocol.

One parametrized class asserts the contract of docs/cache.md --
round-trip, canonical-key addressing, engine-config invalidation,
corrupt-entry quarantine, eviction/GC, stats monotonicity -- and runs
it *identically* against the three shipped backends: memory, disk, and
remote (through an in-process ``cache-serve`` fixture).  A backend that
passes here is a legal tier for the tiered
:class:`~repro.core.cache.VerdictCache`.
"""

import itertools
import json

import pytest

from repro.core.cache import (
    CacheBackendError,
    DiskBackend,
    MemoryBackend,
    RemoteBackend,
    VerdictCache,
    gc_cache_dir,
    parse_tiers,
)
from repro.service.cacheserve import BackgroundCacheServer

_NAMESPACES = itertools.count()


def _namespace() -> str:
    """A fresh namespace per test: the remote server is module-scoped,
    so tests must not observe each other's entries."""
    return f"conformance{next(_NAMESPACES)}"


@pytest.fixture(scope="module")
def cache_server():
    with BackgroundCacheServer() as bg:
        yield bg


class _Harness:
    """Backend factory plus the two capability hooks the contract tests
    need: ``poison`` damages one stored entry through the backend's own
    storage medium, ``bounded`` builds a backend holding at most *n*
    entries per namespace (with ``compact()`` forcing the bound for
    media whose eviction is offline)."""


class _MemoryHarness(_Harness):
    name = "memory"

    def __init__(self, tmp_path, server):
        del tmp_path, server

    def make(self) -> MemoryBackend:
        return MemoryBackend()

    def poison(self, backend, namespace, key) -> None:
        backend.space(namespace)[key] = ["damaged", "entry"]

    def bounded(self, n):
        return MemoryBackend(max_entries=n), lambda: None


class _DiskHarness(_Harness):
    name = "disk"

    def __init__(self, tmp_path, server):
        del server
        self.root = tmp_path

    def make(self) -> DiskBackend:
        return DiskBackend(self.root)

    def poison(self, backend, namespace, key) -> None:
        path = backend._path(namespace, key)
        path.write_text(path.read_text()[:5])  # truncated write

    def bounded(self, n):
        root = self.root / f"bounded{n}"
        return DiskBackend(root), \
            lambda: gc_cache_dir(root, max_entries=n)


class _RemoteHarness(_Harness):
    name = "remote"

    def __init__(self, tmp_path, server):
        del tmp_path
        self.server = server
        self._bounded: list[BackgroundCacheServer] = []

    def make(self) -> RemoteBackend:
        return RemoteBackend(self.server.address_spec)

    def poison(self, backend, namespace, key) -> None:
        # damage the entry in the server's own store -- the client then
        # observes the same drop-and-miss contract as local media
        self.server.server.memory.space(namespace)[key] = "damaged"

    def bounded(self, n):
        bg = BackgroundCacheServer(max_entries=n)
        bg.start()
        self._bounded.append(bg)
        return RemoteBackend(bg.address_spec), lambda: None

    def close(self) -> None:
        for bg in self._bounded:
            bg.stop()


_HARNESSES = {"memory": _MemoryHarness, "disk": _DiskHarness,
              "remote": _RemoteHarness}


@pytest.fixture(params=sorted(_HARNESSES))
def harness(request, tmp_path, cache_server):
    h = _HARNESSES[request.param](tmp_path, cache_server)
    yield h
    if hasattr(h, "close"):
        h.close()


class TestBackendConformance:
    def test_round_trip(self, harness):
        backend, ns = harness.make(), _namespace()
        key = VerdictCache.key("round", "trip")
        assert backend.get(ns, key) is None
        backend.put(ns, key, {"verdict": "proven", "detail": None})
        assert backend.get(ns, key) == {"verdict": "proven",
                                        "detail": None}
        assert backend.scan(ns) == [key]
        backend.delete(ns, key)
        assert backend.get(ns, key) is None
        assert backend.scan(ns) == []
        backend.delete(ns, key)  # absent: a no-op, never an error

    def test_namespaces_are_isolated(self, harness):
        backend = harness.make()
        ns_a, ns_b = _namespace(), _namespace()
        key = VerdictCache.key("shared-key")
        backend.put(ns_a, key, {"verdict": "proven"})
        assert backend.get(ns_b, key) is None
        assert backend.scan(ns_b) == []

    def test_canonical_key_addressing(self, harness):
        """Keys are digests of *canonical* JSON: logically equal parts
        address the same entry regardless of dict insertion order."""
        backend, ns = harness.make(), _namespace()
        key_a = VerdictCache.key("prove", {"max_bmc": 5, "max_k": 3})
        key_b = VerdictCache.key("prove", {"max_k": 3, "max_bmc": 5})
        assert key_a == key_b
        backend.put(ns, key_a, {"verdict": "cex"})
        assert backend.get(ns, key_b) == {"verdict": "cex"}

    def test_engine_config_invalidation(self, harness):
        """A changed engine configuration is a *different* address --
        the contract that makes stale-verdict reuse impossible."""
        backend, ns = harness.make(), _namespace()
        old = VerdictCache.key("prove", {"max_bmc": 5})
        new = VerdictCache.key("prove", {"max_bmc": 6})
        assert old != new
        backend.put(ns, old, {"verdict": "undetermined"})
        assert backend.get(ns, new) is None

    def test_corrupt_entry_is_quarantined_miss(self, harness):
        backend, ns = harness.make(), _namespace()
        key = VerdictCache.key("quarantine")
        backend.put(ns, key, {"verdict": "proven"})
        harness.poison(backend, ns, key)
        assert backend.get(ns, key) is None  # a miss, not an exception
        assert backend.get(ns, key) is None  # and never re-served
        # a recompute-and-put heals the entry
        backend.put(ns, key, {"verdict": "proven"})
        assert backend.get(ns, key) == {"verdict": "proven"}

    def test_eviction_respects_bound(self, harness):
        backend, compact = harness.bounded(2)
        ns = _namespace()
        keys = [VerdictCache.key("evict", i) for i in range(5)]
        for i, key in enumerate(keys):
            backend.put(ns, key, {"verdict": "proven", "i": i})
        compact()
        kept = backend.scan(ns)
        assert len(kept) <= 2
        assert set(kept) <= set(keys)  # never an invented key

    def test_stats_monotonic(self, harness):
        backend, ns = harness.make(), _namespace()
        key = VerdictCache.key("stats")
        snapshots = [backend.stats()]
        backend.put(ns, key, {"verdict": "proven"})
        snapshots.append(backend.stats())
        backend.get(ns, key)
        backend.get(ns, VerdictCache.key("absent"))
        snapshots.append(backend.stats())
        backend.delete(ns, key)
        snapshots.append(backend.stats())
        for counter in ("gets", "puts", "deletes", "errors"):
            values = [s[counter] for s in snapshots]
            assert values == sorted(values), (counter, values)
        assert snapshots[-1]["errors"] == 0
        assert snapshots[-1]["puts"] >= 1
        assert snapshots[-1]["gets"] >= 2
        assert snapshots[-1]["deletes"] >= 1

    def test_concurrent_writers_one_winner(self, harness):
        """Racing put()s of different payloads to one key: a subsequent
        get returns one of the written payloads, complete -- never a
        torn or merged entry."""
        import threading
        backend, ns = harness.make(), _namespace()
        key = VerdictCache.key("race")
        payloads = [{"verdict": "proven", "detail": f"w{i}" * 256}
                    for i in range(4)]

        def writer(payload):
            for _ in range(20):
                backend.put(ns, key, payload)

        pool = [threading.Thread(target=writer, args=(p,), daemon=True)
                for p in payloads]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30.0)
        value = backend.get(ns, key)
        assert value in payloads


class TestRemoteBackendFailure:
    """Infrastructure failures are CacheBackendError -- the raise the
    tiered cache's fail-open path keys on."""

    def test_unreachable_host_raises(self):
        backend = RemoteBackend("127.0.0.1:1", timeout=0.2)
        key = VerdictCache.key("dead")
        with pytest.raises(CacheBackendError):
            backend.get("ns", key)
        with pytest.raises(CacheBackendError):
            backend.put("ns", key, {"verdict": "proven"})
        assert backend.stats()["errors"] == 2

    def test_killed_server_raises_then_recovers(self):
        bg = BackgroundCacheServer()
        bg.start()
        backend = RemoteBackend(bg.address_spec, timeout=1.0)
        key = VerdictCache.key("flap")
        backend.put("ns", key, {"verdict": "cex"})
        assert backend.get("ns", key) == {"verdict": "cex"}
        bg.stop()
        with pytest.raises(CacheBackendError):
            backend.get("ns", key)

    def test_server_rejects_malformed_addresses(self, cache_server):
        """Bad namespaces/keys are 400 at the server edge, surfaced as
        a backend error -- not silently stored under a junk address."""
        backend = RemoteBackend(cache_server.address_spec)
        with pytest.raises(CacheBackendError):
            backend.put("ns", "not-a-sha256", {"verdict": "proven"})
        with pytest.raises(CacheBackendError):
            backend.get("bad namespace!", VerdictCache.key("x"))


class TestTierSpecParsing:
    def test_parse_tiers_grammar(self):
        backends, errors = parse_tiers(
            "memory, disk=/tmp/x, remote=127.0.0.1:9")
        assert [b.name for b in backends] == ["memory", "disk", "remote"]
        assert backends[1].root == "/tmp/x"
        assert (backends[2].host, backends[2].port) == ("127.0.0.1", 9)
        assert errors == []

    def test_bad_terms_are_reported_not_fatal(self):
        backends, errors = parse_tiers("memory,warp-drive,remote")
        assert [b.name for b in backends] == ["memory"]
        assert len(errors) == 2

    def test_env_spec_builds_the_cache_stack(self, monkeypatch, tmp_path):
        from repro.options import Options
        monkeypatch.setenv("FVEVAL_CACHE_TIERS",
                           f"memory,disk={tmp_path}")
        cache = VerdictCache("ns", tiers=Options.from_env().cache_tiers)
        assert [b.name for b in cache.backends] == ["memory", "disk"]
        key = cache.key("env")
        cache.put(key, {"verdict": "proven"})
        assert (tmp_path / "ns" / key[:2] / f"{key}.json").exists()

    def test_unbuildable_spec_falls_back_to_memory(self):
        cache = VerdictCache("ns", tiers="warp-drive")
        assert [b.name for b in cache.backends] == ["memory"]
        faults = cache.drain_faults()
        assert faults and all(f["code"] == "config" for f in faults)

    def test_bare_disk_without_a_directory_is_reported(self):
        backends, errors = parse_tiers("memory,disk")
        assert [b.name for b in backends] == ["memory"]
        [error] = errors
        assert "'disk'" in error and "FVEVAL_CACHE" in error


class TestTieredPromotion:
    def test_read_through_promotion_and_write_through(self, tmp_path,
                                                      cache_server):
        addr = cache_server.address_spec
        ns = _namespace()
        writer = VerdictCache(
            ns, tiers=f"memory,disk={tmp_path},remote={addr}")
        key = writer.key("promoted")
        writer.put(key, {"verdict": "proven"})
        # write-through reached every tier
        assert key in writer.mem
        assert (tmp_path / ns / key[:2] / f"{key}.json").exists()
        assert RemoteBackend(addr).get(ns, key) == {"verdict": "proven"}
        # a cold replica sharing only the remote tier hits it, then
        # promotes into its own memory tier
        replica = VerdictCache(ns, tiers=f"memory,remote={addr}")
        assert replica.get(key) == {"verdict": "proven"}
        stats = replica.stats()
        assert stats["tiers"]["remote"]["hits"] == 1
        assert stats["tiers"]["memory"]["promotions"] == 1
        assert key in replica.mem  # the next get is a memory hit
        assert replica.get(key) == {"verdict": "proven"}
        assert replica.stats()["tiers"]["memory"]["hits"] == 1

    def test_dead_remote_fails_open_with_fault(self):
        cache = VerdictCache("ns", tiers="memory,remote=127.0.0.1:1")
        for backend in cache.backends:
            if backend.name == "remote":
                backend.timeout = 0.2
        key = cache.key("failopen")
        assert cache.get(key) is None  # no exception escapes
        faults = cache.drain_faults()
        assert [f["code"] for f in faults] == ["cache_remote"]
        assert faults[0]["retryable"] is True
        cache.put(key, {"verdict": "cex"})  # cooldown: skipped silently
        assert cache.get(key) == {"verdict": "cex"}  # memory tier works
        stats = cache.stats()
        assert stats["tiers"]["remote"]["errors"] == 1
        assert stats["tiers"]["remote"]["skipped"] >= 1
        assert cache.drain_faults() == []  # one fault, not one per op

    def test_tiered_cache_pickles_across_workers(self, tmp_path,
                                                 cache_server):
        import pickle
        cache = VerdictCache(
            "ns", tiers=f"memory,disk={tmp_path},"
                        f"remote={cache_server.address_spec}")
        key = cache.key("pickled")
        cache.put(key, {"verdict": "proven"})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(key) == {"verdict": "proven"}
        assert [b.name for b in clone.backends] == \
            ["memory", "disk", "remote"]
