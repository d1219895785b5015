"""Verdict memoization: dedup parity, disk persistence, invalidation.

The cache must be invisible in the records -- cached and uncached runs
produce byte-identical ``EvalRecord``s -- while skipping re-proofs for
semantically duplicate samples, persisting across runs/workers through
``FVEVAL_CACHE``, and invalidating when the prover configuration changes.
"""

import json
from dataclasses import asdict

from repro.core.cache import VerdictCache
from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask, Nl2SvaMachineTask

PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}


def _design_records(use_cache=True, repeats=2, count=3, prover=None,
                    category="fsm"):
    """Evaluate each bench response *repeats* times (duplicate samples)."""
    import random
    from repro.models import design_assist
    task = Design2SvaTask(category, count=count,
                          prover_kwargs=dict(prover or PROVER),
                          use_cache=use_cache)
    records = []
    for i, design in enumerate(task.problems()):
        rng = random.Random(i)
        responses = [design_assist.correct_response(design, rng),
                     design_assist.flawed_response(design, rng)]
        for response in responses:
            for sample in range(repeats):
                records.append(asdict(task.evaluate(
                    design, response, sample_idx=sample)))
    return records, task


class TestVerdictCache:
    def test_memory_roundtrip(self):
        cache = VerdictCache("t")
        k = cache.key("a", [1, 2], {"x": 3})
        assert cache.get(k) is None
        cache.put(k, {"verdict": "proven"})
        assert cache.get(k) == {"verdict": "proven"}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_is_order_insensitive_for_dicts(self):
        assert VerdictCache.key({"a": 1, "b": 2}) == \
            VerdictCache.key({"b": 2, "a": 1})
        assert VerdictCache.key("x") != VerdictCache.key("y")

    def test_disk_roundtrip(self, tmp_path):
        first = VerdictCache("t", tiers=f"memory,disk={tmp_path}")
        k = first.key("entry")
        first.put(k, {"verdict": "cex"})
        fresh = VerdictCache("t", tiers=f"memory,disk={tmp_path}")
        assert fresh.get(k) == {"verdict": "cex"}
        assert fresh.stats()["tiers"]["disk"]["hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = VerdictCache("t", tiers=f"memory,disk={tmp_path}")
        k = cache.key("entry")
        path = tmp_path / "t" / k[:2] / f"{k}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(k) is None

    def test_mem_cap_evicts_oldest(self, tmp_path):
        """A capped memory layer (long-running serve) evicts LRU; a
        persisted entry survives via the disk layer."""
        cache = VerdictCache("t", tiers=f"memory,disk={tmp_path}",
                             max_mem_entries=2)
        keys = [cache.key("entry", i) for i in range(3)]
        for i, k in enumerate(keys):
            cache.put(k, {"verdict": f"v{i}"})
        assert len(cache.mem) == 2
        assert keys[0] not in cache.mem
        # evicted but persisted: next get re-reads from disk
        assert cache.get(keys[0]) == {"verdict": "v0"}
        assert cache.stats()["tiers"]["disk"]["hits"] == 1
        assert len(cache.mem) == 2  # the disk re-read respects the cap

    def test_lru_get_refreshes_recency(self):
        """Eviction order follows last *read*, not insertion: a serve
        workload's hot entries survive a scan of cold ones."""
        cache = VerdictCache("t", max_mem_entries=2)
        ka, kb, kc = (VerdictCache.key("entry", x) for x in "abc")
        cache.put(ka, {"verdict": "a"})
        cache.put(kb, {"verdict": "b"})
        assert cache.get(ka) == {"verdict": "a"}  # a is now most recent
        cache.put(kc, {"verdict": "c"})  # evicts b, the LRU entry
        assert kb not in cache.mem
        assert cache.get(ka) == {"verdict": "a"}
        assert cache.get(kc) == {"verdict": "c"}

    def test_byte_cap_bounds_memory(self):
        payload = {"verdict": "proven", "pad": "x" * 200}
        size = len(json.dumps(payload, separators=(",", ":")))
        cache = VerdictCache("t", max_mem_bytes=3 * size)
        keys = [VerdictCache.key("entry", i) for i in range(5)]
        for k in keys:
            cache.put(k, dict(payload))
        assert len(cache.mem) == 3  # oldest two evicted by bytes
        assert keys[0] not in cache.mem and keys[1] not in cache.mem
        stats = cache.stats()
        assert 0 < stats["mem_bytes"] <= 3 * size

    def test_byte_cap_keeps_one_oversized_entry(self):
        """An entry bigger than the whole cap is still usable -- the
        cap bounds growth, it does not reject work."""
        cache = VerdictCache("t", max_mem_bytes=8)
        k = VerdictCache.key("entry")
        cache.put(k, {"verdict": "proven", "pad": "y" * 100})
        assert cache.get(k) is not None
        assert len(cache.mem) == 1


class TestDedupParity:
    def test_duplicate_samples_share_one_proof(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        cached, task = _design_records(use_cache=True)
        uncached, _ = _design_records(use_cache=False)
        assert cached == uncached  # record-for-record identical
        stats = task.cache_stats()
        assert stats["hits"] > 0  # the duplicates actually dedup'd
        assert stats["misses"] == stats["puts"]

    def test_machine_task_dedup_parity(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        monkeypatch.delenv("FVEVAL_JOBS", raising=False)

        def run(use_cache):
            task = Nl2SvaMachineTask(count=8, use_cache=use_cache)
            result = run_model_on_task(
                "gpt-4o", task, RunConfig(n_samples=3, temperature=0.8))
            return [asdict(r) for r in result.records], task

        cached, task = run(True)
        uncached, _ = run(False)
        assert cached == uncached

    def test_no_cache_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_NO_CACHE", "1")
        records, task = _design_records(use_cache=True, count=2)
        assert task.cache_stats()["hits"] == 0
        assert task.cache_stats()["misses"] == 0


class TestDiskPersistence:
    def test_hits_across_runs_and_invalidation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        first, task1 = _design_records(repeats=1)
        assert task1.cache_stats()["puts"] > 0
        files = list(tmp_path.rglob("*.json"))
        assert files, "disk layer wrote no entries"
        # every persisted value is verdict-shaped JSON
        payload = json.loads(files[0].read_text())
        assert "verdict" in payload and "meta" in payload

        # a fresh task (fresh process in real runs) serves from disk
        second, task2 = _design_records(repeats=1)
        assert second == first
        assert task2.cache_stats()["tiers"]["disk"]["hits"] > 0
        assert task2.profile.get("bmc_s") is None  # no proofs re-ran

        # changing prover kwargs must invalidate, not serve stale verdicts
        changed = dict(PROVER, max_bmc=PROVER["max_bmc"] + 1)
        third, task3 = _design_records(repeats=1, prover=changed)
        assert task3.cache_stats()["tiers"]["disk"]["hits"] == 0
        assert [r["verdict"] for r in third] == \
            [r["verdict"] for r in first]  # easy designs: same verdicts

    def test_hits_across_parallel_workers(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        task = Design2SvaTask("fsm", count=4, prover_kwargs=dict(PROVER))
        parallel = run_model_on_task("gpt-4o", task,
                                     RunConfig(n_samples=2, temperature=0.8))
        assert list(tmp_path.rglob("*.json")), \
            "workers did not persist verdicts"
        # a serial rerun consumes what the pool workers wrote
        monkeypatch.setenv("FVEVAL_JOBS", "1")
        fresh = Design2SvaTask("fsm", count=4, prover_kwargs=dict(PROVER))
        serial = run_model_on_task("gpt-4o", fresh,
                                   RunConfig(n_samples=2, temperature=0.8))
        assert [asdict(r) for r in serial.records] == \
            [asdict(r) for r in parallel.records]
        assert fresh.cache_stats()["tiers"]["disk"]["hits"] > 0
        assert serial.stats["cache"]["tiers"]["disk"]["hits"] > 0


class TestCacheGc:
    """Age/LRU compaction of the on-disk layer (python -m repro cache-gc)."""

    @staticmethod
    def _populate(root, n, namespace="ns", age_step=100.0, now=1_000_000.0):
        """n entries whose mtimes ascend with the key index (0 = oldest)."""
        import os
        cache = VerdictCache(namespace, tiers=f"memory,disk={root}")
        keys = []
        for i in range(n):
            key = cache.key("entry", i)
            cache.put(key, {"verdict": "proven", "i": i})
            path = root / namespace / key[:2] / f"{key}.json"
            os.utime(path, (now - (n - i) * age_step,) * 2)
            keys.append(key)
        return cache, keys

    def test_age_eviction(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        now = 1_000_000.0
        _cache, _keys = self._populate(tmp_path, 6, now=now)
        # entries are 100..600s old: a 350s horizon keeps the newest 3
        stats = gc_cache_dir(tmp_path, max_age_s=350, now=now)
        assert stats["scanned"] == 6
        assert stats["removed"] == 3 and stats["kept"] == 3
        assert len(list(tmp_path.rglob("*.json"))) == 3

    def test_lru_entry_cap_keeps_most_recently_used(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        now = 1_000_000.0
        _cache, keys = self._populate(tmp_path, 5, now=now)
        stats = gc_cache_dir(tmp_path, max_entries=2, now=now)
        assert stats["removed"] == 3 and stats["kept"] == 2
        survivors = {p.stem for p in tmp_path.rglob("*.json")}
        assert survivors == set(keys[-2:])  # newest two survive

    def test_byte_cap(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        _cache, _keys = self._populate(tmp_path, 4)
        sizes = [p.stat().st_size for p in tmp_path.rglob("*.json")]
        budget = sum(sizes) - 1  # force exactly one eviction
        stats = gc_cache_dir(tmp_path, max_bytes=budget)
        assert stats["removed"] == 1 and stats["kept"] == 3
        assert stats["bytes_kept"] <= budget

    def test_read_refreshes_recency(self, tmp_path):
        """A disk hit must protect the entry from LRU eviction."""
        from repro.core.cache import gc_cache_dir
        cache, keys = self._populate(tmp_path, 4)
        reader = VerdictCache("ns", tiers=f"memory,disk={tmp_path}")
        assert reader.get(keys[0]) is not None  # touch the oldest entry
        stats = gc_cache_dir(tmp_path, max_entries=2)
        assert stats["kept"] == 2
        survivors = {p.stem for p in tmp_path.rglob("*.json")}
        assert keys[0] in survivors  # just-read entry survived
        assert keys[-1] in survivors

    def test_dry_run_deletes_nothing(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        self._populate(tmp_path, 4)
        stats = gc_cache_dir(tmp_path, max_entries=1, dry_run=True)
        assert stats["removed"] == 3
        assert len(list(tmp_path.rglob("*.json"))) == 4

    def test_empty_buckets_pruned_and_cache_still_works(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        cache, keys = self._populate(tmp_path, 3)
        gc_cache_dir(tmp_path, max_age_s=0)  # evict everything
        assert not list(tmp_path.rglob("*.json"))
        assert not any(p.is_dir() for p in tmp_path.iterdir())
        # the evicted cache keeps serving: next get recomputes via put
        fresh = VerdictCache("ns", tiers=f"memory,disk={tmp_path}")
        assert fresh.get(keys[0]) is None
        fresh.put(keys[0], {"verdict": "cex"})
        assert fresh.get(keys[0]) == {"verdict": "cex"}

    def test_orphaned_tmp_files_reaped(self, tmp_path):
        """A writer killed between mkstemp and os.replace must not leak
        bytes or pin its bucket directory forever."""
        import os
        from repro.core.cache import gc_cache_dir
        now = 1_000_000.0
        self._populate(tmp_path, 1, now=now)
        bucket = next(p.parent for p in tmp_path.rglob("*.json"))
        stale = bucket / "crashed.tmp"
        stale.write_text("{partial")
        os.utime(stale, (now - 7200,) * 2)   # crashed an hour+ ago
        fresh = bucket / "inflight.tmp"
        fresh.write_text("{partial")
        os.utime(fresh, (now - 5,) * 2)      # a live writer: grace period
        stats = gc_cache_dir(tmp_path, max_age_s=10_000, now=now)
        assert not stale.exists() and fresh.exists()
        assert stats["removed"] == 1  # only the stale tmp; entry survived
        # age-evict everything else: the reaped tmp no longer pins buckets
        os.unlink(fresh)
        gc_cache_dir(tmp_path, max_age_s=0, now=now + 10)
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_missing_root_is_a_noop(self, tmp_path):
        from repro.core.cache import gc_cache_dir
        stats = gc_cache_dir(tmp_path / "never_created", max_age_s=1)
        assert stats == {"scanned": 0, "removed": 0, "kept": 0,
                         "bytes_freed": 0, "bytes_kept": 0}

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main
        self._populate(tmp_path, 5)
        assert main(["cache-gc", str(tmp_path), "--max-entries", "2"]) == 0
        out = capsys.readouterr().out
        assert "removed 3" in out and "kept 2" in out
        assert len(list(tmp_path.rglob("*.json"))) == 2

    def test_cli_requires_a_directory(self, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        assert main(["cache-gc", "--max-entries", "1"]) == 2

    def test_cli_requires_a_policy(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["cache-gc", str(tmp_path)]) == 2

    def test_cli_env_default_and_dry_run(self, monkeypatch, tmp_path,
                                         capsys):
        from repro.__main__ import main
        self._populate(tmp_path, 3)
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        assert main(["cache-gc", "--max-entries", "1", "--dry-run"]) == 0
        assert "would remove 2" in capsys.readouterr().out


def _process_race_writer(root, namespace, n_keys, rounds, seed):
    """Child-process body for TestDiskBackendProcessRace (module level
    so ProcessPoolExecutor can pickle it)."""
    import random

    from repro.core.cache import VerdictCache

    cache = VerdictCache(namespace, tiers=f"memory,disk={root}")
    rng = random.Random(seed)
    for _ in range(rounds):
        i = rng.randrange(n_keys)
        key = cache.key("race", i)
        cache.put(key, {"verdict": "proven", "i": i,
                        "witness": f"writer{seed}", "pad": "x" * 512})
    return cache.stats()["puts"]


class TestDiskBackendProcessRace:
    """Racing writer *processes* against one disk directory -- the
    FVEVAL_JOBS deployment shape -- with and without a concurrent
    ``cache-gc``.  Atomic temp-file writes are the only lock."""

    N_KEYS = 8
    ROUNDS = 60

    def _race(self, tmp_path, workers=3, gc_loop=None):
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_process_race_writer, str(tmp_path),
                                   "race_ns", self.N_KEYS, self.ROUNDS,
                                   seed)
                       for seed in range(workers)]
            if gc_loop is not None:
                gc_loop(futures)
            return [f.result(timeout=120) for f in futures]

    def test_no_lost_or_torn_verdicts(self, tmp_path):
        puts = self._race(tmp_path)
        assert all(p == self.ROUNDS for p in puts)
        reader = VerdictCache("race_ns", tiers=f"memory,disk={tmp_path}")
        writers = {f"writer{i}" for i in range(3)}
        for i in range(self.N_KEYS):
            value = reader.get(reader.key("race", i))
            # every key written by at least one racer is complete:
            # correct index, a real writer's witness, full padding
            assert value is not None
            assert value["i"] == i and value["pad"] == "x" * 512
            assert value["witness"] in writers
        stats = reader.stats()
        assert stats["corrupt"] == 0
        assert stats["tiers"]["disk"]["hits"] == self.N_KEYS

    def test_concurrent_gc_never_corrupts(self, tmp_path):
        """cache-gc compacting *while* writers race: readers still see
        only complete entries and GC never reaps an in-flight temp."""
        from repro.core.cache import gc_cache_dir

        def gc_loop(futures):
            while not all(f.done() for f in futures):
                gc_cache_dir(tmp_path, max_entries=self.N_KEYS // 2)

        puts = self._race(tmp_path, gc_loop=gc_loop)
        assert all(p == self.ROUNDS for p in puts)
        gc_cache_dir(tmp_path, max_entries=self.N_KEYS // 2)
        survivors = list(tmp_path.rglob("*.json"))
        assert len(survivors) <= self.N_KEYS // 2
        for path in survivors:  # all parse: no torn write survived
            value = json.loads(path.read_text())
            assert value["i"] == int(value["i"])
        assert not list(tmp_path.rglob("*.corrupt"))
        assert not list(tmp_path.rglob("*.tmp"))
        # the directory is still a working cache afterwards
        cache = VerdictCache("race_ns", tiers=f"memory,disk={tmp_path}")
        key = cache.key("post-race")
        cache.put(key, {"verdict": "cex"})
        assert cache.get(key) == {"verdict": "cex"}
