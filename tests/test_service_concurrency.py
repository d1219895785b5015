"""Thread-safety of the verification service.

Five layers of guarantees:

* :func:`repro.service.resolve_workers` implements the process-pool
  sizing rules (its environment side is ``tests/test_options.py``);
* concurrent ``run`` calls from multiple threads answer every request
  exactly once with correct verdicts, and the dedup + verdict-cache
  counters stay consistent under contention;
* the process pool's out-of-order completions re-align by ``index``
  (``run``, ``serve`` lines, and composed with ``FVEVAL_JOBS``);
* overlapping batches never share a pooled engine -- including the
  process executor's in-parent fallback for units that cannot be
  pickled;
* ``FVEVAL_CACHE`` disk entries stay atomic (never torn) with racing
  writers and readers.

Record and counter parity across execution strategies lives in
``tests/test_service_parity.py`` (``TestExecutorParity``).
"""

import json
import os
import threading

import pytest

from repro.core.cache import VerdictCache
from repro.service import (
    VerificationService,
    VerifyRequest,
    resolve_workers,
    serve_stream,
)
from repro.service.procpool import MAX_PROC_WORKERS

EQ_WIDTHS = {"clk": 1, "a": 1, "b": 1}
REF = "assert property (@(posedge clk) a |-> b);"
SAME = "assert property (@(posedge clk) a |-> ##0 b);"
WEAKER = "assert property (@(posedge clk) (a && b) |-> b);"

TOY_DESIGN = """
module toy(clk, rst, a, b);
input clk, rst, a;
output reg b;
always_ff @(posedge clk) begin
    if (rst) b <= 1'b0;
    else b <= a;
end
ap_follow: assert property (@(posedge clk) a |=> b);
endmodule
"""

#: (candidate, expected equivalence verdict) -- the per-thread workload
VARIANTS = [
    (SAME, "equivalent"),
    (WEAKER, "ref_implies_candidate"),
    (SAME, "equivalent"),  # textual duplicate: dedup or cache hit
    ("assert property (@(posedge clk) a |-> !b);", "inequivalent"),
]


def equiv_request(candidate: str) -> VerifyRequest:
    return VerifyRequest(kind="equivalence", reference=REF,
                         candidate=candidate, widths=dict(EQ_WIDTHS))


def multi_cone_requests() -> list[VerifyRequest]:
    """Prove requests over three distinct design cones + an error line."""
    requests = []
    for i in range(3):
        source = TOY_DESIGN.replace("module toy", f"module toy{i}")
        for assertion in ("assert property (@(posedge clk) a |=> b);",
                          "assert property (@(posedge clk) a |=> !b);"):
            requests.append(VerifyRequest(kind="prove", source=source,
                                          assertion=assertion))
    requests.append(VerifyRequest(kind="prove", source=TOY_DESIGN,
                                  engine={"max_bmc": "8"}))  # TypeError
    return requests


EXPECTED_MULTI_CONE = ["proven", "cex"] * 3 + ["error"]


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    for name in ("FVEVAL_CACHE", "FVEVAL_CACHE_TIERS", "FVEVAL_JOBS",
                 "FVEVAL_NO_CACHE"):
        monkeypatch.delenv(name, raising=False)


# ---------------------------------------------------------------------------
# worker-count resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    """The environment cases (``FVEVAL_WORKERS``) live with the other
    knobs in ``tests/test_options.py``."""

    def test_explicit_counts(self):
        assert resolve_workers(6) == 6
        assert resolve_workers(1) == 1

    def test_zero_uses_all_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 8

    def test_ceiling(self):
        assert resolve_workers(10 ** 6) == MAX_PROC_WORKERS


# ---------------------------------------------------------------------------
# concurrent run() callers
# ---------------------------------------------------------------------------


class TestConcurrentRuns:
    def test_counters_and_verdicts_under_contention(self):
        """Several threads call run() on one service: every request is
        answered exactly once with the right verdict, and the
        request/dedup/cache counters add up afterwards."""
        service = VerificationService(workers=2)
        threads = 4
        failures: list[str] = []
        barrier = threading.Barrier(threads)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                responses = service.run(
                    [equiv_request(text) for text, _ in VARIANTS])
                assert len(responses) == len(VARIANTS)
                for (_, expected), response in zip(VARIANTS, responses):
                    if response.verdict != expected:
                        failures.append(f"worker {tid}: "
                                        f"{response.verdict} != {expected}")
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(f"worker {tid}: {type(exc).__name__}: {exc}")

        pool = [threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in pool), "deadlocked run()"
        assert failures == []
        stats = service.stats()
        cache = service.cache_stats()
        total = threads * len(VARIANTS)
        assert stats["requests"] == total
        # every cache-eligible request took exactly one path: in-flight
        # dedup (never touches the cache), a cache hit, or a miss that
        # became a put -- lost updates would break these identities
        assert cache["misses"] == cache["puts"]
        assert cache["hits"] + cache["misses"] + stats["dedup_hits"] \
            == total

    def test_partial_stream_does_not_block_other_threads(self):
        """A half-consumed stream() generator releases the scheduling
        lock: another thread's run() proceeds instead of
        blocking on the suspended generator."""
        service = VerificationService()
        stream = service.stream([equiv_request(SAME),
                                 equiv_request(WEAKER)])
        first = next(stream)  # suspend mid-batch
        other: dict = {}

        def runner():
            [response] = service.run([equiv_request(SAME)])
            other["verdict"] = response.verdict

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), \
            "run() blocked on a half-consumed stream()"
        assert other["verdict"] == "equivalent"
        assert first.verdict == "equivalent"
        assert [r.verdict for r in stream] == ["ref_implies_candidate"]

    def test_overlapping_batches_on_one_cone_stay_correct(self):
        """A prove batch scheduled while another in-flight batch owns
        the same pool key gets a private prover: both finish with the
        right verdicts (no shared-session race, no deadlock)."""
        service = VerificationService()
        stream = service.stream(multi_cone_requests()[:2])  # toy0 cone
        first = next(stream)  # cone pinned until the stream closes
        [mid] = service.run([VerifyRequest(
            kind="prove",
            source=TOY_DESIGN.replace("module toy", "module toy0"),
            assertion="assert property (@(posedge clk) a |=> b);",
            use_cache=False)])
        assert mid.verdict == "proven"
        assert [first.verdict] + [r.verdict for r in stream] == \
            ["proven", "cex"]


# ---------------------------------------------------------------------------
# process-pool completion order
# ---------------------------------------------------------------------------


class TestProcessPoolOrdering:
    """Four worker processes complete units out of request order; the
    service re-aligns them by ``index`` and never re-verdicts."""

    def test_run_realigns_out_of_order_completions(self):
        inline = VerificationService().run(multi_cone_requests())
        service = VerificationService(executor="process", workers=4)
        try:
            pooled = service.run(multi_cone_requests())
        finally:
            service.close()
        assert [r.verdict for r in inline] == EXPECTED_MULTI_CONE
        assert [(r.verdict, r.func, r.partial, r.detail, r.meta)
                for r in inline] == \
               [(r.verdict, r.func, r.partial, r.detail, r.meta)
                for r in pooled]
        assert [r.index for r in pooled] == list(range(len(pooled)))

    def test_serve_out_of_order_lines_correlate_by_index(self):
        import io
        sources = []
        for i in range(2):
            renamed = TOY_DESIGN.replace("module toy", f"module toy{i}")
            sources.append(renamed)
            sources.append(renamed.replace("a |=> b", "a |=> !b"))
        lines = [json.dumps({"kind": "prove", "source": source})
                 for source in sources]
        out = io.StringIO()
        service = VerificationService(executor="process", workers=4)
        try:
            status = serve_stream(io.StringIO("\n".join(lines) + "\n"),
                                  out, service)
        finally:
            service.close()
        assert status == 0
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        by_index = {r["index"]: r["verdict"] for r in responses}
        assert [by_index[i] for i in range(4)] == \
            ["proven", "cex", "proven", "cex"]
        assert all(r["worker_id"] in range(4) for r in responses)

    def test_pooled_task_matches_golden_workers(self, monkeypatch):
        """FVEVAL_JOBS process fan-out composes with a process executor
        inside each job: records stay identical to the inline run."""
        from repro.core.runner import RunConfig, run_model_on_task
        from repro.core.tasks import Nl2SvaMachineTask

        def run():
            result = run_model_on_task(
                "gpt-4o", Nl2SvaMachineTask(count=4),
                RunConfig(n_samples=2, temperature=0.8))
            return [(r.problem_id, r.sample_idx, r.verdict, r.func,
                     r.partial, r.detail) for r in result.records]

        monkeypatch.delenv("FVEVAL_EXECUTOR", raising=False)
        monkeypatch.delenv("FVEVAL_WORKERS", raising=False)
        inline = run()
        monkeypatch.setenv("FVEVAL_EXECUTOR", "process")
        monkeypatch.setenv("FVEVAL_WORKERS", "2")
        assert run() == inline
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        assert run() == inline


# ---------------------------------------------------------------------------
# the process executor's in-parent fallback
# ---------------------------------------------------------------------------


class TestUnpicklableFallback:
    def test_overlapping_fallbacks_never_share_a_prover(self, monkeypatch):
        """Units the process executor cannot pickle compute in the
        parent on the inline strategy, under the same pinning rule:
        two threads running the same cone at once get distinct provers
        -- the pooled one and a private one -- never one shared engine.
        A barrier holds each thread inside ``Prover.prove`` until the
        other arrives, so the two proofs are in flight together."""
        from repro.formal.prover import Prover
        from repro.service.procpool import ProcessExecutor
        monkeypatch.setattr(ProcessExecutor, "_dispatch",
                            lambda self, slot, unit: False)
        barrier = threading.Barrier(2, timeout=30.0)
        entered: dict[str, set] = {}
        real_prove = Prover.prove

        def prove(self, *args, **kwargs):
            entered.setdefault(threading.current_thread().name,
                               set()).add(id(self))
            barrier.wait()
            return real_prove(self, *args, **kwargs)

        monkeypatch.setattr(Prover, "prove", prove)
        service = VerificationService(executor="process", workers=1)
        requests = lambda: [VerifyRequest(  # noqa: E731
            kind="prove", source=TOY_DESIGN, assertion=text,
            use_cache=False)
            for text in ("assert property (@(posedge clk) a |=> b);",
                         "assert property (@(posedge clk) a |=> !b);")]
        verdicts: dict[str, list] = {}

        def flush(name: str) -> None:
            verdicts[name] = [(r.verdict, [e["code"] for e in r.degraded])
                              for r in service.run(requests())]

        threads = [threading.Thread(target=flush, args=(name,), name=name,
                                    daemon=True) for name in ("a", "b")]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        expected = [("proven", ["unpicklable"]), ("cex", ["unpicklable"])]
        assert verdicts == {"a": expected, "b": expected}
        assert len(entered["a"]) == len(entered["b"]) == 1
        assert entered["a"].isdisjoint(entered["b"])


# ---------------------------------------------------------------------------
# verdict-cache contention + disk atomicity
# ---------------------------------------------------------------------------


class TestCacheContention:
    def test_counters_consistent_under_contention(self, tmp_path):
        cache = VerdictCache("ns", tiers=f"memory,disk={tmp_path}")
        keys = [cache.key("shared", i) for i in range(6)]
        rounds = 40
        threads = 6

        def worker(tid: int) -> None:
            for i in range(rounds):
                key = keys[(tid + i) % len(keys)]
                if cache.get(key) is None:
                    cache.put(key, {"verdict": "proven", "key": key})

        pool = [threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30.0)
        stats = cache.stats()
        # every get was counted exactly once as hit or miss, and every
        # miss became exactly one put -- the lock's whole job
        assert stats["hits"] + stats["misses"] == threads * rounds
        assert stats["puts"] == stats["misses"]
        assert stats["entries"] == len(keys)

    def test_disk_entries_never_torn_with_racing_writers(self, tmp_path):
        """Racing put()s to the same FVEVAL_CACHE key: a concurrent
        reader always sees a complete JSON document (temp file +
        os.replace), never a partial write.

        The race runs until the reader has parsed ``rounds`` complete
        documents *and* every writer has made ``rounds`` puts, however
        fast or slow the box is."""
        writers = [VerdictCache("ns", tiers=f"memory,disk={tmp_path}")
                   for _ in range(3)]
        key = writers[0].key("hot")
        payload = {"verdict": "proven", "detail": "x" * 4096}
        rounds = 200
        stop = threading.Event()
        puts = [0] * len(writers)  # one slot per writer thread
        reads = [0]
        torn: list[str] = []

        def writer(i: int) -> None:
            while not stop.is_set():
                writers[i].put(key, payload)
                puts[i] += 1

        def reader() -> None:
            path = writers[0]._path(key)
            while not stop.is_set():
                try:
                    text = path.read_text()
                except OSError:
                    continue  # not yet written
                try:
                    assert json.loads(text) == payload
                except (ValueError, AssertionError):
                    torn.append(text[:80])
                    continue
                reads[0] += 1
                if reads[0] >= rounds and min(puts) >= rounds:
                    stop.set()

        pool = [threading.Thread(target=writer, args=(i,), daemon=True)
                for i in range(len(writers))]
        pool.append(threading.Thread(target=reader, daemon=True))
        for t in pool:
            t.start()
        stop.wait(timeout=60.0)
        stop.set()  # on timeout: release the threads, the asserts report
        for t in pool:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in pool)
        assert torn == []
        assert reads[0] >= rounds
        assert min(puts) >= rounds
        # a cold cache (fresh process) reads the entry back intact
        fresh = VerdictCache("ns", tiers=f"memory,disk={tmp_path}")
        assert fresh.get(key) == payload

    def test_service_disk_cache_with_worker_pool(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        first = VerificationService(workers=4).run(multi_cone_requests())
        second = VerificationService(workers=4).run(multi_cone_requests())
        assert [r.verdict for r in first] == \
            [r.verdict for r in second] == EXPECTED_MULTI_CONE
        assert all(r.cache_hit for r in second
                   if r.verdict in ("proven", "cex"))


class TestRemoteTierContention:
    """Concurrent workers/services sharing one ``cache-serve`` tier:
    verdicts are never lost, duplicated, or torn, and killing the
    server mid-deployment degrades fail-open."""

    @pytest.fixture()
    def cache_server(self):
        from repro.service.cacheserve import BackgroundCacheServer
        with BackgroundCacheServer() as bg:
            yield bg

    def test_counters_consistent_against_remote(self, cache_server):
        from repro.core.cache import RemoteBackend
        tiers = f"remote={cache_server.address_spec}"
        cache = VerdictCache("remote_contend", tiers=tiers)
        keys = [cache.key("shared", i) for i in range(6)]
        rounds = 30
        threads = 6

        def worker(tid: int) -> None:
            for i in range(rounds):
                key = keys[(tid + i) % len(keys)]
                if cache.get(key) is None:
                    cache.put(key, {"verdict": "proven", "key": key})

        pool = [threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == threads * rounds
        assert stats["tiers"]["remote"]["errors"] == 0
        # no lost or duplicated verdicts on the server: exactly the six
        # shared keys, each a complete entry
        server_keys = RemoteBackend(
            cache_server.address_spec).scan("remote_contend")
        assert sorted(server_keys) == sorted(keys)
        for key in keys:
            assert cache.get(key) == {"verdict": "proven", "key": key}

    def test_concurrent_services_share_one_remote_tier(self,
                                                       cache_server):
        """Two replicas with disjoint memory tiers: the second is
        served from the warm remote tier, record-identically."""
        tiers = f"memory,remote={cache_server.address_spec}"
        first = VerificationService(workers=4, cache_tiers=tiers)
        second = VerificationService(workers=4, cache_tiers=tiers)
        cold = first.run(multi_cone_requests())
        warm = second.run(multi_cone_requests())
        assert [r.verdict for r in cold] == \
            [r.verdict for r in warm] == EXPECTED_MULTI_CONE
        assert all(r.cache_hit for r in warm
                   if r.verdict in ("proven", "cex"))
        # warm replica's records match the cold ones field-for-field
        for a, b in zip(cold, warm):
            assert (a.verdict, a.kind, a.detail) == \
                (b.verdict, b.kind, b.detail)
        # a healthy tier never contributes degradation provenance
        assert not [e for r in [*cold, *warm] for e in r.degraded
                    if e["code"] == "cache_remote"]
        assert second.cache_stats()["tiers"]["remote"]["hits"] > 0

    def test_killed_cache_serve_fails_open(self):
        """The acceptance scenario: kill cache-serve under a live
        service -- every response still succeeds, the outage is recorded
        as cache_remote degradation, and the run's verdicts match."""
        from repro.service.cacheserve import BackgroundCacheServer
        bg = BackgroundCacheServer()
        bg.start()
        tiers = f"memory,remote={bg.address_spec}"
        try:
            warm = VerificationService(
                workers=2, cache_tiers=tiers).run(multi_cone_requests())
            assert [r.verdict for r in warm] == EXPECTED_MULTI_CONE
        finally:
            bg.stop()  # the deployment loses its warm tier mid-flight
        survivor = VerificationService(workers=2, cache_tiers=tiers)
        responses = survivor.run(multi_cone_requests())
        # zero failed responses: verdicts identical to a healthy run
        assert [r.verdict for r in responses] == EXPECTED_MULTI_CONE
        assert all(r.ok for r in responses if r.verdict != "error")
        # ... and the outage is visible in degradation provenance
        faults = [e for r in responses for e in r.degraded
                  if e["code"] == "cache_remote"]
        assert faults and all(e["retryable"] for e in faults)
        stats = survivor.cache_stats()["tiers"]["remote"]
        assert stats["errors"] >= 1
