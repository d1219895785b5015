"""Thread-safety of the concurrent verification service.

Four layers of guarantees:

* :func:`repro.service.executor.resolve_workers` implements the
  worker-count rules, including the ``FVEVAL_JOBS`` x ``FVEVAL_WORKERS``
  anti-oversubscription clamp;
* :meth:`repro.formal.sat.Solver.interrupt` delivered from another
  thread stops a deliberately hard solve promptly, and the
  clear-between-solves handshake is well-defined under barrier-forced
  interleavings;
* concurrent ``submit``/``flush`` from multiple threads resolve every
  handle exactly once with correct verdicts, and the dedup +
  verdict-cache counters stay consistent under contention;
* ``FVEVAL_CACHE`` disk entries stay atomic (never torn) with racing
  writers and readers.
"""

import json
import os
import threading
import time

import pytest

from repro.core.cache import VerdictCache
from repro.formal.sat import Solver
from repro.service import (
    VerificationService,
    VerifyRequest,
    resolve_workers,
    serve_stream,
)
from repro.service.executor import MAX_WORKERS

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
                 "FVEVAL_NO_CACHE", "FVEVAL_NO_BATCH",
                 "FVEVAL_POOL_JOBS"):
        monkeypatch.delenv(name, raising=False)


# ---------------------------------------------------------------------------
# worker-count resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(6) == 6
        assert resolve_workers(1) == 1

    def test_auto_uses_all_cores(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "auto")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers() == 8
        monkeypatch.setenv("FVEVAL_WORKERS", "0")
        assert resolve_workers() == 8
        # explicit 0 follows the same 0 = all-cores convention
        monkeypatch.delenv("FVEVAL_WORKERS")
        assert resolve_workers(0) == 8

    def test_garbage_env_falls_back_serial(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "lots")
        assert resolve_workers() == 1

    def test_ceiling(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_WORKERS", raising=False)
        assert resolve_workers(10 ** 6) == MAX_WORKERS

    def test_pool_jobs_clamp(self, monkeypatch):
        """Inside an FVEVAL_JOBS pool worker, jobs x threads never
        oversubscribes: the thread count is clamped to cpu // jobs."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("FVEVAL_POOL_JOBS", "4")
        assert resolve_workers(8) == 2
        monkeypatch.setenv("FVEVAL_WORKERS", "8")
        assert resolve_workers() == 2
        # more jobs than cores: each worker stays serial
        monkeypatch.setenv("FVEVAL_POOL_JOBS", "16")
        assert resolve_workers(8) == 1

    def test_pool_init_advertises_jobs(self, monkeypatch):
        """runner._pool_init publishes the pool width the clamp reads."""
        from repro.core import runner
        from repro.core.tasks import Nl2SvaMachineTask
        from repro.models.base import SimulatedModel
        monkeypatch.setenv("FVEVAL_JOBS", "3")
        runner._pool_init(SimulatedModel("gpt-4o"),
                          Nl2SvaMachineTask(count=2), runner.RunConfig())
        assert os.environ["FVEVAL_POOL_JOBS"] == "3"
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(4) == 2


# ---------------------------------------------------------------------------
# solver interruption across threads (the cancellation primitive)
# ---------------------------------------------------------------------------


def _php_clauses(holes: int):
    """Pigeonhole CNF (unsat, exponentially many conflicts)."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestSolverInterruptThreads:
    def test_interrupt_from_another_thread_is_prompt(self):
        """A deliberately hard instance (PHP-9 runs for minutes) is
        stopped promptly by an interrupt delivered from another thread,
        thanks to the conflict/propagation/restart-boundary polls."""
        nv, clauses = _php_clauses(9)
        solver = Solver(nv, clauses)
        outcome = {}

        def solve():
            outcome["result"] = solver.solve()

        thread = threading.Thread(target=solve, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the search get deep into the instance
        t0 = time.perf_counter()
        solver.interrupt()
        thread.join(timeout=10.0)
        latency = time.perf_counter() - t0
        assert not thread.is_alive(), "interrupt was never honoured"
        assert outcome["result"].status == "unknown"
        assert outcome["result"].limit == "interrupt"
        assert latency < 10.0

    def test_handshake_interleavings_with_barrier(self):
        """The documented handshake: interrupts may come from any thread
        at any time during a race; the solving thread clears only
        between solves, after the interrupting thread is joined -- and
        then a re-issued solve runs to a real verdict."""
        nv, clauses = _php_clauses(7)
        solver = Solver(nv, clauses)
        barrier = threading.Barrier(2)

        def interrupter():
            barrier.wait()
            time.sleep(0.02)  # land mid-solve
            solver.interrupt()

        thread = threading.Thread(target=interrupter, daemon=True)
        thread.start()
        barrier.wait()
        first = solver.solve()
        thread.join(timeout=10.0)
        assert first.status == "unknown" and first.limit == "interrupt"
        # sticky until the solving thread clears: a second solve under a
        # late/stale flag returns immediately instead of racing
        assert solver.solve().limit == "interrupt"
        # interrupter joined -> the solving thread may clear and retry;
        # the solver state survived both interrupted attempts
        solver.clear_interrupt()
        done = solver.solve(max_conflicts=200_000)
        assert done.status == "unsat"

    def test_interrupt_before_solve_hits_next_solve(self):
        """A late interrupt (delivered after the target solve already
        returned) lands on the next solve -- the defined behaviour the
        clear-between-solves discipline relies on."""
        solver = Solver(2, [[1, 2], [-1, 2]])
        first = solver.solve()
        assert first.is_sat
        solver.interrupt()  # "late" cancellation of the finished solve
        nxt = solver.solve()
        assert nxt.status == "unknown" and nxt.limit == "interrupt"
        solver.clear_interrupt()
        assert solver.solve().is_sat


# ---------------------------------------------------------------------------
# concurrent submit / flush
# ---------------------------------------------------------------------------


class TestConcurrentSubmitFlush:
    def test_counters_and_verdicts_under_contention(self):
        """Several threads submit and flush against one service: every
        handle resolves exactly once with the right verdict, and the
        request/dedup/cache counters add up afterwards."""
        service = VerificationService(workers=2)
        threads = 4
        failures: list[str] = []
        barrier = threading.Barrier(threads)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                handles = [(expected, service.submit(equiv_request(text)))
                           for text, expected in VARIANTS]
                for expected, handle in handles:
                    response = handle.result()
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
        assert not any(t.is_alive() for t in pool), "deadlocked flush"
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
        lock: another thread's run()/flush() proceeds instead of
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

    def test_handle_claimed_by_other_threads_flush(self):
        """result() on a handle another thread's flush claimed blocks
        until that flush resolves it instead of asserting."""
        service = VerificationService()
        claimed = service.submit(equiv_request(SAME))
        started = threading.Event()
        release = threading.Event()
        original_process = service._process

        def slow_process(requests):
            started.set()
            release.wait(timeout=30.0)
            yield from original_process(requests)

        service._process = slow_process
        flusher = threading.Thread(target=service.flush, daemon=True)
        flusher.start()
        assert started.wait(timeout=10.0)
        waiter_result = {}

        def waiter():
            waiter_result["verdict"] = claimed.result().verdict

        waiting = threading.Thread(target=waiter, daemon=True)
        waiting.start()
        waiting.join(timeout=0.2)
        assert waiting.is_alive()  # blocked on the in-flight flush
        release.set()
        flusher.join(timeout=30.0)
        waiting.join(timeout=30.0)
        assert waiter_result["verdict"] == "equivalent"


# ---------------------------------------------------------------------------
# worker-pool scheduling parity
# ---------------------------------------------------------------------------


class TestWorkerPoolParity:
    def test_run_realigns_out_of_order_completions(self):
        serial = VerificationService(workers=1).run(multi_cone_requests())
        pooled = VerificationService(workers=4).run(multi_cone_requests())
        assert [r.verdict for r in serial] == EXPECTED_MULTI_CONE
        assert [(r.verdict, r.func, r.partial, r.detail, r.meta)
                for r in serial] == \
               [(r.verdict, r.func, r.partial, r.detail, r.meta)
                for r in pooled]
        assert [r.index for r in pooled] == list(range(len(pooled)))

    def test_stream_indexes_reassemble(self):
        service = VerificationService(workers=4)
        responses = list(service.stream(multi_cone_requests()))
        assert sorted(r.index for r in responses) == \
            list(range(len(EXPECTED_MULTI_CONE)))
        by_index = {r.index: r.verdict for r in responses}
        assert [by_index[i] for i in range(len(by_index))] == \
            EXPECTED_MULTI_CONE
        # computed responses carry the pool thread that produced them
        assert all(r.worker_id is not None for r in responses
                   if r.verdict in ("proven", "cex"))

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
        status = serve_stream(io.StringIO("\n".join(lines) + "\n"), out,
                              VerificationService(workers=4))
        assert status == 0
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        by_index = {r["index"]: r["verdict"] for r in responses}
        assert [by_index[i] for i in range(4)] == \
            ["proven", "cex", "proven", "cex"]

    def test_dedup_and_batch_counters_with_workers(self):
        service = VerificationService(workers=4, batching=True)
        requests = multi_cone_requests()[:6]
        requests.append(VerifyRequest(
            kind="prove", source=TOY_DESIGN.replace("module toy",
                                                    "module toy0"),
            assertion="assert property (@(posedge clk) a |=> b);"))
        responses = service.run(requests)
        assert responses[6].dedup_of == responses[0].request_id
        assert service.stats()["dedup_hits"] == 1
        # one packed pre-pass per cone, counted without lost updates
        assert service.stats()["batch_groups"] == 3
        assert service.stats()["batch_members"] == 6
        assert service.profile.get("sim_batch_passes", 0) == 3

    def test_pooled_task_matches_golden_workers(self, monkeypatch):
        """FVEVAL_JOBS process fan-out composes with FVEVAL_WORKERS
        in-service threads: records stay identical to the serial run."""
        from repro.core.runner import RunConfig, run_model_on_task
        from repro.core.tasks import Nl2SvaMachineTask

        def run():
            result = run_model_on_task(
                "gpt-4o", Nl2SvaMachineTask(count=4),
                RunConfig(n_samples=2, temperature=0.8))
            return [(r.problem_id, r.sample_idx, r.verdict, r.func,
                     r.partial, r.detail) for r in result.records]

        monkeypatch.delenv("FVEVAL_WORKERS", raising=False)
        serial = run()
        monkeypatch.setenv("FVEVAL_WORKERS", "4")
        assert run() == serial
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        assert run() == serial


# ---------------------------------------------------------------------------
# verdict-cache contention + disk atomicity
# ---------------------------------------------------------------------------


class TestCacheContention:
    def test_counters_consistent_under_contention(self, tmp_path):
        cache = VerdictCache("ns", disk_dir=str(tmp_path))
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
        writers = [VerdictCache("ns", disk_dir=str(tmp_path))
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
        fresh = VerdictCache("ns", disk_dir=str(tmp_path))
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
