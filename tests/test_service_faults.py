"""Fault-tolerant execution tier: deadlines, crash isolation,
degradation ladders, and the deterministic fault-injection harness
(docs/robustness.md).

The chaos CI job re-runs parts of the service suites with
``FVEVAL_FAULTS`` armed; this file is the direct coverage of the fault
paths themselves -- every scenario pins the core invariant that a fault
costs at most its own request and every submitted index still gets
exactly one response.
"""

import json
import os
import time

import pytest

from repro.core.faults import FAULT_CODES, FaultEvent, FaultInjector, classify
from repro.service import (
    VerificationService,
    VerifyRequest,
    resolve_executor,
)

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

#: a deep BMC cone: the counter must be unrolled 2^24 cycles to reach
#: the (reachable) violation, so no tiny wall-clock budget can finish
DEEP_DESIGN = """
module deep(input logic clk);
  logic [23:0] c;
  always_ff @(posedge clk) c <= c + 24'd1;
  p_deep: assert property (@(posedge clk) c != 24'hFFFFFF);
endmodule
"""

DEEP_ENGINE = {"max_bmc": 64, "max_k": 40}

COUNTER = """
module m; input clk, reset_, en; output reg [3:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else if (en) q <= q + 'd1;
end
endmodule
"""


def prove_request(source=TOY_DESIGN, **overrides):
    kwargs = dict(kind="prove", source=source, use_cache=False)
    kwargs.update(overrides)
    return VerifyRequest(**kwargs)


def codes(response):
    return [e["code"] for e in response.degraded]


@pytest.fixture(autouse=True)
def _hermetic_faults(monkeypatch):
    """Fault tests control the injection env themselves."""
    for name in ("FVEVAL_FAULTS", "FVEVAL_FAULTS_SEED", "FVEVAL_CACHE",
                 "FVEVAL_DEADLINE_S", "FVEVAL_EXECUTOR", "FVEVAL_WORKERS",
                 "FVEVAL_NO_CACHE", "FVEVAL_JOBS"):
        monkeypatch.delenv(name, raising=False)
    yield


class TestFaultTaxonomy:
    def test_classify_resource_faults_are_retryable(self):
        assert classify(MemoryError("oom"), stage="x").code == "memory"
        assert classify(MemoryError("oom")).retryable
        assert classify(RecursionError("deep")).code == "recursion"
        assert classify(RecursionError("deep")).retryable
        event = classify(RuntimeError("boom"), stage="prover", attempt=1)
        assert event.code == "engine_error" and not event.retryable
        assert event.attempt == 1 and "boom" in event.detail

    def test_every_event_code_is_in_the_taxonomy(self):
        assert FaultEvent("timeout").code in FAULT_CODES
        wire = FaultEvent("worker_crash", stage="worker", retryable=True,
                          attempt=1, detail="d").as_dict()
        assert wire == {"code": "worker_crash", "stage": "worker",
                        "retryable": True, "attempt": 1, "detail": "d"}
        json.dumps(wire)  # degraded lists must be wire-serializable


class TestFaultInjector:
    def test_spec_parsing(self):
        inj = FaultInjector(
            "worker_crash:0.5,slow_solve:0.25:0.01,capped:1.0@2,"
            "clamped:7.5,malformed,also:bad:rate:extra,:0.5", seed=3)
        assert inj.sites["worker_crash"] == (0.5, None, None)
        assert inj.sites["slow_solve"] == (0.25, 0.01, None)
        assert inj.sites["capped"] == (1.0, None, 2)
        assert inj.sites["clamped"][0] == 1.0  # rate clamped to [0, 1]
        assert "malformed" not in inj.sites
        assert "also" not in inj.sites

    def test_deterministic_and_seeded(self):
        def pattern(seed):
            inj = FaultInjector("s:0.5", seed=seed)
            return [inj.fire("s") is not None for _ in range(64)]

        seq = pattern(seed=7)
        assert seq == pattern(seed=7)  # same (spec, seed) -> same draws
        assert any(seq) and not all(seq)  # rate 0.5 actually mixes
        assert seq != pattern(seed=8)  # the seed matters

    def test_rate_cap_and_arg(self):
        inj = FaultInjector("s:1.0:2.5@2", seed=0)
        assert inj.fire("s") == 2.5
        assert inj.fire("s") == 2.5
        assert inj.fire("s") is None  # @2 cap reached
        assert inj.fire("unarmed") is None
        never = FaultInjector("s:0.0", seed=0)
        assert all(never.fire("s") is None for _ in range(16))

    def test_env_injector_rebuilds_on_change(self, monkeypatch):
        from repro.core import faults
        monkeypatch.setenv("FVEVAL_FAULTS", "site_a:1.0")
        first = faults.injector()
        assert first is not None and first.fire("site_a") is not None
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "99")
        second = faults.injector()
        assert second is not first  # env change -> fresh, zero-counted
        monkeypatch.setenv("FVEVAL_FAULTS", "")
        assert faults.injector() is None


class TestCacheCorruption:
    def _cache(self, tmp_path):
        from repro.core.cache import VerdictCache
        return VerdictCache("faults_test", tiers=f"memory,disk={tmp_path}")

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        writer = self._cache(tmp_path)
        key = writer.key("some", "parts")
        writer.put(key, {"verdict": "proven"})
        path = writer._path(key)
        # simulate a truncated write (no atomic replace / bit rot)
        path.write_text(path.read_text()[:7])
        reader = self._cache(tmp_path)  # fresh memory layer
        assert reader.get(key) is None
        stats = reader.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        assert not path.exists()  # quarantined, cannot be re-read
        assert path.with_name(path.name + ".corrupt").exists()
        # a recompute-and-put heals the entry
        reader.put(key, {"verdict": "proven"})
        fresh = self._cache(tmp_path)
        assert fresh.get(key) == {"verdict": "proven"}
        assert fresh.stats()["corrupt"] == 0

    def test_non_object_entry_is_quarantined(self, tmp_path):
        writer = self._cache(tmp_path)
        key = writer.key("other")
        writer.put(key, {"verdict": "cex"})
        writer._path(key).write_text(json.dumps(["not", "an", "object"]))
        reader = self._cache(tmp_path)
        assert reader.get(key) is None
        assert reader.stats()["corrupt"] == 1

    def test_gc_reaps_old_quarantined_files(self, tmp_path):
        from repro.core.cache import _TMP_GRACE_S, gc_cache_dir
        cache = self._cache(tmp_path)
        key = cache.key("gc")
        cache.put(key, {"verdict": "proven"})
        path = cache._path(key)
        path.write_text("{trunc")
        assert self._cache(tmp_path).get(key) is None
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        # within the grace period the quarantined file is inspectable
        gc_cache_dir(tmp_path, max_age_s=10 * _TMP_GRACE_S)
        assert quarantined.exists()
        stats = gc_cache_dir(tmp_path, max_age_s=10 * _TMP_GRACE_S,
                             now=time.time() + 2 * _TMP_GRACE_S)
        assert not quarantined.exists()
        assert stats["removed"] >= 1

    def test_injected_corruption_counts_and_misses(self, tmp_path,
                                                   monkeypatch):
        cache = self._cache(tmp_path)
        key = cache.key("inject")
        cache.put(key, {"verdict": "proven"})
        monkeypatch.setenv("FVEVAL_FAULTS", "cache_corrupt:1.0")
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "11")
        reader = self._cache(tmp_path)
        assert reader.get(key) is None
        assert reader.stats()["corrupt"] == 1


class TestDeadlines:
    def test_deadline_must_be_positive(self):
        service = VerificationService()
        [resp] = service.run([prove_request(deadline_s=-1.0)])
        assert not resp.ok and "deadline_s" in resp.detail

    def test_deep_cone_times_out_in_thread(self):
        service = VerificationService()
        t0 = time.monotonic()
        [resp] = service.run([prove_request(DEEP_DESIGN, deadline_s=0.05,
                                            engine=dict(DEEP_ENGINE))])
        elapsed = time.monotonic() - t0
        # a structured verdict, not an exception: expiry is a measured
        # outcome of this run's wall-clock budget
        assert resp.ok and resp.verdict == "timeout"
        assert "deadline" in resp.detail
        assert "timeout" in codes(resp)
        assert isinstance(resp.meta.get("stats"), dict)  # partial stats
        assert elapsed < 30.0  # cooperative polling, coarse but bounded

    def test_deadline_leaves_fast_proofs_alone(self):
        service = VerificationService(deadline_s=30.0)
        [resp] = service.run([prove_request()])
        assert resp.verdict == "proven" and not resp.degraded

    def test_env_default_deadline(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_DEADLINE_S", "0.05")
        service = VerificationService()
        [resp] = service.run([prove_request(DEEP_DESIGN,
                                            engine=dict(DEEP_ENGINE))])
        assert resp.verdict == "timeout"

    def test_request_deadline_wins_over_service_default(self):
        service = VerificationService(deadline_s=0.01)
        [resp] = service.run([prove_request(deadline_s=60.0)])
        assert resp.verdict == "proven"

    def test_timeout_verdicts_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        service = VerificationService()
        [first] = service.run([prove_request(DEEP_DESIGN, use_cache=True,
                                             deadline_s=0.05,
                                             engine=dict(DEEP_ENGINE))])
        assert first.verdict == "timeout"
        stats = service.cache_stats()
        assert stats["puts"] == 0  # this run's budget, not the sample
        [second] = service.run([prove_request(DEEP_DESIGN, use_cache=True,
                                              deadline_s=0.05,
                                              engine=dict(DEEP_ENGINE))])
        assert second.verdict == "timeout" and not second.cache_hit


class TestDegradationLadder:
    def test_memory_error_retries_on_fresh_sessions(self, monkeypatch):
        from repro.formal.prover import Prover
        baseline_service = VerificationService()
        [baseline] = baseline_service.run([prove_request()])
        real_dispatch = Prover._dispatch
        calls = {"n": 0}

        def flaky_dispatch(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("solver arena exhausted")
            return real_dispatch(self, *args, **kwargs)

        monkeypatch.setattr(Prover, "_dispatch", flaky_dispatch)
        service = VerificationService()
        [resp] = service.run([prove_request()])
        # the retry on fresh sessions answered with the same verdict, and
        # the resource fault is recorded as retryable provenance
        assert resp.ok and resp.verdict == baseline.verdict
        assert "memory" in codes(resp)
        [event] = [e for e in resp.degraded if e["code"] == "memory"]
        assert event["retryable"] and event["attempt"] == 0

    def test_bmc_strategy_never_proves_after_a_fault(self, monkeypatch):
        """The retry follows the strategy: ``bmc`` runs no k-induction,
        degraded or not."""
        from repro.formal.prover import Prover
        request = dict(engine={"strategy": "bmc"})
        [baseline] = VerificationService().run([prove_request(**request)])
        assert baseline.verdict == "undetermined"
        real_dispatch = Prover._dispatch
        calls = {"n": 0}

        def flaky_dispatch(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("solver arena exhausted")
            return real_dispatch(self, *args, **kwargs)

        monkeypatch.setattr(Prover, "_dispatch", flaky_dispatch)
        [resp] = VerificationService().run([prove_request(**request)])
        assert "memory" in codes(resp)
        assert (resp.verdict, resp.func, resp.detail, resp.meta) == (
            baseline.verdict, False, baseline.detail, baseline.meta)

    def test_memory_error_persisting_is_an_error_verdict(self, monkeypatch):
        from repro.formal.prover import Prover

        def always_oom(self, *args, **kwargs):
            raise MemoryError("still exhausted")

        monkeypatch.setattr(Prover, "_dispatch", always_oom)
        monkeypatch.setattr(Prover, "_schedule", always_oom)
        service = VerificationService()
        [resp] = service.run([prove_request()])
        assert resp.verdict == "error"
        attempts = [e["attempt"] for e in resp.degraded
                    if e["code"] == "memory"]
        assert attempts == [0, 1]  # first try + failed retry
        assert not [e for e in resp.degraded
                    if e["attempt"] == 1 and e["retryable"]]

    @pytest.mark.parametrize("prop", [
        "(!en) |-> ##1 (q == $past(q))",  # proven, after unsat depths
        "q != 4'd3",                       # BMC cex at depth 3
        "q <= 4'd15",                      # structurally inductive
    ])
    def test_retry_counts_every_conflict(self, monkeypatch, prop):
        """The retried proof is the fault-free obligation loop's: same
        record, and every solve's conflicts counted (an unsat BMC
        depth's included)."""
        from repro.formal.prover import Prover
        from repro.rtl.elaborate import elaborate
        from repro.sva.parser import parse_assertion
        design = elaborate(COUNTER)
        assertion = parse_assertion(
            f"assert property (@(posedge clk) disable iff (!reset_) "
            f"{prop});")
        clean = Prover(design, use_simulation=False).prove(assertion)
        real_dispatch = Prover._dispatch
        calls = {"n": 0}

        def flaky_dispatch(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("solver arena exhausted")
            return real_dispatch(self, *args, **kwargs)

        monkeypatch.setattr(Prover, "_dispatch", flaky_dispatch)
        retried = Prover(design).prove(assertion)
        assert calls["n"] == 1  # the retry runs the loop, not _dispatch
        assert [e["code"] for e in retried.degraded] == ["memory"]
        assert (retried.status, retried.engine, retried.depth,
                retried.vacuous, retried.stats) == (
            clean.status, clean.engine, clean.depth, clean.vacuous,
            clean.stats)
        assert "conflicts" in clean.stats

    def test_packed_sim_failure_degrades_to_scalar(self, monkeypatch):
        from repro.formal.bitsim import PackedSimulator
        baseline_service = VerificationService()
        [baseline] = baseline_service.run([prove_request()])

        def broken_run(self, *args, **kwargs):
            raise RuntimeError("packed lane blew up")

        monkeypatch.setattr(PackedSimulator, "run", broken_run)
        service = VerificationService()
        [resp] = service.run([prove_request()])
        # word-level traces give the identical verdict (ladder rung 3)
        assert resp.verdict == baseline.verdict
        assert "packed_sim" in codes(resp)

    def test_service_level_resource_retry(self, monkeypatch):
        from repro.service.service import VerificationService as Svc
        real = Svc._compute_syntax
        calls = {"n": 0}

        def flaky(self, request, entry):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("checker oom")
            return real(self, request, entry)

        monkeypatch.setattr(Svc, "_compute_syntax", flaky)
        service = VerificationService()
        [resp] = service.run([VerifyRequest(
            kind="syntax", candidate="assert property (@(posedge clk) a);",
            widths={"a": 1, "clk": 1})])
        assert resp.ok  # retry answered
        assert codes(resp) == ["memory"]

    def test_injected_engine_error(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "engine_error:1.0")
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "21")
        service = VerificationService()
        [resp] = service.run([prove_request()])
        assert not resp.ok and resp.verdict == "error"
        assert "engine_error" in codes(resp)
        assert "injected" in resp.detail

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        from repro.service.service import VerificationService as Svc

        def interrupted(self, request, entry):
            raise KeyboardInterrupt

        monkeypatch.setattr(Svc, "_compute_prove", interrupted)
        service = VerificationService()
        with pytest.raises(KeyboardInterrupt):
            service.run([prove_request()])


class TestProcessExecutor:
    def test_resolve_executor(self):
        assert resolve_executor("thread") == "thread"
        assert resolve_executor(" Process ") == "process"
        with pytest.raises(ValueError):
            resolve_executor("fork_bomb")
        with pytest.raises(ValueError):
            VerificationService(executor="fork_bomb")
        # an env typo degrades to thread instead of failing runs:
        # tests/test_options.py

    def test_process_parity_with_thread(self):
        requests = [
            prove_request(),
            prove_request(DEEP_DESIGN, engine=dict(DEEP_ENGINE),
                          deadline_s=0.05),
            VerifyRequest(kind="syntax", candidate="garbage((",
                          widths={"a": 1}),
            prove_request(source="module b(input c); endmodule"),
        ]
        import copy
        thread_svc = VerificationService(executor="thread")
        process_svc = VerificationService(executor="process", workers=2)
        try:
            got_t = thread_svc.run(copy.deepcopy(requests))
            got_p = process_svc.run(copy.deepcopy(requests))
        finally:
            process_svc.close()
        assert [r.index for r in got_p] == [0, 1, 2, 3]
        for t, p in zip(got_t, got_p):
            assert (t.ok, t.verdict, t.func, t.partial) == \
                (p.ok, p.verdict, p.func, p.partial)

    def test_process_dedup_and_cache_counters(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        service = VerificationService(executor="process", workers=2)
        try:
            first, second = service.run([prove_request(use_cache=True),
                                         prove_request(use_cache=True)])
            assert first.verdict == second.verdict == "proven"
            assert second.dedup_of == first.request_id
            stats = service.cache_stats()
            # the parent owns the verdict cache: one computed put, and
            # duplicates never touched it
            assert stats["puts"] == 1 and stats["misses"] == 1
            [third] = service.run([prove_request(use_cache=True)])
            assert third.cache_hit
        finally:
            service.close()

    def test_killed_worker_is_retried_once_and_succeeds(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "worker_crash:1.0@1")
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "31")
        service = VerificationService(executor="process", workers=2)
        try:
            responses = service.run([prove_request() for _ in range(3)])
        finally:
            service.close()
        # one response per submitted index, in spite of the SIGKILL
        assert sorted(r.index for r in responses) == [0, 1, 2]
        assert all(r.ok and r.verdict == "proven" for r in responses)
        crashed = [r for r in responses if "worker_crash" in codes(r)]
        assert crashed  # the killed unit's verdicts carry the provenance
        for r in crashed:
            [event] = [e for e in r.degraded
                       if e["code"] == "worker_crash"]
            assert event["retryable"] and event["attempt"] == 0

    def test_repeated_crashes_become_error_responses(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "worker_crash:1.0")
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "41")
        service = VerificationService(executor="process", workers=1)
        try:
            responses = service.run([prove_request() for _ in range(2)])
            assert sorted(r.index for r in responses) == [0, 1]
            for r in responses:
                assert not r.ok and r.verdict == "error"
                assert "worker" in r.detail
                attempts = [e["attempt"] for e in r.degraded
                            if e["code"] == "worker_crash"]
                assert attempts == [0, 1]  # retried once, then gave up
            # the service survives: disarm the chaos and run again
            monkeypatch.setenv("FVEVAL_FAULTS", "")
            [healed] = service.run([prove_request()])
            assert healed.ok and healed.verdict == "proven"
        finally:
            service.close()

    def test_deadline_backstop_kills_stuck_worker(self, monkeypatch):
        from repro.service import procpool
        # a worker stuck outside the solver's poll sites: slow_solve
        # sleeps far past the deadline, so only the SIGKILL backstop
        # (deadline sum + grace) can reclaim the slot
        monkeypatch.setattr(procpool, "DEADLINE_GRACE_S", 0.3)
        monkeypatch.setenv("FVEVAL_FAULTS", "slow_solve:1.0:30.0")
        monkeypatch.setenv("FVEVAL_FAULTS_SEED", "51")
        service = VerificationService(executor="process", workers=1)
        try:
            t0 = time.monotonic()
            [resp] = service.run([prove_request(DEEP_DESIGN,
                                                deadline_s=0.2,
                                                engine=dict(DEEP_ENGINE))])
            elapsed = time.monotonic() - t0
        finally:
            service.close()
        assert resp.ok and resp.verdict == "timeout"
        assert "killed" in resp.detail
        assert elapsed < 10.0  # nowhere near the 30s sleep
        [event] = [e for e in resp.degraded if e["code"] == "timeout"]
        assert event["stage"] == "worker"

    def test_unpicklable_unit_computes_in_process(self):
        request = prove_request()
        request.engine = {"max_bmc": lambda: 8}  # unpicklable value
        service = VerificationService(executor="process", workers=1)
        try:
            [resp] = service.run([request])
        finally:
            service.close()
        # the fallback computes in the parent; whatever the verdict, the
        # boundary failure is recorded and the index answered
        assert resp.index == 0
        assert "unpicklable" in codes(resp)

    def test_serve_stream_process_executor(self):
        import io
        from repro.service import response_to_json, serve_stream
        del response_to_json
        lines = [
            json.dumps({"kind": "syntax",
                        "candidate":
                            "assert property (@(posedge clk) a);",
                        "widths": {"a": 1, "clk": 1}}),
            json.dumps({"kind": "prove", "source": TOY_DESIGN,
                        "use_cache": False, "deadline_s": 30.0}),
        ]
        service = VerificationService(executor="process", workers=2)
        out = io.StringIO()
        try:
            status = serve_stream(io.StringIO("\n".join(lines) + "\n"),
                                  out, service)
        finally:
            service.close()
        assert status == 0
        responses = [json.loads(line) for line in
                     out.getvalue().splitlines()]
        assert sorted(r["index"] for r in responses) == [0, 1]
        assert all("degraded" in r for r in responses)
