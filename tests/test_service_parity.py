"""Service-redesign parity: every task's records are field-identical to
the pre-service direct-call path.

``tests/data/service_golden.json`` pins, per generator category, the
``EvalRecord`` rows the pre-redesign code (tasks calling
``check_assertion_syntax`` / ``check_equivalence`` / ``Prover.prove``
directly, commit d17737e) produced for a small fixed configuration.
The service-backed tasks must reproduce them byte for byte -- under
per-sample and batched evaluation, with and without the verdict cache,
serial and pooled, and on both execution strategies (inline and
process, one or four workers) -- because the service only reschedules
work, it never changes what a verdict means.
"""

import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import (
    Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "service_golden.json").read_text())

#: the exact configuration the goldens were generated with
PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}
CONFIG = dict(n_samples=2, temperature=0.8)


def run_records(task, **config):
    result = run_model_on_task("gpt-4o", task,
                               RunConfig(**{**CONFIG, **config}))
    return [asdict(r) for r in result.records], result


def design_task(category, **kwargs):
    return Design2SvaTask(category, count=3, prover_kwargs=dict(PROVER),
                          **kwargs)


def arbiter_records(**kwargs):
    """The bench-style template workload the arbiter golden pins."""
    from repro.datasets.design2sva.arbiter_gen import (
        arbiter_correct_response, arbiter_flawed_response,
    )
    task = design_task("arbiter", **kwargs)
    records = []
    for i, design in enumerate(task.problems()):
        rng = random.Random(i)
        responses = [arbiter_correct_response(design, rng),
                     arbiter_flawed_response(design, rng)]
        records.extend(asdict(r) for r in task.evaluate_batch(
            design, responses, model="template"))
    return records, task


@pytest.fixture(autouse=True)
def _hermetic_cache(monkeypatch):
    monkeypatch.delenv("FVEVAL_CACHE", raising=False)
    monkeypatch.delenv("FVEVAL_CACHE_TIERS", raising=False)
    monkeypatch.delenv("FVEVAL_JOBS", raising=False)
    monkeypatch.delenv("FVEVAL_NO_CACHE", raising=False)


class TestGoldenRecords:
    """Per-category goldens pinned from the pre-service code."""

    def test_nl2sva_human(self):
        records, _ = run_records(Nl2SvaHumanTask(), limit=4)
        assert records == GOLDEN["nl2sva_human"]

    def test_nl2sva_machine(self):
        records, _ = run_records(Nl2SvaMachineTask(count=6))
        assert records == GOLDEN["nl2sva_machine"]

    @pytest.mark.parametrize("category", ["fsm", "pipeline"])
    def test_design2sva(self, category):
        records, _ = run_records(design_task(category))
        assert records == GOLDEN[f"design2sva_{category}"]

    def test_design2sva_arbiter(self):
        records, _ = arbiter_records()
        assert records == GOLDEN["design2sva_arbiter"]

    def test_per_sample_evaluate_equals_batch(self):
        """evaluate() is the degenerate batch of one -- same records."""
        task = design_task("fsm")
        loop = design_task("fsm")
        config = RunConfig(**CONFIG)
        problems = task.problems()[:2]
        from repro.models.base import SimulatedModel, GenerationRequest
        model = SimulatedModel("gpt-4o")
        for index, problem in enumerate(problems):
            responses = model.generate(GenerationRequest(
                task="design2sva", problem=problem,
                n_samples=config.n_samples,
                temperature=config.temperature,
                quantile=(index + 0.5) / len(problems)))
            via_batch = [asdict(r) for r in task.evaluate_batch(
                problem, responses, model="gpt-4o")]
            via_loop = [asdict(loop.evaluate(problem, response,
                                             model="gpt-4o",
                                             sample_idx=i))
                        for i, response in enumerate(responses)]
            assert via_batch == via_loop


class TestCacheParity:
    """Cached/uncached and disk-backed runs stay record-identical."""

    @pytest.mark.parametrize("category", ["fsm", "pipeline"])
    def test_uncached(self, category):
        records, _ = run_records(design_task(category, use_cache=False))
        assert records == GOLDEN[f"design2sva_{category}"]

    def test_nl2sva_uncached(self):
        records, _ = run_records(Nl2SvaHumanTask(use_cache=False), limit=4)
        assert records == GOLDEN["nl2sva_human"]
        records, _ = run_records(Nl2SvaMachineTask(count=6,
                                                   use_cache=False))
        assert records == GOLDEN["nl2sva_machine"]

    def test_disk_cache_roundtrip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        first, _ = run_records(design_task("fsm"))
        assert first == GOLDEN["design2sva_fsm"]
        # a fresh task (fresh process in real runs) serves from disk
        second, result = run_records(design_task("fsm"))
        assert second == GOLDEN["design2sva_fsm"]
        assert result.stats["cache"]["tiers"]["disk"]["hits"] > 0


class TestTieredCacheParity:
    """``FVEVAL_CACHE_TIERS`` runs stay record-identical to the goldens
    -- cold and warm, with several workers and under ``FVEVAL_JOBS``
    fan-out -- because tiers change where verdicts are *stored*, never
    what they are."""

    @pytest.fixture()
    def tiered_env(self, monkeypatch, tmp_path):
        from repro.service.cacheserve import BackgroundCacheServer
        with BackgroundCacheServer() as bg:
            monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
            monkeypatch.setenv("FVEVAL_CACHE_TIERS",
                               f"memory,disk,remote={bg.address_spec}")
            yield bg

    def test_cold_and_warm_match_goldens(self, tiered_env):
        cold, _ = run_records(design_task("fsm"))
        assert cold == GOLDEN["design2sva_fsm"]
        # a fresh task: memory tier is cold, disk/remote tiers are warm
        warm, result = run_records(design_task("fsm"))
        assert warm == GOLDEN["design2sva_fsm"]
        tiers = result.stats["cache"]["tiers"]
        assert tiers["disk"]["hits"] + tiers["remote"]["hits"] > 0

    def test_workers_with_tiered_cache(self, tiered_env):
        cold, _ = run_records(design_task("fsm", workers=4))
        assert cold == GOLDEN["design2sva_fsm"]
        warm, result = run_records(design_task("fsm", workers=4))
        assert warm == GOLDEN["design2sva_fsm"]
        tiers = result.stats["cache"]["tiers"]
        assert tiers["disk"]["hits"] + tiers["remote"]["hits"] > 0

    def test_process_executor_with_tiered_cache(self, tiered_env,
                                                monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        cold, _ = run_records(design_task("fsm"))
        assert cold == GOLDEN["design2sva_fsm"]
        warm, result = run_records(design_task("fsm"))
        assert warm == GOLDEN["design2sva_fsm"]
        tiers = result.stats["cache"]["tiers"]
        assert tiers["disk"]["hits"] + tiers["remote"]["hits"] > 0

    def test_warm_remote_only_replica(self, tiered_env, monkeypatch):
        """A second replica with no local disk tier reuses the first's
        verdicts purely through the shared remote tier."""
        cold, _ = run_records(design_task("fsm"))
        monkeypatch.setenv("FVEVAL_CACHE_TIERS",
                           f"memory,remote={tiered_env.address_spec}")
        warm, result = run_records(design_task("fsm"))
        assert cold == warm == GOLDEN["design2sva_fsm"]
        assert result.stats["cache"]["tiers"]["remote"]["hits"] > 0


#: every execution setting a service can be built with: the inline
#: strategy ignores ``workers``, the process strategy sizes its pool by it
EXECUTORS = [("thread", 1), ("thread", 4), ("process", 1), ("process", 4)]
EXECUTOR_IDS = [f"{executor}-{workers}" for executor, workers in EXECUTORS]

TOY_DESIGN = """
module toy(clk, rst, a, b);
input clk, rst, a;
output reg b;
always_ff @(posedge clk) begin
    if (rst) b <= 1'b0;
    else b <= a;
end
endmodule
"""


def cone_batch():
    """Prove requests over three design cones with an in-flight duplicate
    of the first request at position 3, plus an equivalence pair."""
    from repro.service import VerifyRequest
    requests = []
    for i in range(3):
        source = TOY_DESIGN.replace("module toy", f"module toy{i}")
        for text in ("a |=> b", "a |=> !b"):
            requests.append(VerifyRequest(
                kind="prove", source=source,
                assertion=f"assert property (@(posedge clk) {text});"))
    requests.insert(3, VerifyRequest(
        kind="prove", source=TOY_DESIGN.replace("module toy", "module toy0"),
        assertion="assert property (@(posedge clk) a |=> b);"))
    for candidate in ("a |-> ##0 b", "a |-> !b"):
        requests.append(VerifyRequest(
            kind="equivalence",
            reference="assert property (@(posedge clk) a |-> b);",
            candidate=f"assert property (@(posedge clk) {candidate});",
            widths={"clk": 1, "a": 1, "b": 1}))
    return requests


CONE_VERDICTS = ["proven", "cex", "proven", "proven", "cex", "proven", "cex",
                 "equivalent", "inequivalent"]
#: the batch's distinct prove candidates, each falsified by its own pass
SIM_PASSES = 6


@pytest.mark.parametrize("executor,workers", EXECUTORS, ids=EXECUTOR_IDS)
class TestExecutorParity:
    """Both execution strategies at both pool sizes reschedule, never
    re-verdict: the goldens pinned from the pre-service serial code
    reproduce byte for byte, and so do the dedup and simulation counters."""

    @pytest.fixture()
    def service(self, executor, workers):
        from repro.service import VerificationService
        service = VerificationService(executor=executor, workers=workers)
        yield service
        service.close()

    @pytest.mark.parametrize("category", ["fsm", "pipeline"])
    def test_design2sva(self, executor, workers, category):
        task = design_task(category, executor=executor, workers=workers)
        try:
            records, _ = run_records(task)
        finally:
            task.service.close()
        assert records == GOLDEN[f"design2sva_{category}"]

    def test_design2sva_arbiter(self, executor, workers):
        records, task = arbiter_records(executor=executor, workers=workers)
        task.service.close()
        assert records == GOLDEN["design2sva_arbiter"]

    def test_uncached(self, executor, workers):
        task = design_task("fsm", executor=executor, workers=workers,
                           use_cache=False)
        try:
            records, _ = run_records(task)
        finally:
            task.service.close()
        assert records == GOLDEN["design2sva_fsm"]

    def test_env_route(self, executor, workers, monkeypatch):
        """``FVEVAL_EXECUTOR`` / ``FVEVAL_WORKERS`` build the same
        setting the constructor arguments do; the worker count sizes
        only the process pool."""
        monkeypatch.setenv("FVEVAL_EXECUTOR", executor)
        monkeypatch.setenv("FVEVAL_WORKERS", str(workers))
        task = design_task("fsm")
        try:
            records, _ = run_records(task)
            pool = task.service._procpool
            assert (None if pool is None else pool.workers) == \
                (workers if executor == "process" else None)
        finally:
            task.service.close()
        assert records == GOLDEN["design2sva_fsm"]

    def test_nl2sva(self, service):
        records, _ = run_records(Nl2SvaHumanTask(service=service), limit=4)
        assert records == GOLDEN["nl2sva_human"]
        records, _ = run_records(Nl2SvaMachineTask(count=6, service=service))
        assert records == GOLDEN["nl2sva_machine"]

    def test_counters(self, service):
        responses = service.run(cone_batch())
        assert [r.verdict for r in responses] == CONE_VERDICTS
        assert responses[3].dedup_of == responses[0].request_id
        assert service.stats()["dedup_hits"] == 1
        # one packed pass per computed candidate, merged home from the
        # process workers
        assert service.profile["sim_passes"] == SIM_PASSES

    def test_order(self, service, executor, workers):
        responses = list(service.stream(cone_batch()))
        indices = [r.index for r in responses]
        if executor == "thread" or workers == 1:
            # request order, the duplicate at its own position
            assert indices == list(range(len(CONE_VERDICTS)))
        else:  # completion order: correlate by index
            assert sorted(indices) == list(range(len(CONE_VERDICTS)))
        by_index = {r.index: r for r in responses}
        assert [by_index[i].verdict for i in sorted(by_index)] == \
            CONE_VERDICTS
        computed = [r for r in responses if r.dedup_of is None]
        if executor == "thread":
            assert all(r.worker_id is None for r in responses)
        else:  # the process slot that computed it
            assert all(r.worker_id in range(workers) for r in computed)


class TestExecutorCounterParity:
    """The counter deltas process workers ship back add up to what an
    inline run counts: ``stats()`` less the process-wide ``frontend``
    memos and the cache tiers' wall-clock ``latency_ms``, and every
    profile key that is not a ``*_s`` timer."""

    @staticmethod
    def counters(executor, workers):
        task = design_task("fsm", executor=executor, workers=workers)
        try:
            records, _ = run_records(task)
            stats = task.service.stats()
            profile = dict(task.service.profile)
        finally:
            task.service.close()
        assert records == GOLDEN["design2sva_fsm"]
        del stats["frontend"]
        for tier in stats["cache"]["tiers"].values():
            del tier["latency_ms"]
        return stats, {key: value for key, value in profile.items()
                       if not key.endswith("_s")}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_process_counts_what_inline_counts(self, workers):
        inline = self.counters("thread", 1)
        assert inline[0]["prover_builds"] > 0
        assert self.counters("process", workers) == inline


class TestUnrollCounters:
    """The unroller's counters (docs/engine.md, "Lower once, stamp per
    frame") ride the shared prover profile like the stage timers:
    ``service.profile`` -> ``RunResult.stats["prover"]``, merged back
    from process workers."""

    @pytest.mark.parametrize("options", [
        {}, {"workers": 2}, {"executor": "process", "workers": 2}],
        ids=["serial", "threads", "process"])
    def test_counters_reach_run_stats(self, options):
        task = design_task("fsm", use_cache=False, **options)
        try:
            records, result = run_records(task)
        finally:
            task.service.close()
        assert records == GOLDEN["design2sva_fsm"]
        prover = result.stats["prover"]
        assert prover["frames_stamped"] > 0
        assert prover["step_template_nodes"] > 0
        assert prover["unroll_s"] > 0
        assert "frames_walked" not in prover  # every cone templates
        if options.get("executor") != "process":  # computed in-service
            assert prover["frames_stamped"] \
                == task.service.profile["frames_stamped"]


class TestPooledParity:
    """FVEVAL_JOBS pooling: identical records, merged worker stats."""

    def test_records_and_stats(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        records, result = run_records(design_task("fsm"))
        assert records == GOLDEN["design2sva_fsm"]
        # the ISSUE-4 observability fix: pooled runs now attach the
        # workers' merged cache/prover counters instead of nothing
        assert result.stats["cache"]["puts"] > 0
        assert result.stats["prover"].get("sim_candidates", 0) > 0
        assert result.stats["service"]["requests"] == len(records)

    def test_nl2sva_machine_pooled(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        records, result = run_records(Nl2SvaMachineTask(count=6))
        assert records == GOLDEN["nl2sva_machine"]
        assert result.stats["cache"]["puts"] > 0

    def test_pool_stats_exclude_parent_baseline(self, monkeypatch):
        """Counters the parent accumulated before the pool started must
        not be re-counted once per worker."""
        serial, serial_result = run_records(Nl2SvaMachineTask(count=6))
        expected = serial_result.stats["service"]["requests"]
        task = Nl2SvaMachineTask(count=6)
        problem = task.problems()[0]
        task.evaluate(problem, problem.sva)  # parent-side warm-up
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        records, result = run_records(task)
        assert records == GOLDEN["nl2sva_machine"]
        assert result.stats["service"]["requests"] == expected


class TestIncrementalIterator:
    def test_iter_matches_run(self):
        from repro.core.runner import iter_run_model_on_task
        task = design_task("fsm")
        stats: dict = {}
        streamed = [asdict(r) for r in iter_run_model_on_task(
            "gpt-4o", task, RunConfig(**CONFIG), stats=stats)]
        assert streamed == GOLDEN["design2sva_fsm"]
        assert stats["cache"]["puts"] > 0

    def test_iter_is_incremental(self):
        """Records of problem 0 arrive before problem 1 evaluates."""
        from repro.core.runner import iter_run_model_on_task
        task = Nl2SvaMachineTask(count=4)
        iterator = iter_run_model_on_task("gpt-4o", task, RunConfig())
        first = next(iterator)
        assert first.problem_id == task.problems()[0].problem_id
        rest = list(iterator)
        assert len(rest) == 3
