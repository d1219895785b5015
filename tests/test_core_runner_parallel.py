"""FVEVAL_JOBS problem fan-out: parallel == serial, record for record.

How the variable itself parses is ``tests/test_options.py``.
"""

import pytest

from repro import memo
from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask, Nl2SvaMachineTask

PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}


def _keys(result):
    return [(r.problem_id, r.sample_idx, r.syntax_ok, r.verdict, r.func,
             r.partial) for r in result.records]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("task_factory", [
        lambda: Nl2SvaMachineTask(count=8),
        lambda: Design2SvaTask("fsm", count=4, prover_kwargs=dict(PROVER)),
    ], ids=["machine", "design_fsm"])
    def test_records_identical(self, monkeypatch, task_factory):
        monkeypatch.delenv("FVEVAL_JOBS", raising=False)
        serial = run_model_on_task("gpt-4o", task_factory(),
                                   RunConfig(n_samples=2, temperature=0.8))
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        parallel = run_model_on_task("gpt-4o", task_factory(),
                                     RunConfig(n_samples=2, temperature=0.8))
        assert _keys(serial) == _keys(parallel)

    def test_limit_respected_in_parallel(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        res = run_model_on_task("llama-3-8b", Nl2SvaMachineTask(count=10),
                                RunConfig(limit=4))
        assert len({r.problem_id for r in res.records}) == 4


class TestRunStatsCountThisRun:
    """``RunResult.stats`` counts what *this run* did, serial or pooled:
    counters the process accumulated before the run -- an earlier run's
    memo lookups, inherited by every forked pool worker -- are not
    reported again."""

    @staticmethod
    def lookups():
        memo.clear()  # every run starts memo-cold, so lookups repeat
        result = run_model_on_task(
            "gpt-4o", Design2SvaTask("fsm", count=6, prover_kwargs=dict(PROVER)),
            RunConfig(n_samples=3, temperature=0.8))
        return {name: row["hits"] + row["misses"] for name, row
                in result.stats["service"]["frontend"].items()}

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pooled"])
    def test_frontend_lookups_ignore_earlier_runs(self, monkeypatch, jobs):
        monkeypatch.setenv("FVEVAL_JOBS", jobs)
        first = self.lookups()
        monkeypatch.setenv("FVEVAL_JOBS", "1")
        self.lookups()  # a warming run in the same process
        monkeypatch.setenv("FVEVAL_JOBS", jobs)
        assert self.lookups() == first
        assert first["design2sva.testbench"] == 6 * 3


class TestPoolUnavailable:
    """A process pool that cannot start degrades both entry points to
    the serial loop before any record has left: records identical to a
    serial run."""

    def test_both_entry_points_degrade_to_serial(self, monkeypatch):
        import concurrent.futures
        from repro.core.runner import iter_run_model_on_task
        config = RunConfig(n_samples=2, temperature=0.8)
        monkeypatch.delenv("FVEVAL_JOBS", raising=False)
        serial = run_model_on_task("gpt-4o", Nl2SvaMachineTask(count=4),
                                   config).records
        attempts = []

        def unavailable(*args, **kwargs):
            attempts.append(kwargs.get("max_workers"))
            raise OSError("no process pool on this host")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            unavailable)
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        result = run_model_on_task("gpt-4o", Nl2SvaMachineTask(count=4),
                                   config)
        stats: dict = {}
        streamed = list(iter_run_model_on_task(
            "gpt-4o", Nl2SvaMachineTask(count=4), config, stats))
        assert attempts == [2, 2]  # both tried the pool first
        assert result.records == serial
        assert streamed == serial
        assert result.stats["service"]["requests"] == \
            stats["service"]["requests"] > 0
