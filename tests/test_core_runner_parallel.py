"""FVEVAL_JOBS process-pool batching: parallel == serial, record for record.

How the variable itself parses is ``tests/test_options.py``.
"""

import pytest

from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask, Nl2SvaMachineTask


def _keys(result):
    return [(r.problem_id, r.sample_idx, r.syntax_ok, r.verdict, r.func,
             r.partial) for r in result.records]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("task_factory", [
        lambda: Nl2SvaMachineTask(count=8),
        lambda: Design2SvaTask("fsm", count=4,
                               prover_kwargs={"max_bmc": 5, "max_k": 3,
                                              "sim_traces": 4,
                                              "sim_cycles": 16}),
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
