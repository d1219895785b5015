"""Tests for the arbiter extension category."""

import random

import pytest

from repro.core.tasks import Design2SvaTask
from repro.datasets.design2sva.arbiter_gen import (
    ArbiterConfig, arbiter_configs, arbiter_correct_response,
    arbiter_flawed_response, generate_arbiter,
)
from repro.rtl.elaborate import elaborate
from repro.rtl.simulator import Simulator


class TestGeneration:
    def test_deterministic(self):
        cfg = ArbiterConfig(n_clients=3, seed=5)
        assert generate_arbiter(cfg).source == generate_arbiter(cfg).source

    @pytest.mark.parametrize("rotating", [True, False])
    @pytest.mark.parametrize("with_busy", [True, False])
    def test_variants_elaborate(self, rotating, with_busy):
        cfg = ArbiterConfig(n_clients=4, rotating=rotating,
                            with_busy=with_busy, seed=1)
        design = elaborate(generate_arbiter(cfg).source, top="arbiter")
        assert "gnt" in design.widths

    def test_config_sweep_unique(self):
        ids = [c.instance_id for c in arbiter_configs(32)]
        assert len(set(ids)) == 32


class TestBehaviour:
    def test_grant_is_onehot_and_delayed(self):
        cfg = ArbiterConfig(n_clients=4, rotating=True, with_busy=False,
                            seed=0)
        design = elaborate(generate_arbiter(cfg).source, top="arbiter")
        sim = Simulator(design, seed=0)
        sim.reset()
        sim.step({"req": 0b1010})
        frame = sim.step({"req": 0})
        gnt = frame["gnt"]
        assert gnt != 0 and (gnt & (gnt - 1)) == 0  # one-hot
        assert gnt & 0b1010  # granted a requester

    def test_rotation_changes_winner(self):
        cfg = ArbiterConfig(n_clients=2, rotating=True, with_busy=False,
                            seed=0)
        design = elaborate(generate_arbiter(cfg).source, top="arbiter")
        sim = Simulator(design, seed=0)
        sim.reset()
        winners = set()
        for _ in range(6):
            frame = sim.step({"req": 0b11})
            if frame["gnt"]:
                winners.add(frame["gnt"])
        assert len(winners) == 2  # both clients get their turn


class TestEvaluation:
    @pytest.fixture(scope="class")
    def task(self):
        return Design2SvaTask("arbiter", count=4)

    def test_correct_templates_proven(self, task):
        for i, d in enumerate(task.problems()):
            rec = task.evaluate(d, arbiter_correct_response(
                d, random.Random(i)))
            assert rec.func, (d.instance_id, rec.verdict, rec.detail)

    def test_flawed_templates_refuted(self, task):
        for i, d in enumerate(task.problems()):
            rec = task.evaluate(d, arbiter_flawed_response(
                d, random.Random(i)))
            assert rec.syntax_ok and not rec.func, d.instance_id

    def test_simulated_model_runs_the_category(self):
        """The SimulatedModel path dispatches arbiter designs to the
        arbiter templates (it sent them to the pipeline ones and died on
        ``KeyError: 'total_depth'``), and still separates right from
        wrong."""
        from repro.core.runner import RunConfig, run_model_on_task
        result = run_model_on_task(
            "gpt-4o", Design2SvaTask("arbiter", count=4),
            RunConfig(n_samples=2, temperature=0.8))
        verdicts = {record.verdict for record in result.records}
        assert len(result.records) == 8
        assert "proven" in verdicts and verdicts - {"proven"}

    def test_broken_templates_use_arbiter_signals(self, task):
        from repro.models.design_assist import broken_response
        design = task.problems()[0]
        for seed in range(12):  # every roll bracket of broken_response
            response = broken_response(design, random.Random(seed))
            assert "gnt" in response or "req" in response
            assert not task.evaluate(design, response).syntax_ok
