"""Task-level evaluation tests (prompt construction + verdict plumbing)."""

import pytest

from repro.core.tasks import (
    Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask,
)


class TestHumanTask:
    def test_prompt_contains_testbench_and_rules(self, human_task):
        p = human_task.problems()[0]
        prompt = human_task.prompt(p)
        assert "module fifo_1r1w_tb" in prompt
        assert "```systemverilog" in prompt
        assert p.question in prompt

    def test_evaluate_reference_is_equivalent(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(p, f"```systemverilog\n{p.reference}\n```")
        assert rec.syntax_ok and rec.func and rec.partial

    def test_evaluate_garbage(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(p, "not even verilog")
        assert not rec.syntax_ok and rec.verdict == "syntax_error"

    def test_evaluate_partial(self, human_task):
        p = [x for x in human_task.problems()
             if x.problem_id == "fifo_1r1w_4"][0]
        weak = ("assert property (@(posedge clk) disable iff (tb_reset) "
                "wr_push |-> ##[1:$] rd_pop);")
        rec = human_task.evaluate(p, weak)
        assert rec.partial and not rec.func

    def test_evaluate_unresolved_signal(self, human_task):
        p = human_task.problems()[0]
        rec = human_task.evaluate(
            p, "assert property (@(posedge clk) ghost |-> rd_pop);")
        assert not rec.syntax_ok


class TestMachineTask:
    @pytest.fixture(scope="class")
    def task(self):
        return Nl2SvaMachineTask(count=12)

    def test_problem_count(self, task):
        assert len(task.problems()) == 12

    def test_prompt_shots(self, task):
        p = task.problems()[0]
        p0 = task.prompt(p, shots=0)
        p3 = task.prompt(p, shots=3)
        assert "examples of correct translations" not in p0
        assert p3.count("Question:") == 4

    def test_evaluate_reference(self, task):
        p = task.problems()[0]
        rec = task.evaluate(p, p.sva)
        assert rec.func, (p.sva, rec.detail)

    def test_evaluate_hallucinated_operator(self, task):
        p = task.problems()[0]
        rec = task.evaluate(
            p, "assert property (@(posedge clk) eventually(sig_A));")
        assert rec.verdict == "syntax_error"


class TestDesignTask:
    @pytest.fixture(scope="class")
    def task(self):
        return Design2SvaTask("fsm", count=2)

    def test_prompt_mentions_rules(self, task):
        p = task.problems()[0]
        prompt = task.prompt(p)
        assert "Do NOT instantiate" in prompt
        assert "module fsm" in prompt

    def test_evaluate_correct_template(self, task):
        from repro.models.design_assist import fsm_correct_response
        import random
        p = task.problems()[0]
        resp = fsm_correct_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert rec.syntax_ok
        assert rec.func, rec.detail

    def test_evaluate_flawed_template(self, task):
        from repro.models.design_assist import fsm_flawed_response
        import random
        p = task.problems()[0]
        resp = fsm_flawed_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert rec.syntax_ok
        assert not rec.func

    def test_evaluate_broken_template(self, task):
        from repro.models.design_assist import broken_response
        import random
        p = task.problems()[0]
        resp = broken_response(p, random.Random(0))
        rec = task.evaluate(p, resp)
        assert not rec.syntax_ok

    def test_no_assertion_is_syntax_failure(self, task):
        p = task.problems()[0]
        rec = task.evaluate(p, "wire x; assign x = 1'b0;")
        assert not rec.syntax_ok

    #: helper logic the simulator cannot evaluate, beside an assertion
    UNEVALUABLE = ("logic [3:0] shadow; "
                   "always @(posedge clk) shadow <= $foo(shadow); "
                   "assert property (@(posedge clk) 1'b1);")

    @pytest.mark.parametrize("options", [
        {}, {"executor": "process", "workers": 2}],
        ids=["inline", "process"])
    def test_unevaluable_design_logic_costs_one_record(self, options):
        """Design logic the simulator cannot evaluate is a measured
        ``error`` verdict, exactly as the same function inside the
        assertion is, and costs its own record only."""
        good = "assert property (@(posedge clk) 1'b1);"
        task = Design2SvaTask("fsm", count=2, use_cache=False, **options)
        alone = Design2SvaTask("fsm", count=2, use_cache=False)
        try:
            p = task.problems()[0]
            records = task.evaluate_batch(p, [good, self.UNEVALUABLE])
            [want] = alone.evaluate_batch(p, [good])
        finally:
            task.service.close()
        assert len(records) == 2
        assert records[0] == want
        bad = records[1]
        assert bad.verdict == "error" and bad.syntax_ok and not bad.func
        assert "unsupported system function $foo" in bad.detail
        assert "worker_crash" not in repr(bad)

    def test_misconfigured_prover_kwargs_fail_fast(self):
        """A typo'd engine option aborts the run loudly (as the old
        Prover(**kwargs) TypeError did), never a verdict='error'
        record that silently zeroes pass@k."""
        from repro.service import RequestError
        task = Design2SvaTask("fsm", count=1,
                              prover_kwargs={"max_bcm": 9})
        p = task.problems()[0]
        from repro.models.design_assist import fsm_correct_response
        import random
        resp = fsm_correct_response(p, random.Random(0))
        with pytest.raises(RequestError, match="max_bcm"):
            task.evaluate(p, resp)
