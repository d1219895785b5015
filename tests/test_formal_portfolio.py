"""Portfolio proving: budgeted solving, ladder scheduling, strategy parity.

Three layers of guarantees:

* ``sat.Solver`` honours a per-call ``max_conflicts`` (the primitive
  the ladder is built on);
* the ``strategy`` configurations are sound -- in particular a k-induction
  step-case proof is never accepted before its base cases are discharged;
* ``strategy="portfolio"`` verdicts are record-identical (status, engine,
  depth, vacuity, detail) to the sequential ``strategy="auto"`` oracle,
  across handcrafted designs and the Design2SVA bench generators.
"""

import random

import pytest

from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask
from repro.datasets.design2sva.arbiter_gen import (
    arbiter_correct_response,
    arbiter_flawed_response,
)
from repro.datasets.design2sva.sweep import build_benchmark
from repro.datasets.design2sva.testbench_gen import merge_for_eval
from repro.formal import DEFAULT_LADDER
from repro.formal.prover import Prover
from repro.formal.sat import Solver
from repro.models import design_assist
from repro.rtl.elaborate import elaborate
from repro.sva.lexer import strip_code_fences
from repro.sva.parser import parse_assertion

COUNTER = """
module m; input clk, reset_, en; output reg [3:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else if (en) q <= q + 'd1;
end
endmodule
"""

# inductive invariant with a base-case violation: ``latch == 1`` is
# preserved by every step (set only ever raises it) but false at the
# post-reset initial state -- the classic trap for induction without base
STICKY = """
module m; input clk, reset_, set; output reg latch;
always @(posedge clk) begin
  if (!reset_) latch <= 1'b0;
  else if (set) latch <= 1'b1;
end
endmodule
"""

_D = "assert property (@(posedge clk) disable iff (!reset_) "

COUNTER_ASSERTS = [
    _D + "q <= 4'd15);",                          # proven invariant
    _D + "(!en) |-> ##1 (q == $past(q)));",       # proven step property
    _D + "q != 4'd3);",                           # cex
    _D + "q < 4'd2);",                            # cex (easy)
    _D + "en |-> strong(##[0:$] (q == 4'd0)));",  # liveness: undetermined
]

#: CI-subset prover settings for the generated-design parity sweeps
GEN_KWARGS = dict(max_bmc=6, max_k=4, sim_traces=6, sim_cycles=20)


def record_fields(result):
    return (result.status, result.engine, result.depth, result.vacuous,
            result.detail)


def assert_parity(design, assertion, assumes=(), **kwargs):
    auto = Prover(design, strategy="auto", **kwargs).prove(
        assertion, assumes=assumes)
    portfolio = Prover(design, strategy="portfolio", **kwargs).prove(
        assertion, assumes=assumes)
    assert record_fields(auto) == record_fields(portfolio), (
        auto, portfolio)
    return auto, portfolio


# ---------------------------------------------------------------------------
# solver primitives
# ---------------------------------------------------------------------------


def _php_clauses(holes: int):
    """Pigeonhole principle CNF (unsat, needs exponentially many conflicts):
    holes+1 pigeons into *holes* holes."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestSolverBudget:
    def test_conflict_budget_limits_search(self):
        nv, clauses = _php_clauses(5)
        result = Solver(nv, clauses).solve(max_conflicts=3)
        assert result.status == "unknown"
        assert result.limit == "conflicts"
        assert result.conflicts <= 3 + 1

    def test_budget_is_per_call_and_retry_completes(self):
        nv, clauses = _php_clauses(4)
        solver = Solver(nv, clauses)
        first = solver.solve(max_conflicts=2)
        assert first.status == "unknown"
        # restart-and-deepen: same solver, bigger budget, learned clauses
        # from the failed attempt retained
        second = solver.solve(max_conflicts=100_000)
        assert second.status == "unsat"
        assert second.limit == ""

    def test_budget_does_not_affect_sat(self):
        result = Solver(2, [[1, 2], [-1, 2]]).solve(max_conflicts=1)
        assert result.is_sat


# ---------------------------------------------------------------------------
# strategy configurations
# ---------------------------------------------------------------------------


class TestStrategyConfig:
    def test_unknown_strategy_rejected(self):
        design = elaborate(COUNTER)
        with pytest.raises(ValueError, match="unknown strategy"):
            Prover(design, strategy="magic")

    def test_bmc_strategy(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="bmc", use_simulation=False)
        proven = parse_assertion(COUNTER_ASSERTS[0])
        flawed = parse_assertion(COUNTER_ASSERTS[2])
        r = prover.prove(proven)
        assert r.status == "undetermined" and r.engine == "bmc"
        assert "no counterexample within bound" in r.detail
        assert prover.prove(flawed).status == "cex"

    def test_kind_strategy_proves(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="kind", use_simulation=False)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[0]))
        assert r.is_proven and r.engine == "k-induction"

    def test_kind_strategy_discharges_base_cases(self):
        """Inductive step + violated base must be a cex, never 'proven'."""
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "latch == 1'b1);")
        for strategy in ("auto", "kind", "portfolio"):
            r = Prover(design, strategy=strategy,
                       use_simulation=False).prove(assertion)
            assert r.status == "cex", (strategy, r)

    def test_cli_strategy_list_matches_prover(self):
        # the parser keeps a literal copy so it needs no engine import
        from repro.__main__ import _STRATEGIES
        assert tuple(_STRATEGIES) == Prover.STRATEGIES

    def test_win_accounting(self):
        design = elaborate(COUNTER)
        prover = Prover(design, strategy="auto")
        prover.prove(parse_assertion(COUNTER_ASSERTS[0]))
        prover.prove(parse_assertion(COUNTER_ASSERTS[2]))
        prover.prove(parse_assertion(COUNTER_ASSERTS[4]))
        assert prover.profile.get("win_k-induction", 0) == 1
        assert prover.profile.get("win_simulation", 0) == 1
        assert prover.profile.get("win_none", 0) == 1


# ---------------------------------------------------------------------------
# portfolio scheduler
# ---------------------------------------------------------------------------


class TestPortfolioScheduler:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(COUNTER)

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity(self, design, text):
        assert_parity(design, parse_assertion(text))

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_counter_parity_sat_only(self, design, text):
        """Simulation disabled: every verdict must come from the raced
        SAT strategies themselves."""
        assert_parity(design, parse_assertion(text), use_simulation=False)

    def test_ladder_is_clipped_to_max_conflicts(self, design):
        prover = Prover(design, strategy="portfolio", max_conflicts=5_000)
        assert prover._rungs() == [1_000, 5_000]
        assert prover._rungs()[-1] == prover.max_conflicts
        prover = Prover(design, strategy="portfolio", max_conflicts=60,
                        portfolio_ladder=(50, 0, 2, 50, 99))
        assert prover._rungs() == [2, 50, 60]

    def test_custom_ladder(self, design):
        prover = Prover(design, strategy="portfolio",
                        portfolio_ladder=(2, 50), use_simulation=False)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[1]))
        assert r.is_proven  # tiny rungs requeue but the cap rung decides
        assert prover.profile.get("portfolio_solves", 0) > 0

    def test_default_ladder_exported(self):
        assert DEFAULT_LADDER == (1_000, 8_000, 64_000)

    def test_budget_exhaustion_matches_auto(self, design):
        """With a 1-conflict ceiling both schedulers give up identically."""
        assertion = parse_assertion(COUNTER_ASSERTS[1])
        auto, portfolio = assert_parity(design, assertion,
                                        use_simulation=False,
                                        max_conflicts=1)
        assert auto.status == "undetermined"
        assert "conflict budget exhausted" in auto.detail

    def test_proof_cancels_deeper_bmc_probes(self, design):
        prover = Prover(design, strategy="portfolio", use_simulation=False,
                        max_bmc=10)
        r = prover.prove(parse_assertion(COUNTER_ASSERTS[1]))
        assert r.is_proven
        # proven at small k: the BMC depths beyond k were never solved
        assert prover.profile.get("portfolio_cancelled", 0) > 0

    def test_assumption_parity(self):
        design = elaborate(STICKY)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "set |-> ##1 latch);")
        assumes = (parse_assertion(
            "assume property (@(posedge clk) disable iff (!reset_) set);"),)
        assert_parity(design, assertion, assumes=assumes)


# ---------------------------------------------------------------------------
# bench-suite parity (the acceptance criterion)
# ---------------------------------------------------------------------------


def _bench_workload(category: str, count: int):
    """One correct and one flawed template response per generated
    design: the Table 5 proof workload (docs/benchmarks.md)."""
    for i, generated in enumerate(build_benchmark(category, count, 0)):
        rng = random.Random(i)
        if category == "arbiter":
            responses = [arbiter_correct_response(generated, rng),
                         arbiter_flawed_response(generated, rng)]
        else:
            responses = [design_assist.correct_response(generated, rng),
                         design_assist.flawed_response(generated, rng)]
        for response in responses:
            merged = merge_for_eval(generated, generated.tb_source,
                                    strip_code_fences(response))
            design = elaborate(merged.source_file, top=merged.top)
            yield design, design.assertions[-1]


class TestBenchSuiteParity:
    @pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
    def test_record_identical_to_auto(self, category):
        statuses = set()
        for design, assertion in _bench_workload(category, 4):
            auto, _ = assert_parity(design, assertion, **GEN_KWARGS)
            statuses.add(auto.status)
        assert {"proven", "cex"} <= statuses  # the sweep exercises both

    def test_task_records_identical(self):
        """End-to-end through Design2SvaTask: every EvalRecord field that
        feeds the tables is identical under the portfolio."""
        def run(strategy):
            task = Design2SvaTask("fsm", count=4, use_cache=False,
                                  strategy=strategy,
                                  prover_kwargs=dict(GEN_KWARGS))
            result = run_model_on_task("gpt-4o", task,
                                       RunConfig(n_samples=2,
                                                 temperature=0.8))
            return [(r.problem_id, r.sample_idx, r.syntax_ok, r.verdict,
                     r.func, r.partial, r.detail, r.meta.get("engine"),
                     r.meta.get("depth"), r.meta.get("vacuous"))
                    for r in result.records]

        assert run("auto") == run("portfolio")

    def test_portfolio_under_fveval_jobs(self, monkeypatch):
        """Problem-level fan-out composes with the portfolio scheduler."""
        def run():
            task = Design2SvaTask("fsm", count=4, use_cache=False,
                                  strategy="portfolio",
                                  prover_kwargs=dict(GEN_KWARGS))
            result = run_model_on_task("gpt-4o", task, RunConfig())
            return [(r.problem_id, r.verdict, r.func) for r in result.records]

        monkeypatch.delenv("FVEVAL_JOBS", raising=False)
        serial = run()
        monkeypatch.setenv("FVEVAL_JOBS", "2")
        assert run() == serial

    def test_strategy_in_engine_cache_key(self):
        auto = Design2SvaTask("fsm", strategy="auto")
        portfolio = Design2SvaTask("fsm", strategy="portfolio")
        default = Design2SvaTask("fsm")
        assert default._engine != portfolio._engine
        # an explicit default strategy shares cache entries with an
        # unconfigured task -- same engine, same key
        assert auto._engine == default._engine
