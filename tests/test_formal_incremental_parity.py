"""The incremental prover against the soundness oracle, design by design.

Each verdict -- status, engine, depth, vacuity -- is held against the
exhaustive ground truth of ``tests/oracle/`` (docs/engine.md, "The
soundness oracle"): a ``proven`` must leave no reachable violation, a
``vacuous`` no reachable antecedent match, and a ``cex`` must violate
the assertion when replayed on the simulator.  The generated designs run
at widths the oracle can enumerate.
"""

import pytest

from oracle import reach
from oracle.sva_eval import Evaluator, Unsupported

from repro.datasets.design2sva.fsm_gen import FsmConfig, generate_fsm
from repro.datasets.design2sva.pipeline_gen import (
    PipelineConfig, generate_pipeline,
)
from repro.datasets.nl2sva_human.corpus import testbench_source as _tb_source
from repro.formal.prover import Prover
from repro.rtl.elaborate import elaborate
from repro.sva.parser import parse_assertion

COUNTER = """
module m; input clk, reset_, en; output reg [3:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else if (en) q <= q + 'd1;
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
COUNTER_STATUS = ["proven", "proven", "cex", "cex", "undetermined"]

FIFO_ASSERTS = [
    "assert property (@(posedge clk) disable iff (tb_reset) "
    "(fifo_empty && rd_pop) !== 1'b1);",                       # cex
    "assert property (@(posedge clk) disable iff (tb_reset) "
    "(count > FIFO_DEPTH) !== 1'b1);",                         # proven
    "assert property (@(posedge clk) disable iff (tb_reset) "
    "(fifo_empty && fifo_full) !== 1'b1);",                    # proven
]
FIFO_STATUS = ["cex", "proven", "proven"]


def _judge(design, assertion, result, max_bmc, assumes=()):
    """None when *result* agrees with the oracle, else why not."""
    case = reach.Case("parity", "parity", design, assertion, assumes)
    ev = Evaluator(assertion, design.widths, design.params)
    constraints = reach._constraints(case)
    try:
        truth = reach.truth_of(case, ev, constraints)
    except Unsupported as exc:
        if result.status == "proven":
            return f"proven, and outside the oracle's reach: {exc}"
        truth = None  # only a cex can be judged
    return reach.judge(case, ev, constraints, truth, result, max_bmc)


def _compare(design, text, assumes=(), **kwargs):
    assertion = parse_assertion(text, params=design.params)
    assume_asts = tuple(parse_assertion(a, params=design.params)
                        for a in assumes)
    prover = Prover(design, **kwargs)
    result = prover.prove(assertion, assumes=assume_asts)
    problem = _judge(design, assertion, result, prover.max_bmc, assume_asts)
    assert problem is None, (text, result.status, result.detail, problem)
    return result


class TestCounterParity:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(COUNTER)

    @pytest.mark.parametrize("text", COUNTER_ASSERTS)
    def test_verdict_parity(self, design, text):
        status = _compare(design, text).status
        assert status == COUNTER_STATUS[COUNTER_ASSERTS.index(text)]

    @pytest.mark.parametrize("text", [COUNTER_ASSERTS[2], COUNTER_ASSERTS[3]])
    def test_bmc_cex_parity(self, design, text):
        """With simulation disabled BMC must refute it."""
        r = _compare(design, text, use_simulation=False)
        assert r.status == "cex" and r.engine == "bmc"


class TestFsmParity:
    @pytest.fixture(scope="class")
    def design(self, fsm_design_source):
        # 2-bit data inputs: a cone the oracle enumerates
        return elaborate(fsm_design_source.replace("`define WIDTH 8",
                                                   "`define WIDTH 2"),
                         top="fsm")

    def test_transition_proven(self, design):
        r = _compare(design, _D + "(state == 2'b00) |-> ##1 "
                                  "(state == 2'b10));")
        assert r.is_proven

    def test_bad_transition_cex(self, design):
        r = _compare(design, _D + "(state == 2'b10) |-> ##1 "
                                  "(state == 2'b00));",
                     use_simulation=False)
        assert r.status == "cex"

    def test_vacuous_parity(self, design):
        r = _compare(design, _D + "(state == 2'b01 && state == 2'b10) "
                                  "|-> ##1 (state == 2'b00));")
        assert r.is_proven and r.vacuous


class TestFifoParity:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(_tb_source("fifo_1r1w"))

    @pytest.mark.parametrize("text", FIFO_ASSERTS)
    def test_verdict_parity(self, design, text):
        status = _compare(design, text).status
        assert status == FIFO_STATUS[FIFO_ASSERTS.index(text)]

    def test_assumption_parity(self, design):
        r = _compare(
            design, FIFO_ASSERTS[0],
            assumes=("assume property (@(posedge clk) disable iff (tb_reset)"
                     " fifo_empty |-> !(rd_vld && rd_ready));",))
        assert r.is_proven

    def test_shared_sessions_across_assertions(self, design):
        """One Prover proving the whole list (shared sessions) agrees with
        a fresh prover per assertion, and with the oracle."""
        prover = Prover(design)
        for text in FIFO_ASSERTS + FIFO_ASSERTS:  # repeat: warm sessions
            assertion = parse_assertion(text, params=design.params)
            shared = prover.prove(assertion)
            fresh = Prover(design).prove(assertion)
            assert (shared.status, shared.engine, shared.depth) == (
                fresh.status, fresh.engine, fresh.depth), text
            assert _judge(design, assertion, shared, prover.max_bmc) is None
        assert prover._sessions  # the incremental machinery actually engaged


class TestGeneratedDesignParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_fsm_category(self, seed):
        gen = generate_fsm(FsmConfig(n_states=4 + seed, n_edges=6, width=2,
                                     seed=seed))
        design = elaborate(gen.source, top="fsm")
        _compare(design, _D + "fsm_out <= 2'd3);", max_bmc=6, max_k=4)

    def test_pipeline_category(self):
        gen = generate_pipeline(PipelineConfig(n_units=2, width=16, seed=3))
        design = elaborate(gen.source, top="pipeline")
        depth = gen.meta["total_depth"]
        _compare(design,
                 _D + f"in_vld |-> ##{depth} out_vld);",
                 max_bmc=6, max_k=4)
        _compare(design,
                 _D + f"in_vld |-> ##{max(1, depth - 1)} out_vld);",
                 max_bmc=6, max_k=4, use_simulation=False)
