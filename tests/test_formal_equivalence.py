"""Equivalence checker tests: the paper's documented verdicts and more."""

import pytest

from repro.formal.equivalence import (
    EquivChecker,
    Verdict,
    check_equivalence,
    is_tautology,
)

W = {"clk": 1, "tb_reset": 1, "wr_push": 1, "rd_pop": 1, "fifo_empty": 1,
     "fifo_full": 1, "rd_data": 4, "fifo_out_data": 4, "busy": 1, "hold": 1,
     "cont_gnt": 1, "sig_A": 1, "sig_B": 4, "sig_D": 1, "sig_F": 1,
     "sig_G": 4, "sig_H": 4, "sig_J": 1, "a": 1, "b": 1, "c": 1}

D = "@(posedge clk) disable iff (tb_reset)"


def verdict(ref, cand, widths=W):
    return check_equivalence(ref, cand, widths).verdict


class TestPaperFigure7:
    def test_strong_vs_weak_liveness(self):
        v = verdict(
            f"assert property ({D} wr_push |-> strong(##[0:$] rd_pop));",
            f"assert property ({D} wr_push |-> ##[1:$] rd_pop);")
        assert v is Verdict.REF_IMPLIES_CANDIDATE

    def test_onehot0_vs_allhigh(self):
        v = verdict(
            f"assert property ({D} !$onehot0({{hold,busy,cont_gnt}}) "
            "!== 1'b1);",
            f"assert property ({D} !(busy && hold && cont_gnt));")
        assert v is Verdict.REF_IMPLIES_CANDIDATE

    def test_onehot0_pairwise_expansion_equivalent(self):
        v = verdict(
            f"assert property ({D} !$onehot0({{hold,busy,cont_gnt}}) "
            "!== 1'b1);",
            f"assert property ({D} !(busy && (hold || cont_gnt)) && "
            "!(hold && (busy || cont_gnt)) && "
            "!(cont_gnt && (busy || hold)));")
        assert v is Verdict.EQUIVALENT


class TestPaperFigure8:
    def test_conjunction_vs_implication(self):
        v = verdict(
            "assert property(@(posedge clk) ((sig_D || ^sig_H) && sig_F));",
            "assert property (@(posedge clk) "
            "(sig_D || ($countones(sig_H) % 2 == 1)) |-> sig_F);")
        assert v is Verdict.REF_IMPLIES_CANDIDATE

    def test_countones_identity_equivalent(self):
        v = verdict(
            "assert property(@(posedge clk) ((sig_D || ^sig_H) && sig_F));",
            "assert property (@(posedge clk) "
            "(sig_D || ($countones(sig_H) % 2 == 1)) && sig_F);")
        assert v is Verdict.EQUIVALENT

    def test_bits_confusion_partial(self):
        # $bits(sig_H) % 2 == 1 is constant false for a 4-bit signal:
        # candidate antecedent narrows to sig_D alone -> one-sided
        v = verdict(
            "assert property(@(posedge clk) (sig_D || ^sig_H) |-> sig_F);",
            "assert property(@(posedge clk) "
            "(sig_D || ($bits(sig_H) % 2 == 1)) |-> sig_F);")
        assert v is Verdict.REF_IMPLIES_CANDIDATE


class TestStyleEquivalences:
    def test_defensive_vs_implication(self):
        v = verdict(
            f"assert property ({D} (rd_pop && (fifo_out_data != rd_data)) "
            "!== 1'b1);",
            f"assert property ({D} rd_pop |-> (rd_data == fifo_out_data));")
        assert v is Verdict.EQUIVALENT

    def test_operand_swap(self):
        v = verdict(
            f"assert property ({D} (fifo_empty && rd_pop) !== 1'b1);",
            f"assert property ({D} (rd_pop && fifo_empty) !== 1'b1);")
        assert v is Verdict.EQUIVALENT

    def test_demorgan(self):
        v = verdict(
            "assert property (@(posedge clk) !(a && b));",
            "assert property (@(posedge clk) !a || !b);")
        assert v is Verdict.EQUIVALENT

    def test_nonoverlap_is_shifted_overlap(self):
        v = verdict(
            "assert property (@(posedge clk) a |=> b);",
            "assert property (@(posedge clk) a |-> ##1 b);")
        assert v is Verdict.EQUIVALENT


class TestDirections:
    def test_candidate_implies_ref(self):
        v = verdict(
            "assert property (@(posedge clk) (a && b) |-> c);",
            "assert property (@(posedge clk) a |-> c);")
        assert v is Verdict.CANDIDATE_IMPLIES_REF

    def test_ref_implies_candidate(self):
        v = verdict(
            "assert property (@(posedge clk) a |-> c);",
            "assert property (@(posedge clk) (a && b) |-> c);")
        assert v is Verdict.REF_IMPLIES_CANDIDATE

    def test_window_weaker_than_exact(self):
        v = verdict(
            "assert property (@(posedge clk) a |-> ##2 b);",
            "assert property (@(posedge clk) a |-> ##[0:2] b);")
        assert v is Verdict.REF_IMPLIES_CANDIDATE

    def test_inequivalent_both_ways(self):
        v = verdict(
            "assert property (@(posedge clk) a |-> ##2 b);",
            "assert property (@(posedge clk) a |-> ##3 b);")
        assert v is Verdict.INEQUIVALENT


class TestRobustness:
    def test_candidate_parse_error(self):
        r = check_equivalence(
            "assert property (@(posedge clk) a);",
            "assert property (@(posedge clk) a |-> );", W)
        assert r.verdict is Verdict.ENCODING_ERROR

    def test_bad_reference_raises(self):
        with pytest.raises(ValueError):
            check_equivalence("garbage(", "assert property (@(posedge clk) a);", W)

    def test_clock_mismatch(self):
        v = verdict(
            "assert property (@(posedge clk) a);",
            "assert property (@(negedge clk) a);")
        assert v is Verdict.INEQUIVALENT

    def test_counterexample_extracted(self):
        r = check_equivalence(
            "assert property (@(posedge clk) a |-> b);",
            "assert property (@(posedge clk) a |-> c);", W)
        assert r.counterexample is not None

    def test_differing_disable_not_equivalent(self):
        v = verdict(
            f"assert property ({D} a |-> b);",
            "assert property (@(posedge clk) a |-> b);")
        assert v in (Verdict.CANDIDATE_IMPLIES_REF, Verdict.INEQUIVALENT)

    def test_self_equivalence(self):
        text = f"assert property ({D} wr_push |-> strong(##[0:$] rd_pop));"
        assert verdict(text, text) is Verdict.EQUIVALENT


class TestConflictBudget:
    """ISSUE-23 bugfix: the witness minimiser used to solve with no
    budget and its conflicts never reached ``stats`` -- a request's
    conflict budget did not bound its work and ``equiv_conflicts``
    under-reported.  One budgeted solve per query closes both."""

    # satisfiable multiplier miter: the counterexample factors 3599
    FACTOR = ("assert property (@(posedge clk) "
              "{6'd0, b} * {6'd0, c} != 12'd3599);")
    WIDTHS = {"b": 6, "c": 6, "clk": 1}
    QUERIES = 3  # miter + two implications, at one horizon

    def solver_conflicts(self, checker):
        return sum(session.solver.total_conflicts
                   for session in checker._sessions.values())

    def test_budget_bounds_all_solver_work(self):
        checker = EquivChecker(self.FACTOR, self.WIDTHS)
        r = checker.check("assert property (@(posedge clk) 1);",
                          max_conflicts=1)
        assert r.verdict is Verdict.UNDETERMINED
        assert r.counterexample is None
        assert 0 < r.stats["conflicts"] <= 1 * self.QUERIES
        assert self.solver_conflicts(checker) == r.stats["conflicts"]

    def test_stats_count_every_conflict(self):
        checker = EquivChecker(self.FACTOR, self.WIDTHS)
        r = checker.check("assert property (@(posedge clk) 1);")
        assert r.verdict is Verdict.REF_IMPLIES_CANDIDATE
        assert r.counterexample == {"b": [61], "c": [59]}
        assert r.stats["conflicts"] > 0
        assert self.solver_conflicts(checker) == r.stats["conflicts"]


class TestTautology:
    def test_weak_unbounded_is_trivially_true(self):
        assert is_tautology(
            "assert property (@(posedge clk) a |-> ##[1:$] b);", W)

    def test_plain_implication_not_tautology(self):
        assert not is_tautology(
            "assert property (@(posedge clk) a |-> b);", W)

    def test_excluded_middle(self):
        assert is_tautology("assert property (@(posedge clk) a || !a);", W)
