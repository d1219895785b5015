"""NL2SVA-Human corpus: 13 formal testbenches, 79 annotated assertions.

Re-authored reproduction of the paper's proprietary corpus with the exact
composition of Table 6 (4x 1R1W FIFO = 20, multi-port FIFO = 6, 4x arbiter
= 37, 2x FSM = 4, counter = 5, RAM = 7).  The five ``fifo_1r1w`` items are
reproduced verbatim from the paper's Appendix A (Figure 11); the remaining
items follow the same phrasing conventions ("Create a SVA assertion that
checks: ...; Use the signals '...'") and SVA style (defensive ``!== 1'b1``
forms, ``|->`` forms, ``strong(##[0:$] ...)`` liveness).

Each :class:`HumanProblem` carries the testbench context, the NL question
and the expert reference solution used as equivalence-checking ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

_TB_DIR = Path(__file__).parent / "testbenches"


@dataclass(frozen=True)
class HumanProblem:
    """One NL-to-SVA test instance grounded in a testbench."""

    problem_id: str
    testbench: str  # testbench file stem, e.g. 'fifo_1r1w'
    question: str   # NL description, without the boilerplate wrapper
    signals: tuple[str, ...]  # signal-name hints given to the model
    reference: str  # expert-written reference assertion (ground truth)
    category: str = ""

    @property
    def question_text(self) -> str:
        hint = ""
        if self.signals:
            quoted = ", ".join(f"'{s}'" for s in self.signals)
            hint = f" Use the signals {quoted}."
        return (f"Create a SVA assertion that checks: {self.question}{hint}")


@lru_cache(maxsize=None)
def testbench_source(name: str) -> str:
    """Raw SystemVerilog source of a corpus testbench (read once: the
    corpus is a fixed set of package files)."""
    return (_TB_DIR / f"{name}.sv").read_text()


def testbench_names() -> list[str]:
    return sorted(p.stem for p in _TB_DIR.glob("*.sv"))


def _p(problem_id: str, testbench: str, question: str, signals: tuple,
       reference: str, category: str) -> HumanProblem:
    return HumanProblem(problem_id=problem_id, testbench=testbench,
                        question=question, signals=signals,
                        reference=reference.strip(), category=category)


_D = "@(posedge clk) disable iff (tb_reset)"

_PROBLEMS: list[HumanProblem] = [
    # ------------------------------------------------------------------
    # 1R1W FIFO (shift register) -- 5 assertions, verbatim from Fig. 11
    # ------------------------------------------------------------------
    _p("fifo_1r1w_0", "fifo_1r1w",
       "that the FIFO does not underflow, assuming no bypass.",
       ("rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} (fifo_empty && rd_pop) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_1", "fifo_1r1w",
       "that the FIFO does not overflow, assuming no bypass.",
       ("wr_push", "fifo_full"),
       f"asrt: assert property ({_D} (fifo_full && wr_push) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_2", "fifo_1r1w",
       "that the fifo output and read data are consistent, assuming no "
       "bypass.",
       ("rd_pop", "rd_data", "fifo_out_data"),
       f"asrt: assert property ({_D} "
       "(rd_pop && (fifo_out_data != rd_data)) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_3", "fifo_1r1w",
       "that when response is pending, data is eventually popped from the "
       "FIFO.",
       ("rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} "
       "!fifo_empty |-> strong(##[0:$] rd_pop));",
       "fifo"),
    _p("fifo_1r1w_4", "fifo_1r1w",
       "that when there is a write push to the FIFO, data is eventually "
       "popped.",
       ("rd_pop", "wr_push"),
       f"asrt: assert property ({_D} wr_push |-> strong(##[0:$] rd_pop));",
       "fifo"),
    # ------------------------------------------------------------------
    # 1R1W FIFO with bypass -- 5 assertions
    # ------------------------------------------------------------------
    _p("fifo_1r1w_bypass_0", "fifo_1r1w_bypass",
       "that the FIFO does not underflow: a pop from an empty FIFO is only "
       "legal when it is a bypass.",
       ("rd_pop", "fifo_empty", "bypass"),
       f"asrt: assert property ({_D} "
       "(rd_pop && fifo_empty && !bypass) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_bypass_1", "fifo_1r1w_bypass",
       "that the FIFO does not overflow.",
       ("wr_push", "fifo_full"),
       f"asrt: assert property ({_D} (fifo_full && wr_push) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_bypass_2", "fifo_1r1w_bypass",
       "that a bypass only happens when the FIFO is empty.",
       ("bypass", "fifo_empty"),
       f"asrt: assert property ({_D} bypass |-> fifo_empty);",
       "fifo"),
    _p("fifo_1r1w_bypass_3", "fifo_1r1w_bypass",
       "that on a bypass, the read data equals the write data in the same "
       "cycle.",
       ("bypass", "fifo_out_data", "wr_data"),
       f"asrt: assert property ({_D} "
       "bypass |-> (fifo_out_data == wr_data));",
       "fifo"),
    _p("fifo_1r1w_bypass_4", "fifo_1r1w_bypass",
       "that when there is a write push to the FIFO, data is eventually "
       "popped.",
       ("rd_pop", "wr_push"),
       f"asrt: assert property ({_D} wr_push |-> strong(##[0:$] rd_pop));",
       "fifo"),
    # ------------------------------------------------------------------
    # 1R1W FIFO (pointer model) -- 5 assertions
    # ------------------------------------------------------------------
    _p("fifo_1r1w_ptr_0", "fifo_1r1w_ptr",
       "that the occupancy count never exceeds the FIFO depth.",
       ("count",),
       f"asrt: assert property ({_D} (count > FIFO_DEPTH) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_ptr_1", "fifo_1r1w_ptr",
       "that the FIFO is not popped while empty.",
       ("rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} (fifo_empty && rd_pop) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_ptr_2", "fifo_1r1w_ptr",
       "that the FIFO is not pushed while full.",
       ("wr_push", "fifo_full"),
       f"asrt: assert property ({_D} (fifo_full && wr_push) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_ptr_3", "fifo_1r1w_ptr",
       "that after a push without a pop, the FIFO is not empty on the next "
       "cycle.",
       ("wr_push", "rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} "
       "(wr_push && !rd_pop) |-> ##1 !fifo_empty);",
       "fifo"),
    _p("fifo_1r1w_ptr_4", "fifo_1r1w_ptr",
       "that the empty and full indications are never asserted together.",
       ("fifo_empty", "fifo_full"),
       f"asrt: assert property ({_D} (fifo_empty && fifo_full) !== 1'b1);",
       "fifo"),
    # ------------------------------------------------------------------
    # 1R1W FIFO (credit counter) -- 5 assertions
    # ------------------------------------------------------------------
    _p("fifo_1r1w_credit_0", "fifo_1r1w_credit",
       "that a push never happens when no credits are available.",
       ("wr_push", "no_credit"),
       f"asrt: assert property ({_D} (no_credit && wr_push) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_credit_1", "fifo_1r1w_credit",
       "that the credit count never exceeds the FIFO depth.",
       ("credits",),
       f"asrt: assert property ({_D} (credits > FIFO_DEPTH) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_credit_2", "fifo_1r1w_credit",
       "that a credit is not returned while all credits are already held.",
       ("credit_rtn", "all_credits"),
       f"asrt: assert property ({_D} (all_credits && credit_rtn && !wr_push)"
       " !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_credit_3", "fifo_1r1w_credit",
       "that the FIFO does not underflow.",
       ("rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} (fifo_empty && rd_pop) !== 1'b1);",
       "fifo"),
    _p("fifo_1r1w_credit_4", "fifo_1r1w_credit",
       "that once the FIFO holds data, it is eventually drained.",
       ("fifo_empty", "rd_pop"),
       f"asrt: assert property ({_D} "
       "!fifo_empty |-> strong(##[0:$] rd_pop));",
       "fifo"),
    # ------------------------------------------------------------------
    # Multi-port FIFO -- 6 assertions
    # ------------------------------------------------------------------
    _p("fifo_multiport_0", "fifo_multiport",
       "that the FIFO does not overflow when both write ports push at once.",
       ("wr_push0", "wr_push1", "fifo_almost_full"),
       f"asrt: assert property ({_D} "
       "(fifo_almost_full && wr_push0 && wr_push1) !== 1'b1);",
       "fifo"),
    _p("fifo_multiport_1", "fifo_multiport",
       "that the FIFO does not overflow on a single push while full.",
       ("wr_push0", "wr_push1", "fifo_full"),
       f"asrt: assert property ({_D} "
       "(fifo_full && (wr_push0 || wr_push1)) !== 1'b1);",
       "fifo"),
    _p("fifo_multiport_2", "fifo_multiport",
       "that the FIFO does not underflow.",
       ("rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} (fifo_empty && rd_pop) !== 1'b1);",
       "fifo"),
    _p("fifo_multiport_3", "fifo_multiport",
       "that the occupancy count never exceeds the FIFO depth.",
       ("count",),
       f"asrt: assert property ({_D} (count > FIFO_DEPTH) !== 1'b1);",
       "fifo"),
    _p("fifo_multiport_4", "fifo_multiport",
       "that after a double push with no pop, the FIFO is not empty two "
       "cycles later.",
       ("wr_push0", "wr_push1", "rd_pop", "fifo_empty"),
       f"asrt: assert property ({_D} "
       "(wr_push0 && wr_push1 && !rd_pop) |-> ##1 !fifo_empty);",
       "fifo"),
    _p("fifo_multiport_5", "fifo_multiport",
       "that pending data is eventually popped.",
       ("fifo_empty", "rd_pop"),
       f"asrt: assert property ({_D} "
       "!fifo_empty |-> strong(##[0:$] rd_pop));",
       "fifo"),
    # ------------------------------------------------------------------
    # Round-robin arbiter -- 9 assertions
    # ------------------------------------------------------------------
    _p("arbiter_rr_0", "arbiter_rr",
       "that at most one grant is active in any cycle.",
       ("tb_gnt",),
       f"asrt: assert property ({_D} !$onehot0(tb_gnt) !== 1'b1);",
       "arbiter"),
    _p("arbiter_rr_1", "arbiter_rr",
       "that a grant is only given to a requesting client.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
       "arbiter"),
    _p("arbiter_rr_2", "arbiter_rr",
       "that no grant is issued when there is no request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} (tb_req == 'd0) |-> (tb_gnt == 'd0));",
       "arbiter"),
    _p("arbiter_rr_3", "arbiter_rr",
       "whether starvation occurs, i.e. check that each request from client "
       "is eventually granted.",
       ("tb_req", "tb_gnt", "busy"),
       f"asrt: assert property ({_D} "
       "(!busy && |tb_req && (tb_gnt == 'd0)) !== 1'b1);",
       "arbiter"),
    _p("arbiter_rr_4", "arbiter_rr",
       "that the grant matches the round-robin reference model.",
       ("tb_gnt", "ref_gnt", "busy"),
       f"asrt: assert property ({_D} !busy |-> (tb_gnt == ref_gnt));",
       "arbiter"),
    _p("arbiter_rr_5", "arbiter_rr",
       "that no grant is active while the arbiter is busy.",
       ("tb_gnt", "busy"),
       f"asrt: assert property ({_D} (busy && (tb_gnt != 'd0)) !== 1'b1);",
       "arbiter"),
    _p("arbiter_rr_6", "arbiter_rr",
       "that the same client is not granted in two consecutive cycles while "
       "other requests are pending.",
       ("tb_gnt", "gnt_q", "tb_req"),
       f"asrt: assert property ({_D} "
       "(((tb_gnt & gnt_q) != 'd0) && ((tb_req & ~tb_gnt) != 'd0)) "
       "!== 1'b1);",
       "arbiter"),
    _p("arbiter_rr_7", "arbiter_rr",
       "that a persistent request from client 0 is granted within four "
       "cycles.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} "
       "(tb_req[0] throughout (##4 1'b1)) |-> ##[0:4] tb_gnt[0]);",
       "arbiter"),
    _p("arbiter_rr_8", "arbiter_rr",
       "that a grant pulse lasts exactly one cycle.",
       ("tb_gnt", "gnt_q"),
       f"asrt: assert property ({_D} "
       "((tb_gnt != 'd0) && (tb_gnt == gnt_q)) !== 1'b1);",
       "arbiter"),
    # ------------------------------------------------------------------
    # Fixed-priority arbiter -- 9 assertions
    # ------------------------------------------------------------------
    _p("arbiter_fixed_0", "arbiter_fixed",
       "that at most one grant is active in any cycle.",
       ("tb_gnt",),
       f"asrt: assert property ({_D} !$onehot0(tb_gnt) !== 1'b1);",
       "arbiter"),
    _p("arbiter_fixed_1", "arbiter_fixed",
       "that a grant implies the corresponding request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
       "arbiter"),
    _p("arbiter_fixed_2", "arbiter_fixed",
       "that client 0 is always granted when it requests and the arbiter is "
       "not busy.",
       ("tb_req", "tb_gnt", "busy"),
       f"asrt: assert property ({_D} (tb_req[0] && !busy) |-> tb_gnt[0]);",
       "arbiter"),
    _p("arbiter_fixed_3", "arbiter_fixed",
       "that client 3 is never granted while a higher-priority request is "
       "pending.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} "
       "(tb_gnt[3] && (tb_req[0] || tb_req[1] || tb_req[2])) !== 1'b1);",
       "arbiter"),
    _p("arbiter_fixed_4", "arbiter_fixed",
       "that the grant vector matches the fixed-priority reference model "
       "when the arbiter is not busy.",
       ("tb_gnt", "ref_gnt", "busy"),
       f"asrt: assert property ({_D} !busy |-> (tb_gnt == ref_gnt));",
       "arbiter"),
    _p("arbiter_fixed_5", "arbiter_fixed",
       "that no grant is issued when there is no request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} (tb_req == 'd0) |-> (tb_gnt == 'd0));",
       "arbiter"),
    _p("arbiter_fixed_6", "arbiter_fixed",
       "that client 2 is not granted while client 0 or client 1 requests.",
       ("tb_req", "tb_gnt", "higher_pending"),
       f"asrt: assert property ({_D} (tb_gnt[2] && higher_pending) "
       "!== 1'b1);",
       "arbiter"),
    _p("arbiter_fixed_7", "arbiter_fixed",
       "that some grant is issued in the cycle after a request arrives "
       "while the arbiter is idle.",
       ("tb_req", "tb_gnt", "busy"),
       f"asrt: assert property ({_D} "
       "(|tb_req && !busy) |-> (tb_gnt != 'd0));",
       "arbiter"),
    _p("arbiter_fixed_8", "arbiter_fixed",
       "that a request held until grant is eventually granted.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} "
       "tb_req[1] |-> strong(##[0:$] (tb_gnt[1] || !tb_req[1])));",
       "arbiter"),
    # ------------------------------------------------------------------
    # Reverse-priority arbiter -- 9 assertions
    # ------------------------------------------------------------------
    _p("arbiter_reverse_priority_0", "arbiter_reverse_priority",
       "that at most one grant is active in any cycle.",
       ("tb_gnt",),
       f"asrt: assert property ({_D} !$onehot0(tb_gnt) !== 1'b1);",
       "arbiter"),
    _p("arbiter_reverse_priority_1", "arbiter_reverse_priority",
       "that a grant implies the corresponding request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
       "arbiter"),
    _p("arbiter_reverse_priority_2", "arbiter_reverse_priority",
       "that client 3 wins arbitration whenever it requests and the arbiter "
       "is not busy and not holding.",
       ("tb_req", "tb_gnt", "busy", "hold"),
       f"asrt: assert property ({_D} "
       "(tb_req[3] && !busy && !hold) |-> tb_gnt[3]);",
       "arbiter"),
    _p("arbiter_reverse_priority_3", "arbiter_reverse_priority",
       "that client 0 is only granted when no other client requests.",
       ("tb_req", "tb_gnt", "hold", "cont_gnt"),
       f"asrt: assert property ({_D} "
       "(tb_gnt[0] && !hold && !cont_gnt && "
       "(tb_req[1] || tb_req[2] || tb_req[3])) !== 1'b1);",
       "arbiter"),
    _p("arbiter_reverse_priority_4", "arbiter_reverse_priority",
       "that the grant matches the reverse-priority reference model when "
       "not busy, holding, or continuing a grant.",
       ("tb_gnt", "ref_gnt", "busy", "hold", "cont_gnt"),
       f"asrt: assert property ({_D} "
       "(!busy && !hold && !cont_gnt) |-> (tb_gnt == ref_gnt));",
       "arbiter"),
    _p("arbiter_reverse_priority_5", "arbiter_reverse_priority",
       "that on a continued grant, the grant vector does not change from "
       "the previous cycle.",
       ("tb_gnt", "gnt_q", "cont_gnt"),
       f"asrt: assert property ({_D} cont_gnt |-> (tb_gnt == gnt_q));",
       "arbiter"),
    _p("arbiter_reverse_priority_6", "arbiter_reverse_priority",
       "that a hold is always accompanied or preceded by a grant.",
       ("hold", "gnt_q", "tb_gnt"),
       f"asrt: assert property ({_D} "
       "(hold && (gnt_q == 'd0) && (tb_gnt == 'd0)) !== 1'b1);",
       "arbiter"),
    _p("arbiter_reverse_priority_7", "arbiter_reverse_priority",
       "that no grant is issued when there is no request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} (tb_req == 'd0) |-> (tb_gnt == 'd0));",
       "arbiter"),
    _p("arbiter_reverse_priority_8", "arbiter_reverse_priority",
       "that the arbiter is never on hold or busy or on continued grant at "
       "the same time.",
       ("busy", "hold", "cont_gnt"),
       f"asrt: assert property ({_D} "
       "!$onehot0({hold, busy, cont_gnt}) !== 1'b1);",
       "arbiter"),
    # ------------------------------------------------------------------
    # Weighted arbiter -- 10 assertions
    # ------------------------------------------------------------------
    _p("arbiter_weighted_0", "arbiter_weighted",
       "that at most one grant is active in any cycle.",
       ("tb_gnt",),
       f"asrt: assert property ({_D} !$onehot0(tb_gnt) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_1", "arbiter_weighted",
       "that a grant implies the corresponding request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_2", "arbiter_weighted",
       "that client 0 is not granted when its credits are exhausted.",
       ("tb_gnt", "starved0"),
       f"asrt: assert property ({_D} (starved0 && tb_gnt[0]) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_3", "arbiter_weighted",
       "that client 1 is not granted when its credits are exhausted.",
       ("tb_gnt", "starved1"),
       f"asrt: assert property ({_D} (starved1 && tb_gnt[1]) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_4", "arbiter_weighted",
       "that the credit count of client 0 never exceeds its weight.",
       ("credit0",),
       f"asrt: assert property ({_D} (credit0 > WEIGHT0) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_5", "arbiter_weighted",
       "that the credit count of client 1 never exceeds its weight.",
       ("credit1",),
       f"asrt: assert property ({_D} (credit1 > WEIGHT1) !== 1'b1);",
       "arbiter"),
    _p("arbiter_weighted_6", "arbiter_weighted",
       "that a refill restores the credits of client 0 on the next cycle.",
       ("refill", "credit0"),
       f"asrt: assert property ({_D} refill |-> ##1 (credit0 == WEIGHT0));",
       "arbiter"),
    _p("arbiter_weighted_7", "arbiter_weighted",
       "that no grant is issued when there is no request.",
       ("tb_req", "tb_gnt"),
       f"asrt: assert property ({_D} (tb_req == 'd0) |-> (tb_gnt == 'd0));",
       "arbiter"),
    _p("arbiter_weighted_8", "arbiter_weighted",
       "that when both clients are starved and no refill occurs, no grant "
       "is issued.",
       ("starved0", "starved1", "refill", "tb_gnt"),
       f"asrt: assert property ({_D} "
       "(starved0 && starved1 && !refill) |-> (tb_gnt == 'd0));",
       "arbiter"),
    _p("arbiter_weighted_9", "arbiter_weighted",
       "that a pending request is eventually granted or credits are "
       "refilled.",
       ("tb_req", "tb_gnt", "refill"),
       f"asrt: assert property ({_D} "
       "tb_req[0] |-> strong(##[0:$] (tb_gnt[0] || refill)));",
       "arbiter"),
    # ------------------------------------------------------------------
    # Handshake FSM -- 2 assertions
    # ------------------------------------------------------------------
    _p("fsm_handshake_0", "fsm_handshake",
       "that the FSM leaves IDLE only in response to a request.",
       ("fsm_state", "req"),
       f"asrt: assert property ({_D} "
       "((state_q == IDLE) && !req_q) |-> (fsm_state == IDLE));",
       "fsm"),
    _p("fsm_handshake_1", "fsm_handshake",
       "that an acknowledge in WAIT_ACK moves the FSM to ACTIVE on the next "
       "cycle.",
       ("fsm_state", "ack"),
       f"asrt: assert property ({_D} "
       "((fsm_state == WAIT_ACK) && ack) |-> ##1 (fsm_state == ACTIVE));",
       "fsm"),
    # ------------------------------------------------------------------
    # Memory-controller FSM -- 2 assertions
    # ------------------------------------------------------------------
    _p("fsm_memctrl_0", "fsm_memctrl",
       "that the controller never jumps from IDLE directly to RW.",
       ("fsm_state",),
       f"asrt: assert property ({_D} "
       "((state_q == IDLE) && (fsm_state == RW)) !== 1'b1);",
       "fsm"),
    _p("fsm_memctrl_1", "fsm_memctrl",
       "that a command in IDLE starts an activation on the next cycle.",
       ("fsm_state", "cmd_vld"),
       f"asrt: assert property ({_D} "
       "((fsm_state == IDLE) && cmd_vld) |-> ##1 (fsm_state == ACTIVATE));",
       "fsm"),
    # ------------------------------------------------------------------
    # Counter -- 5 assertions
    # ------------------------------------------------------------------
    _p("counter_0", "counter",
       "that the counter holds its value when not enabled and not loaded.",
       ("count", "en", "load"),
       f"asrt: assert property ({_D} "
       "(!en && !load) |-> ##1 (count == $past(count)));",
       "counter"),
    _p("counter_1", "counter",
       "that a load sets the counter to the load value on the next cycle.",
       ("count", "load", "load_val"),
       f"asrt: assert property ({_D} load |-> ##1 (count == load_val_q));",
       "counter"),
    _p("counter_2", "counter",
       "that the counter increments by one when enabled counting up and not "
       "loading.",
       ("count", "en", "up_down", "load"),
       f"asrt: assert property ({_D} "
       "(en && up_down && !load && !at_max) |-> ##1 "
       "(count == $past(count) + 'd1));",
       "counter"),
    _p("counter_3", "counter",
       "that the counter never exceeds the maximum count.",
       ("count",),
       f"asrt: assert property ({_D} (count > MAX_COUNT) !== 1'b1);",
       "counter"),
    _p("counter_4", "counter",
       "that the counter does not wrap below zero when counting down.",
       ("count", "en", "up_down", "at_min"),
       f"asrt: assert property ({_D} "
       "(en && !up_down && at_min) |-> ##1 (count != MAX_COUNT));",
       "counter"),
    # ------------------------------------------------------------------
    # RAM -- 7 assertions
    # ------------------------------------------------------------------
    _p("ram_1r1w_0", "ram_1r1w",
       "that read data matches the shadow model for a known address.",
       ("rd_en", "rd_data", "shadow_out", "shadow_known"),
       f"asrt: assert property ({_D} "
       "(rd_en && shadow_known && (rd_data != shadow_out)) !== 1'b1);",
       "ram"),
    _p("ram_1r1w_1", "ram_1r1w",
       "that a write is visible to a read of the same address on the next "
       "cycle.",
       ("wr_en", "wr_addr", "wr_data", "shadow_out"),
       f"asrt: assert property ({_D} "
       "wr_en |-> ##1 ($past(wr_data) == shadow_out || "
       "(rd_addr != $past(wr_addr))));",
       "ram"),
    _p("ram_1r1w_2", "ram_1r1w",
       "that a write-read collision is flagged.",
       ("wr_en", "rd_en", "wr_addr", "rd_addr", "collision"),
       f"asrt: assert property ({_D} "
       "(wr_en && rd_en && (wr_addr == rd_addr)) |-> collision);",
       "ram"),
    _p("ram_1r1w_3", "ram_1r1w",
       "that the collision flag is never raised without both a read and a "
       "write.",
       ("wr_en", "rd_en", "collision"),
       f"asrt: assert property ({_D} (collision && !(wr_en && rd_en)) "
       "!== 1'b1);",
       "ram"),
    _p("ram_1r1w_4", "ram_1r1w",
       "that an address never becomes unknown after being written.",
       ("wr_en", "shadow_vld"),
       f"asrt: assert property ({_D} "
       "(shadow_vld[0] && !shadow_vld[0]) !== 1'b1);",
       "ram"),
    _p("ram_1r1w_5", "ram_1r1w",
       "that the registered read enable follows the read enable by one "
       "cycle.",
       ("rd_en", "rd_en_q"),
       f"asrt: assert property ({_D} rd_en |-> ##1 rd_en_q);",
       "ram"),
    _p("ram_1r1w_6", "ram_1r1w",
       "that the registered read address follows the read address by one "
       "cycle.",
       ("rd_addr", "rd_addr_q"),
       f"asrt: assert property ({_D} "
       "##1 (rd_addr_q == $past(rd_addr)) );",
       "ram"),
]


def problems(category: str | None = None,
             testbench: str | None = None) -> list[HumanProblem]:
    """All 79 corpus problems, optionally filtered."""
    out = list(_PROBLEMS)
    if category is not None:
        out = [p for p in out if p.category == category]
    if testbench is not None:
        out = [p for p in out if p.testbench == testbench]
    return out


@lru_cache(maxsize=None)
def corpus_stats() -> dict[str, dict[str, int]]:
    """Table 6 composition: testbench family -> (#variations, #assertions)."""
    families = {
        "1R1W FIFO": ("fifo_1r1w", "fifo_1r1w_bypass", "fifo_1r1w_ptr",
                      "fifo_1r1w_credit"),
        "Multi-Port FIFO": ("fifo_multiport",),
        "Arbiter": ("arbiter_rr", "arbiter_fixed",
                    "arbiter_reverse_priority", "arbiter_weighted"),
        "FSM": ("fsm_handshake", "fsm_memctrl"),
        "Counter": ("counter",),
        "RAM": ("ram_1r1w",),
    }
    stats = {}
    for family, tbs in families.items():
        count = sum(1 for p in _PROBLEMS if p.testbench in tbs)
        stats[family] = {"variations": len(tbs), "assertions": count}
    stats["Total"] = {
        "variations": sum(len(t) for t in families.values()),
        "assertions": len(_PROBLEMS),
    }
    return stats
