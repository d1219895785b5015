"""Assertion suggestion from design RTL (the Design2SVA response engine).

Builds candidate assertions for generated pipeline/FSM designs the way the
paper's models do (Figure 9, Appendix C.3): reading the design structure and
proposing the "most important" property, optionally with support code.  The
*correct* templates are derived from the generator metadata (so a capable
simulated model can emit a provable assertion); *flawed* templates encode
the misreadings the paper observed (wrong next-state modeling, off-by-one
latency, same-cycle confusion).
"""

from __future__ import annotations

import random

from ..datasets.design2sva.arbiter_gen import (
    arbiter_correct_response, arbiter_flawed_response,
)
from ..datasets.design2sva.pipeline_gen import GeneratedDesign


def _fenced(code: str) -> str:
    return f"```systemverilog\n{code.strip()}\n```"


# ---------------------------------------------------------------------------
# FSM templates
# ---------------------------------------------------------------------------


def _fsm_reachable(design: GeneratedDesign) -> list[int]:
    """States reachable from the reset state S0 (conditional edges count:
    their conditions range over free 32-bit inputs and are satisfiable)."""
    succ = _fsm_successors(design)
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for d in succ[s]:
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    return sorted(seen)


def _fsm_successors(design: GeneratedDesign) -> dict[int, list[int]]:
    meta = design.meta
    succ: dict[int, list[int]] = {}
    for s in range(meta["n_states"]):
        dests = [meta["default_next"][s]]
        dests += [d for _c, d in meta["cond_edges"].get(s, [])]
        # preserve order, dedupe
        seen: list[int] = []
        for d in dests:
            if d not in seen:
                seen.append(d)
        succ[s] = seen
    return succ


def fsm_correct_response(design: GeneratedDesign, rng: random.Random) -> str:
    """A provable assertion for an FSM design."""
    succ = _fsm_successors(design)
    meta = design.meta
    reachable = _fsm_reachable(design)
    roll = rng.random()
    if roll < 0.45:
        # successor-set property on the registered state
        s = rng.choice(reachable)
        terms = " || ".join(f"state == S{d}" for d in succ[s])
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  (state == S{s}) |-> ##1 ({terms})\n);")
    if roll < 0.75:
        # same property phrased over next_state (combinational)
        s = rng.choice(reachable)
        terms = " || ".join(f"next_state == S{d}" for d in succ[s])
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  (state == S{s}) |-> ({terms})\n);")
    if roll < 0.9:
        # output mirrors the state register
        return _fenced(
            "assert property (@(posedge clk) disable iff (tb_reset)\n"
            "  fsm_out == state\n);")
    # support-code style: mirror the full transition function (Figure 9)
    arms = []
    for s in range(meta["n_states"]):
        expr = f"S{meta['default_next'][s]}"
        for cond, dest in reversed(meta["cond_edges"].get(s, [])):
            expr = f"({cond}) ? S{dest} : {expr}"
        arms.append(f"(state == S{s}) ? {expr} :")
    mirror = "\n    ".join(arms)
    return _fenced(
        f"wire [FSM_WIDTH-1:0] next_state_tb;\n"
        f"assign next_state_tb =\n    {mirror}\n    'd0;\n"
        f"assert property (@(posedge clk) disable iff (tb_reset)\n"
        f"  next_state == next_state_tb\n);")


def fsm_flawed_response(design: GeneratedDesign, rng: random.Random) -> str:
    """A well-formed but refutable assertion (misread transition logic).

    Every variant is guaranteed falsifiable by construction -- the flaw
    targets a *reachable* state whose behaviour genuinely contradicts the
    claim -- so the profile's wrong-rate is realized rather than leaking
    into vacuous or coincidental proofs.
    """
    meta = design.meta
    succ = _fsm_successors(design)
    reachable = _fsm_reachable(design)
    roll = rng.random()
    # states where claiming "default successor only" is genuinely wrong
    misdefault = [s for s in reachable
                  if any(d != meta["default_next"][s]
                         for _c, d in meta["cond_edges"].get(s, []))]
    if roll < 0.4 and misdefault:
        # claims the default edge is the only successor (Figure 9 attempt 1)
        s = rng.choice(misdefault)
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  (state == S{s}) |-> ##1 "
            f"(state == S{meta['default_next'][s]})\n);")
    # states where the same-cycle confusion is genuinely wrong (no self loop)
    no_self = [s for s in reachable if s not in succ[s]]
    if roll < 0.65 and no_self:
        s = rng.choice(no_self)
        terms = " || ".join(f"state == S{d}" for d in succ[s])
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  (state == S{s}) |-> ({terms})\n);")
    if roll < 0.85:
        # confuses fsm_out (registered) with next_state (combinational);
        # refuted at reset exit since S0's successor differs from S0
        return _fenced(
            "assert property (@(posedge clk) disable iff (tb_reset)\n"
            "  fsm_out == next_state\n);")
    # claims a state is unreachable that is reached one cycle after reset
    s = meta["default_next"][0]
    return _fenced(
        f"assert property (@(posedge clk) disable iff (tb_reset)\n"
        f"  state != S{s}\n);")


# ---------------------------------------------------------------------------
# Pipeline templates
# ---------------------------------------------------------------------------


def pipeline_correct_response(design: GeneratedDesign,
                              rng: random.Random) -> str:
    depth = design.meta["total_depth"]
    roll = rng.random()
    if roll < 0.7:
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  in_vld |-> ##{depth} out_vld\n);")
    if roll < 0.9:
        # valid chain: a quiet input window forces the output quiet
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  (!in_vld)[*{depth + 1}] |-> !out_vld\n);")
    # support-code variant: track the input valid through a shift register
    return _fenced(
        f"logic [{depth}:0] vld_mirror;\n"
        f"always @(posedge clk) begin\n"
        f"  if (!reset_) vld_mirror <= 'd0;\n"
        f"  else vld_mirror <= {{vld_mirror[{depth - 1}:0], in_vld}};\n"
        f"end\n"
        f"assert property (@(posedge clk) disable iff (tb_reset)\n"
        f"  out_vld == vld_mirror[{depth}]\n);")


def pipeline_flawed_response(design: GeneratedDesign,
                             rng: random.Random) -> str:
    depth = design.meta["total_depth"]
    roll = rng.random()
    if roll < 0.4:
        wrong = depth + (1 if rng.random() < 0.5 or depth == 1 else -1)
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  in_vld |-> ##{wrong} out_vld\n);")
    if roll < 0.65:
        # non-overlapping confusion: off by one through |=>
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  in_vld |=> ##{depth} out_vld\n);")
    if roll < 0.85:
        # believes data is passed through unchanged
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  in_vld |-> ##{depth} (out_data == $past(in_data, {depth}))"
            f"\n);")
    # same-cycle confusion
    return _fenced(
        "assert property (@(posedge clk) disable iff (tb_reset)\n"
        "  in_vld |-> out_vld\n);")


#: per design category: (correct template, flawed template)
_TEMPLATES = {
    "fsm": (fsm_correct_response, fsm_flawed_response),
    "pipeline": (pipeline_correct_response, pipeline_flawed_response),
    "arbiter": (arbiter_correct_response, arbiter_flawed_response),
}


def correct_response(design: GeneratedDesign, rng: random.Random) -> str:
    return _TEMPLATES[design.category][0](design, rng)


def flawed_response(design: GeneratedDesign, rng: random.Random) -> str:
    return _TEMPLATES[design.category][1](design, rng)


#: per design category, what the broken templates misuse: (observed
#: output, data input, trigger, unbalanced-parentheses property)
_BROKEN_SIGNALS = {
    "pipeline": ("out_vld", "in_data", "in_vld",
                 "(in_vld |-> ##2 out_vld"),
    "fsm": ("fsm_out", "in_A", "in_A[0]",
            "(state == S0 |-> ##1 (state == S1"),
    "arbiter": ("gnt", "req", "req[0]", "(|req |-> ##1 (|gnt"),
}


def broken_response(design: GeneratedDesign, rng: random.Random) -> str:
    """A response the formal front end rejects."""
    sig, data, drive, unbalanced = _BROKEN_SIGNALS[design.category]
    roll = rng.random()
    if roll < 0.3:
        # hallucinated liveness operator (Figure 7 failure mode)
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  eventually({sig})\n);")
    if roll < 0.55:
        # simulation-style stimulus in a formal testbench
        return _fenced(
            f"always @(posedge clk) begin\n"
            f"  tb_{data} <= $random;\n"
            f"end\n"
            f"assert property (@(posedge clk) tb_{data} == {data});")
    if roll < 0.8:
        # malformed delay range
        return _fenced(
            f"assert property (@(posedge clk) disable iff (tb_reset)\n"
            f"  {drive} |-> ##[4] {sig}\n);")
    # unbalanced parentheses
    return _fenced(
        f"assert property (@(posedge clk) disable iff (tb_reset)\n"
        f"  {unbalanced}\n);")
