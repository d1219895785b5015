"""One obligation loop: every strategy's solve sequence, pinned.

``Prover._schedule`` issues the same two obligations for every strategy
(BMC depth probes and k-induction steps); a strategy is only the order
it issues them in.  This table pins, per strategy x configuration x
case, everything that order decides: the record (status, engine, depth,
vacuity, detail), a digest of the witness, the solver's conflict /
decision / propagation counts and the portfolio's scheduling counters
(``None`` where a key was never written).  Any change to which query
runs when, or under which budget, moves at least one of these.

The values were captured from the four hand-written schedulers the loop
replaced; regenerate with ``python tests/test_formal_schedule.py`` only
when a change is meant to move them, and say why.
"""

import hashlib
import json
import random
import sys
from functools import lru_cache

import pytest
from oracle import reach
from oracle.sva_eval import Evaluator, Unsupported

from repro.datasets.design2sva.arbiter_gen import (
    arbiter_correct_response,
    arbiter_flawed_response,
)
from repro.datasets.design2sva.sweep import build_benchmark
from repro.datasets.design2sva.testbench_gen import merge_for_eval
from repro.formal.prover import Prover
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

STICKY = """
module m; input clk, reset_, set; output reg latch;
always @(posedge clk) begin
  if (!reset_) latch <= 1'b0;
  else if (set) latch <= 1'b1;
end
endmodule
"""

_D = "assert property (@(posedge clk) disable iff (!reset_) "

#: case -> (design key, assertion text, assume texts)
HAND_CASES = {
    "counter_invariant": ("counter", _D + "q <= 4'd15);", ()),
    "counter_step": ("counter", _D + "(!en) |-> ##1 (q == $past(q)));", ()),
    "counter_cex": ("counter", _D + "q != 4'd3);", ()),
    "counter_easy_cex": ("counter", _D + "q < 4'd2);", ()),
    "counter_liveness": ("counter",
                         _D + "en |-> strong(##[0:$] (q == 4'd0)));", ()),
    "sticky_base": ("sticky", _D + "latch == 1'b1);", ()),
    "sticky_assumed": ("sticky", _D + "set |-> ##1 latch);",
                       ("assume property (@(posedge clk) "
                        "disable iff (!reset_) set);",)),
}

#: prover settings of the generated designs (the CI subset)
GEN_KWARGS = dict(max_bmc=6, max_k=4, sim_traces=6, sim_cycles=20)

#: configuration -> prover keywords; all but the first switch
#: simulation off so the SAT scheduler decides every case
CONFIGS = {
    "default": {},
    "nosim": {"use_simulation": False},
    "budget1": {"use_simulation": False, "max_conflicts": 1},
    "deep": {"use_simulation": False, "max_bmc": 10},
    "ladder": {"use_simulation": False, "portfolio_ladder": (2, 50)},
}

#: the resource-fault retry rung: simulation off and every dispatch out
#: of memory, so the obligation loop answers on fresh sessions -- row
#: for row as the fault-free ``nosim`` run does.  The configuration
#: keeps the name of the one-shot path this rung replaced.
RETRY = "oneshot"


class _RetryRung(Prover):
    """A prover whose dispatch always runs out of memory."""

    def _dispatch(self, design, cone_key, assertion):
        raise MemoryError("injected: dispatch out of memory")


PROFILE_KEYS = ("conflicts", "decisions", "propagations",
                "portfolio_solves", "portfolio_requeues",
                "portfolio_cancelled")


@lru_cache(maxsize=None)
def _hand_design(key):
    return elaborate({"counter": COUNTER, "sticky": STICKY}[key])


@lru_cache(maxsize=None)
def _generated(category):
    """One generated design, with a correct and a flawed response."""
    generated = build_benchmark(category, 1, 0)[0]
    rng = random.Random(0)
    if category == "arbiter":
        responses = [arbiter_correct_response(generated, rng),
                     arbiter_flawed_response(generated, rng)]
    else:
        responses = [design_assist.correct_response(generated, rng),
                     design_assist.flawed_response(generated, rng)]
    out = []
    for response in responses:
        merged = merge_for_eval(generated, generated.tb_source,
                                strip_code_fences(response))
        design = elaborate(merged.source_file, top=merged.top)
        out.append((design, design.assertions[-1]))
    return out


def _case(name):
    """(design, assertion, assumes, base prover keywords) of a case."""
    if name in HAND_CASES:
        key, text, assumes = HAND_CASES[name]
        return (_hand_design(key), parse_assertion(text),
                tuple(parse_assertion(a) for a in assumes), {})
    category, which = name.rsplit("_", 1)
    design, assertion = _generated(category)[which == "flawed"]
    return design, assertion, (), dict(GEN_KWARGS)


CASES = [*HAND_CASES, "fsm_correct", "fsm_flawed", "pipeline_correct",
         "pipeline_flawed", "arbiter_correct", "arbiter_flawed"]

TABLE = [*((config, strategy, case) for config in CONFIGS
           for strategy in Prover.STRATEGIES for case in CASES),
         *((RETRY, strategy, case) for strategy in ("auto", "bmc")
           for case in CASES)]


def observe(config, strategy, case):
    design, assertion, assumes, kwargs = _case(case)
    if config == RETRY:
        prover = _RetryRung(design, strategy=strategy,
                            **{**kwargs, "use_simulation": False})
    else:
        prover = Prover(design, strategy=strategy,
                        **{**kwargs, **CONFIGS[config]})
    r = prover.prove(assertion, assumes=assumes)
    assert [e["code"] for e in r.degraded] == (
        ["memory"] if config == RETRY else [])
    witness = (None if r.counterexample is None else hashlib.sha256(
        json.dumps(r.counterexample, sort_keys=True).encode()
    ).hexdigest()[:16])
    return [r.status, r.engine, r.depth, r.vacuous, r.detail, witness,
            *(prover.profile.get(key) for key in PROFILE_KEYS)]


PINNED = {
    'default/auto/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'default/auto/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 130, 273, 7946, None,
         None, None],
    'default/auto/counter_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/auto/counter_easy_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/auto/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'default/auto/sticky_base':
        ['cex', 'simulation', 0, False, '', '813ae348953d11a7', None, None,
         None, None, None, None],
    'default/auto/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'default/auto/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'default/auto/fsm_flawed':
        ['cex', 'simulation', 0, False, '', 'a2c48ae6272c66f3', None, None,
         None, None, None, None],
    'default/auto/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'default/auto/pipeline_flawed':
        ['cex', 'simulation', 0, False, '', '5a214dfcef65d711', None, None,
         None, None, None, None],
    'default/auto/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 8, 16, 199, None, None,
         None],
    'default/auto/arbiter_flawed':
        ['cex', 'simulation', 0, False, '', '5576222683503771', None, None,
         None, None, None, None],
    'default/bmc/counter_invariant':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'default/bmc/counter_step':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, 106, 200, 5800, None,
         None, None],
    'default/bmc/counter_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/bmc/counter_easy_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/bmc/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'default/bmc/sticky_base':
        ['cex', 'simulation', 0, False, '', '813ae348953d11a7', None, None,
         None, None, None, None],
    'default/bmc/sticky_assumed':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'default/bmc/fsm_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'default/bmc/fsm_flawed':
        ['cex', 'simulation', 0, False, '', 'a2c48ae6272c66f3', None, None,
         None, None, None, None],
    'default/bmc/pipeline_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'default/bmc/pipeline_flawed':
        ['cex', 'simulation', 0, False, '', '5a214dfcef65d711', None, None,
         None, None, None, None],
    'default/bmc/arbiter_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, 7, 0, 86, None, None, None],
    'default/bmc/arbiter_flawed':
        ['cex', 'simulation', 0, False, '', '5576222683503771', None, None,
         None, None, None, None],
    'default/kind/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'default/kind/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 8, 33, 319, None, None,
         None],
    'default/kind/counter_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/kind/counter_easy_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/kind/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'default/kind/sticky_base':
        ['cex', 'simulation', 0, False, '', '813ae348953d11a7', None, None,
         None, None, None, None],
    'default/kind/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'default/kind/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'default/kind/fsm_flawed':
        ['cex', 'simulation', 0, False, '', 'a2c48ae6272c66f3', None, None,
         None, None, None, None],
    'default/kind/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'default/kind/pipeline_flawed':
        ['cex', 'simulation', 0, False, '', '5a214dfcef65d711', None, None,
         None, None, None, None],
    'default/kind/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, None, None,
         None],
    'default/kind/arbiter_flawed':
        ['cex', 'simulation', 0, False, '', '5576222683503771', None, None,
         None, None, None, None],
    'default/portfolio/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'default/portfolio/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 10, 34, 339, 2, 0, 11],
    'default/portfolio/counter_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/portfolio/counter_easy_cex':
        ['cex', 'simulation', 0, False, '', '7a9c8b8eb3cc43fb', None, None,
         None, None, None, None],
    'default/portfolio/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'default/portfolio/sticky_base':
        ['cex', 'simulation', 0, False, '', '813ae348953d11a7', None, None,
         None, None, None, None],
    'default/portfolio/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, 2, 0, 11],
    'default/portfolio/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'default/portfolio/fsm_flawed':
        ['cex', 'simulation', 0, False, '', 'a2c48ae6272c66f3', None, None,
         None, None, None, None],
    'default/portfolio/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, 2, 0, 6],
    'default/portfolio/pipeline_flawed':
        ['cex', 'simulation', 0, False, '', '5a214dfcef65d711', None, None,
         None, None, None, None],
    'default/portfolio/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, 2, 0, 6],
    'default/portfolio/arbiter_flawed':
        ['cex', 'simulation', 0, False, '', '5576222683503771', None, None,
         None, None, None, None],
    'nosim/auto/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'nosim/auto/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 130, 273, 7946, None,
         None, None],
    'nosim/auto/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 1, 2, 21, None,
         None, None],
    'nosim/auto/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'nosim/auto/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'nosim/auto/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/auto/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'nosim/auto/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'nosim/auto/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/auto/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'nosim/auto/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'nosim/auto/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 8, 16, 199, None, None,
         None],
    'nosim/auto/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'nosim/bmc/counter_invariant':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'nosim/bmc/counter_step':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, 106, 200, 5800, None,
         None, None],
    'nosim/bmc/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 1, 2, 21, None,
         None, None],
    'nosim/bmc/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'nosim/bmc/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'nosim/bmc/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/bmc/sticky_assumed':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'nosim/bmc/fsm_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'nosim/bmc/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/bmc/pipeline_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'nosim/bmc/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'nosim/bmc/arbiter_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, 7, 0, 86, None, None, None],
    'nosim/bmc/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'nosim/kind/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'nosim/kind/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 8, 33, 319, None, None,
         None],
    'nosim/kind/counter_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 7, 32, 616, None, None, None],
    'nosim/kind/counter_easy_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 0, 5, 421, None, None, None],
    'nosim/kind/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'nosim/kind/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/kind/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'nosim/kind/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'nosim/kind/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, 1, 1, 13,
         None, None, None],
    'nosim/kind/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'nosim/kind/pipeline_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 112, 112, None, None, None],
    'nosim/kind/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, None, None,
         None],
    'nosim/kind/arbiter_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 25, 161, None, None, None],
    'nosim/portfolio/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'nosim/portfolio/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 10, 34, 339, 2, 0, 11],
    'nosim/portfolio/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 2, 3, 67, 3, 0, 0],
    'nosim/portfolio/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, 1, 0, 0],
    'nosim/portfolio/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'nosim/portfolio/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/portfolio/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, 2, 0, 11],
    'nosim/portfolio/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'nosim/portfolio/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'nosim/portfolio/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, 2, 0, 6],
    'nosim/portfolio/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, 1, 0, 0],
    'nosim/portfolio/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, 2, 0, 6],
    'nosim/portfolio/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, 1, 0, 0],
    'budget1/auto/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'budget1/auto/counter_step':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 1, 9, None, None, None],
    'budget1/auto/counter_cex':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 0, 6, None, None, None],
    'budget1/auto/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'budget1/auto/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'budget1/auto/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/auto/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'budget1/auto/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'budget1/auto/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/auto/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'budget1/auto/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'budget1/auto/arbiter_correct':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 0, 8, None, None, None],
    'budget1/auto/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'budget1/bmc/counter_invariant':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'budget1/bmc/counter_step':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 1, 9, None, None, None],
    'budget1/bmc/counter_cex':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 0, 6, None, None, None],
    'budget1/bmc/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'budget1/bmc/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'budget1/bmc/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/bmc/sticky_assumed':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'budget1/bmc/fsm_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'budget1/bmc/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/bmc/pipeline_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'budget1/bmc/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'budget1/bmc/arbiter_correct':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         1, 0, 8, None, None, None],
    'budget1/bmc/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'budget1/kind/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'budget1/kind/counter_step':
        ['undetermined', 'k-induction', 0, False, 'conflict budget exhausted',
         None, 1, 5, 77, None, None, None],
    'budget1/kind/counter_cex':
        ['undetermined', 'k-induction', 0, False, 'conflict budget exhausted',
         None, 1, 1, 27, None, None, None],
    'budget1/kind/counter_easy_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 0, 5, 421, None, None, None],
    'budget1/kind/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'budget1/kind/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/kind/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'budget1/kind/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'budget1/kind/fsm_flawed':
        ['undetermined', 'k-induction', 0, False, 'conflict budget exhausted',
         None, 1, 1, 8, None, None, None],
    'budget1/kind/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'budget1/kind/pipeline_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 112, 112, None, None, None],
    'budget1/kind/arbiter_correct':
        ['undetermined', 'k-induction', 0, False, 'conflict budget exhausted',
         None, 1, 0, 14, None, None, None],
    'budget1/kind/arbiter_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 25, 161, None, None, None],
    'budget1/portfolio/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'budget1/portfolio/counter_step':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         13, 100, 2285, 13, 13, 0],
    'budget1/portfolio/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 2, 3, 48, 3, 2, 0],
    'budget1/portfolio/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, 1, 0, 0],
    'budget1/portfolio/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'budget1/portfolio/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/portfolio/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, 2, 0, 11],
    'budget1/portfolio/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'budget1/portfolio/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'budget1/portfolio/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, 2, 0, 6],
    'budget1/portfolio/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, 1, 0, 0],
    'budget1/portfolio/arbiter_correct':
        ['undetermined', 'bmc', 0, False, 'conflict budget exhausted', None,
         8, 0, 100, 8, 8, 0],
    'budget1/portfolio/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, 1, 0, 0],
    'deep/auto/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'deep/auto/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 99, 196, 5608, None,
         None, None],
    'deep/auto/counter_cex':
        ['cex', 'bmc', 10, False, '', 'fe70be37c49bf0dc', 1, 2, 21, None,
         None, None],
    'deep/auto/counter_easy_cex':
        ['cex', 'bmc', 10, False, '', '0051021c880d1a6f', 0, 0, 2, None, None,
         None],
    'deep/auto/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'deep/auto/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/auto/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 10, 10, None, None,
         None],
    'deep/auto/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'deep/auto/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/auto/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 20, None, None,
         None],
    'deep/auto/pipeline_flawed':
        ['cex', 'bmc', 10, False, '', 'f2c5ea1b002f400d', 0, 7, 9, None, None,
         None],
    'deep/auto/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 12, 24, 327, None, None,
         None],
    'deep/auto/arbiter_flawed':
        ['cex', 'bmc', 10, False, '', 'e9c2d10ac69a2e92', 0, 0, 8, None, None,
         None],
    'deep/bmc/counter_invariant':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, None, None, None, None,
         None, None],
    'deep/bmc/counter_step':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, 90, 161, 4938, None, None,
         None],
    'deep/bmc/counter_cex':
        ['cex', 'bmc', 10, False, '', 'fe70be37c49bf0dc', 1, 2, 21, None,
         None, None],
    'deep/bmc/counter_easy_cex':
        ['cex', 'bmc', 10, False, '', '0051021c880d1a6f', 0, 0, 2, None, None,
         None],
    'deep/bmc/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'deep/bmc/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/bmc/sticky_assumed':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, None, None, None, None,
         None, None],
    'deep/bmc/fsm_correct':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, None, None, None, None,
         None, None],
    'deep/bmc/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/bmc/pipeline_correct':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, None, None, None, None,
         None, None],
    'deep/bmc/pipeline_flawed':
        ['cex', 'bmc', 10, False, '', 'f2c5ea1b002f400d', 0, 7, 9, None, None,
         None],
    'deep/bmc/arbiter_correct':
        ['undetermined', 'bmc', 10, False,
         'no counterexample within bound 10', None, 11, 0, 142, None, None,
         None],
    'deep/bmc/arbiter_flawed':
        ['cex', 'bmc', 10, False, '', 'e9c2d10ac69a2e92', 0, 0, 8, None, None,
         None],
    'deep/kind/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'deep/kind/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 8, 31, 317, None, None,
         None],
    'deep/kind/counter_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 7, 32, 616, None, None, None],
    'deep/kind/counter_easy_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 0, 5, 421, None, None, None],
    'deep/kind/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'deep/kind/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/kind/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 10, 10, None, None,
         None],
    'deep/kind/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'deep/kind/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, 1, 1, 13,
         None, None, None],
    'deep/kind/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 20, None, None,
         None],
    'deep/kind/pipeline_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 112, 112, None, None, None],
    'deep/kind/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 23, 47, None, None,
         None],
    'deep/kind/arbiter_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 25, 161, None, None, None],
    'deep/portfolio/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'deep/portfolio/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 10, 32, 337, 2, 0, 9],
    'deep/portfolio/counter_cex':
        ['cex', 'bmc', 10, False, '', 'fe70be37c49bf0dc', 2, 3, 67, 3, 0, 0],
    'deep/portfolio/counter_easy_cex':
        ['cex', 'bmc', 10, False, '', '0051021c880d1a6f', 0, 0, 2, 1, 0, 0],
    'deep/portfolio/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'deep/portfolio/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/portfolio/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 10, 10, 2, 0, 9],
    'deep/portfolio/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'deep/portfolio/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'deep/portfolio/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 20, 2, 0, 10],
    'deep/portfolio/pipeline_flawed':
        ['cex', 'bmc', 10, False, '', 'f2c5ea1b002f400d', 0, 7, 9, 1, 0, 0],
    'deep/portfolio/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 23, 47, 2, 0, 10],
    'deep/portfolio/arbiter_flawed':
        ['cex', 'bmc', 10, False, '', 'e9c2d10ac69a2e92', 0, 0, 8, 1, 0, 0],
    'ladder/auto/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'ladder/auto/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 130, 273, 7946, None,
         None, None],
    'ladder/auto/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 1, 2, 21, None,
         None, None],
    'ladder/auto/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'ladder/auto/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'ladder/auto/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/auto/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'ladder/auto/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'ladder/auto/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/auto/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'ladder/auto/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'ladder/auto/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 8, 16, 199, None, None,
         None],
    'ladder/auto/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'ladder/bmc/counter_invariant':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'ladder/bmc/counter_step':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, 106, 200, 5800, None,
         None, None],
    'ladder/bmc/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 1, 2, 21, None,
         None, None],
    'ladder/bmc/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, None, None,
         None],
    'ladder/bmc/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'ladder/bmc/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/bmc/sticky_assumed':
        ['undetermined', 'bmc', 12, False,
         'no counterexample within bound 12', None, None, None, None, None,
         None, None],
    'ladder/bmc/fsm_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'ladder/bmc/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/bmc/pipeline_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, None, None, None, None, None, None],
    'ladder/bmc/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, None, None,
         None],
    'ladder/bmc/arbiter_correct':
        ['undetermined', 'bmc', 6, False, 'no counterexample within bound 6',
         None, 7, 0, 86, None, None, None],
    'ladder/bmc/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, None, None,
         None],
    'ladder/kind/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'ladder/kind/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 8, 33, 319, None, None,
         None],
    'ladder/kind/counter_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 7, 32, 616, None, None, None],
    'ladder/kind/counter_easy_cex':
        ['undetermined', 'k-induction', 6, False, 'not inductive up to k=6',
         None, 0, 5, 421, None, None, None],
    'ladder/kind/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'ladder/kind/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/kind/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, None, None,
         None],
    'ladder/kind/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, None,
         None, None],
    'ladder/kind/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, 1, 1, 13,
         None, None, None],
    'ladder/kind/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, None, None,
         None],
    'ladder/kind/pipeline_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 112, 112, None, None, None],
    'ladder/kind/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, None, None,
         None],
    'ladder/kind/arbiter_flawed':
        ['undetermined', 'k-induction', 4, False, 'not inductive up to k=4',
         None, 0, 25, 161, None, None, None],
    'ladder/portfolio/counter_invariant':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'ladder/portfolio/counter_step':
        ['proven', 'k-induction', 1, False, '', None, 32, 137, 3493, 15, 13,
         11],
    'ladder/portfolio/counter_cex':
        ['cex', 'bmc', 12, False, '', 'd03324a604674548', 2, 3, 67, 3, 0, 0],
    'ladder/portfolio/counter_easy_cex':
        ['cex', 'bmc', 12, False, '', 'bdc618496f230aff', 0, 0, 2, 1, 0, 0],
    'ladder/portfolio/counter_liveness':
        ['undetermined', 'none', 0, False,
         'liveness obligation; bounded engines only', None, None, None, None,
         None, None, None],
    'ladder/portfolio/sticky_base':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/portfolio/sticky_assumed':
        ['proven', 'k-induction', 1, False, '', None, 0, 12, 12, 2, 0, 11],
    'ladder/portfolio/fsm_correct':
        ['proven', 'k-induction', 1, False, '', None, None, None, None, 0, 0,
         0],
    'ladder/portfolio/fsm_flawed':
        ['cex', 'bmc', 0, False, 'assertion constant-false', None, None, None,
         None, None, None, None],
    'ladder/portfolio/pipeline_correct':
        ['proven', 'k-induction', 1, False, '', None, 0, 8, 12, 2, 0, 6],
    'ladder/portfolio/pipeline_flawed':
        ['cex', 'bmc', 6, False, '', '6fba00fe0c12e14c', 0, 7, 9, 1, 0, 0],
    'ladder/portfolio/arbiter_correct':
        ['proven', 'k-induction', 1, False, '', None, 2, 15, 39, 2, 0, 6],
    'ladder/portfolio/arbiter_flawed':
        ['cex', 'bmc', 6, False, '', 'de5af40990f564dd', 0, 0, 8, 1, 0, 0],
}


@pytest.mark.parametrize("config,strategy,case", TABLE)
def test_solve_sequence_is_pinned(config, strategy, case):
    key = f"{'nosim' if config == RETRY else config}/{strategy}/{case}"
    assert observe(config, strategy, case) == PINNED[key], key


def _truth(design, assertion, assumes=()):
    case = reach.Case("schedule", "schedule", design, assertion, assumes)
    ev = Evaluator(assertion, design.widths, design.params)
    return reach.truth_of(case, ev, reach._constraints(case))


@pytest.mark.parametrize("case", list(HAND_CASES))
def test_pinned_verdicts_agree_with_the_oracle(case):
    """The reference for every row above is exhaustive ground truth
    (``tests/oracle/``): a pinned ``proven`` leaves no reachable
    violation and a pinned ``vacuous`` no reachable antecedent match; a
    pinned ``cex`` has a reachable violation (whose witness
    ``tests/test_formal_oracle.py`` replays)."""
    design, assertion, assumes, _kwargs = _case(case)
    rows = [row for key, row in PINNED.items()
            if key.rsplit("/", 1)[1] == case]
    try:
        truth = _truth(design, assertion, assumes)
    except Unsupported:  # a liveness window: no row may decide it
        assert {row[0] for row in rows} == {"undetermined"}
        return
    for status, _engine, _depth, vacuous, *_ in rows:
        assert status != "proven" or truth.violation is None
        assert not vacuous or truth.first_fire is None
        assert status != "cex" or truth.violation is not None



# ---------------------------------------------------------------------------
# a step proof at k always has its k base cases
# ---------------------------------------------------------------------------

#: a 3-bit counter that saturates at 7: ``cnt != 3`` is 4-inductive (a
#: free state needs 4 predecessors to count up to 3) but fails 3 cycles
#: after reset, so a proof at k=4 needs BMC depth 3 -- outside a
#: ``max_bmc`` of 1 or 2
SATURATING = """
module sat3(input logic clk, input logic rst);
  logic [2:0] cnt;
  always_ff @(posedge clk) begin
    if (rst) cnt <= 3'd0;
    else if (cnt != 3'd7) cnt <= cnt + 3'd1;
  end
  p_not3: assert property (@(posedge clk) cnt != 3'd3);
endmodule
"""

def _row(kwargs, *expected, prover=Prover):
    """(prover keywords, status, engine, depth, detail, prover class),
    with an id; a row without a strategy runs the default one on the
    resource-fault retry rung."""
    name = kwargs.get("strategy", RETRY)
    return pytest.param(kwargs, *expected, prover,
                        id=f"{name}-max_bmc{kwargs['max_bmc']}")


BASE_CASE_ROWS = [
    *(_row(dict(strategy=s, max_bmc=b), "undetermined", "k-induction",
           b + 1, f"not inductive up to k={b + 1}")
      for s in ("auto", "kind", "portfolio") for b in (1, 2)),
    *(_row(dict(max_bmc=b), "undetermined", "k-induction", b + 1,
           f"not inductive up to k={b + 1}", prover=_RetryRung)
      for b in (1, 2)),
    *(_row(dict(strategy="bmc", max_bmc=b), "undetermined", "bmc", b,
           f"no counterexample within bound {b}") for b in (1, 2)),
    *(_row(dict(strategy=s, max_bmc=3), "cex", "bmc", 0,
           "assertion constant-false") for s in Prover.STRATEGIES),
]

class TestBaseCases:
    @pytest.mark.parametrize("kwargs,status,engine,depth,detail,prover",
                             BASE_CASE_ROWS)
    def test_no_proof_beyond_the_bmc_window(self, kwargs, status, engine,
                                            depth, detail, prover):
        design = elaborate(SATURATING)
        r = prover(design, max_k=6, use_simulation=False,
                   **kwargs).prove(design.assertions[-1])
        assert (r.status, r.engine, r.depth, r.detail) == (
            status, engine, depth, detail)

    def test_the_oracle_reaches_the_violation(self):
        """No row above may prove: ``cnt == 3`` is reachable, in the
        attempt that starts 3 cycles after reset."""
        design = elaborate(SATURATING)
        truth = _truth(design, design.assertions[-1])
        assert len(truth.violation) == 4
        assert "proven" not in {row.values[1] for row in BASE_CASE_ROWS}

    @pytest.mark.parametrize("engine", [
        {"max_bmc": 1, "max_k": 6, "use_simulation": False},
        {"max_bmc": 2, "max_k": 6, "sim_cycles": 2},
    ])
    def test_wire_request(self, engine):
        from repro.service import VerificationService, request_from_json
        [resp] = VerificationService().run([request_from_json({
            "kind": "prove", "source": SATURATING, "engine": engine,
            "use_cache": False})])
        assert resp.ok and resp.verdict == "undetermined"
        assert not resp.func
        assert resp.meta["depth"] == engine["max_bmc"] + 1


if __name__ == "__main__":
    json.dump({f"{c}/{s}/{k}": observe(c, s, k) for c, s, k in TABLE
               if c != RETRY},
              sys.stdout, indent=0)
