"""The oracle's inputs: small designs, their assertions and mutants.

* the hand designs of ``tests/test_formal_schedule.py`` (the 4-bit
  counter, the sticky latch and the saturating 3-bit counter whose
  ``cnt != 3`` is 4-inductive but fails 3 cycles after reset);
* generated ``fsm`` and ``pipeline`` problems cut down to at most
  :data:`oracle.reach.MAX_BITS` bits of state plus input, with a correct
  and a flawed simulated response each;
* single :mod:`repro.models.perturb` mutants of every assertion above
  (one corruption, one partial rewrite and one style rewrite).
"""

from __future__ import annotations

import random
import re

from test_formal_schedule import COUNTER, SATURATING, STICKY

from repro.datasets.design2sva.fsm_gen import FsmConfig, generate_fsm
from repro.datasets.design2sva.pipeline_gen import (
    PipelineConfig,
    generate_pipeline,
)
from repro.datasets.design2sva.testbench_gen import (
    generate_testbench,
    merge_for_eval,
)
from repro.models import design_assist, perturb
from repro.rtl.elaborate import elaborate
from repro.sva.lexer import strip_code_fences
from repro.sva.parser import parse_assertion
from repro.sva.unparse import unparse

from .reach import Case

_D = "assert property (@(posedge clk) disable iff (!reset_) "

#: family -> (design text, [(assertion text, assume texts)])
HAND = {
    "counter": (COUNTER, [
        (_D + "q <= 4'd15);", ()),
        (_D + "(!en) |-> ##1 (q == $past(q)));", ()),
        (_D + "q != 4'd3);", ()),
        (_D + "q < 4'd2);", ()),
        (_D + "en |-> strong(##[0:$] (q == 4'd0)));", ()),
        # a disable that fires: every attempt that could fail is aborted
        ("assert property (@(posedge clk) disable iff (en) "
         "##1 (q == $past(q)));", ()),
    ]),
    "sticky": (STICKY, [
        (_D + "latch == 1'b1);", ()),
        (_D + "set |-> ##1 latch);",
         ("assume property (@(posedge clk) disable iff (!reset_) set);",)),
        (_D + "$rose(latch) |-> $past(set));", ()),
        (_D + "latch |=> latch);", ()),
        (_D + "$stable(latch));", ()),
        (_D + "($rose(latch) && !$past(set)) |-> ##1 !latch);", ()),
    ]),
    "saturating": (SATURATING, [
        ("assert property (@(posedge clk) cnt != 3'd3);", ()),
        ("assert property (@(posedge clk) cnt == 3'd7 |=> cnt == 3'd7);",
         ()),
    ]),
}


def hand_cases() -> list[Case]:
    cases = []
    for family, (source, entries) in HAND.items():
        design = elaborate(source)
        for i, (text, assumes) in enumerate(entries):
            cases.append(Case(
                f"{family}_{i}", family, design,
                parse_assertion(text, params=design.params),
                tuple(parse_assertion(a, params=design.params)
                      for a in assumes)))
    return cases


def generated_cases(family: str, seed: int) -> list[Case]:
    """A correct and a flawed response on one shrunk generated design."""
    if family == "fsm":
        gen = generate_fsm(FsmConfig(n_states=4, n_edges=6, width=2,
                                     seed=seed))
    else:
        gen = generate_pipeline(PipelineConfig(n_units=1, width=1,
                                               expr_complexity=1, seed=seed))
    gen.tb_source = generate_testbench(gen)
    rng = random.Random(seed)
    cases = []
    for kind, respond in (("correct", design_assist.correct_response),
                          ("flawed", design_assist.flawed_response)):
        merged = merge_for_eval(gen, gen.tb_source,
                                strip_code_fences(respond(gen, rng)))
        design = elaborate(merged.source_file, top=merged.top)
        cases.append(Case(f"{family}{seed}_{kind}", family, design,
                          design.assertions[-1]))
    return cases


def mutants(case: Case) -> list[Case]:
    """Single perturbations of *case*'s assertion, deduplicated (seeded
    by the case's name, so a case's mutants do not depend on the set it
    is drawn in)."""
    rng = random.Random(case.name)
    seen = {unparse(case.assertion)}
    out = []
    for transform in (perturb.apply_corrupt, perturb.apply_partial,
                      perturb.apply_style):
        mutant = transform(case.assertion, rng)
        if mutant is None or unparse(mutant) in seen:
            continue
        seen.add(unparse(mutant))
        out.append(Case(f"{case.name}~{transform.__name__[6:]}",
                        case.family, case.design, mutant, case.assumes))
    return out


def oracle_cases(seeds) -> list[Case]:
    """The hand cases, one fsm and one pipeline problem per seed, and a
    mutant set of each."""
    base = hand_cases()
    for seed in seeds:
        base += generated_cases("fsm", seed)
        base += generated_cases("pipeline", seed)
    out = []
    for case in base:
        out += [case, *mutants(case)]
    return out


def case_named(name: str) -> Case:
    """Rebuild one case of :func:`oracle_cases` from its name alone."""
    base = name.split("~")[0]
    family, seed = re.match(r"([a-z]+?)(\d*)_", base).groups()
    pool = hand_cases() if not seed else generated_cases(family, int(seed))
    for case in pool:
        if case.name == base:
            for candidate in (case, *mutants(case)):
                if candidate.name == name:
                    return candidate
    raise KeyError(name)
