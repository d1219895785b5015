"""The attempt template against one encoding per attempt.

``TraceChecker`` encodes an assertion once, at relative attempt 0 over
window-relative frames, and evaluates that template over (trace,
attempt) lanes with the ``disable iff`` abort applied outside it.  The
reference below is the per-attempt checker it replaced: one
``encode_assertion`` per attempt over the whole trace, replayed one
trace at a time.  Every attempt's verdict must match it on every lane.

The template is exact only where an attempt's encoding reads no frame
past its window; :func:`reads_to_end` names the constructs that do, and
the second half of this file ties that predicate to the encoder.
"""

import random

import pytest
from oracle.cases import oracle_cases

from repro.formal.aig import AIG
from repro.formal.bitsim import pack_traces, packed_violation_lanes
from repro.formal.bitvec import FreeSignalSource
from repro.formal.prover import Prover, TraceChecker, check_trace
from repro.formal.semantics import PropertyEncoder, horizon_of, reads_to_end
from repro.rtl.elaborate import elaborate
from repro.rtl.simulator import Simulator
from repro.sva import ast_nodes
from repro.sva.parser import parse_assertion

W = {"clk": 1, "a": 1, "b": 1, "c": 1, "rst": 1, "v": 3}


def reference_violations(assertion, trace, length, widths, params=None,
                         first=0, last=None, prehistory=0) -> list[int]:
    """Every violated attempt of *trace*: one encoding per attempt over
    ``length`` frames, replayed by scalar evaluation."""
    aig = AIG()
    source = FreeSignalSource(aig, dict(widths), default_width=1)
    encoder = PropertyEncoder(aig, source, length, params)
    window = max(1, horizon_of(assertion) + 1)
    stop = last if last is not None else length - window
    attempts = {t: encoder.encode_assertion(assertion, t)
                for t in range(first, stop + 1)}
    values = {0: True}
    for (name, t), bits in source._cache.items():
        series = trace.get(name, ())
        idx = t + prehistory
        value = series[idx] if 0 <= idx < len(series) else 0
        for i, lit in enumerate(bits):
            values[lit >> 1] = bool((value >> i) & 1)
    for n in aig.cone(list(attempts.values())):
        if n not in values:
            fi = aig._fanins[n]
            values[n] = fi is not None and all(
                values[lit >> 1] ^ bool(lit & 1) for lit in fi)
    return [t for t, lit in attempts.items()
            if not values[lit >> 1] ^ bool(lit & 1)]


def assert_matches_reference(assertion, traces, widths, params=None,
                             first=0, last=None, prehistory=0):
    length = min(len(v) for v in traces[0].values()) - prehistory
    checker = TraceChecker(assertion, length, widths, params,
                           first_attempt=first, last_attempt=last,
                           prehistory=prehistory)
    packed = pack_traces(traces, widths)
    by_attempt = dict(checker.violations(packed))
    assert list(by_attempt) == sorted(by_attempt)
    expected_lanes = 0
    for lane, trace in enumerate(traces):
        want = reference_violations(assertion, trace, length, widths,
                                    params, first, last, prehistory)
        got = [t for t, lanes in by_attempt.items() if lanes >> lane & 1]
        assert got == want, (lane, got, want)
        assert checker.first_violation(trace) == (want[0] if want
                                                  else None)
        expected_lanes |= bool(want) << lane
    assert packed_violation_lanes(checker, packed) == expected_lanes
    return checker


def _random_traces(count, cycles, seed, widths=W):
    """*count* traces; 1-bit signals are set with density 0.2, 0.5 or
    0.8 by lane, so both sparse and dense antecedents show up."""
    rng = random.Random(seed)
    return [{name: [int(rng.random() < (0.2, 0.5, 0.8)[lane % 3]) if w == 1
                    else rng.getrandbits(w) for _ in range(cycles)]
             for name, w in widths.items()}
            for lane in range(count)]


def _parse(body, disable=""):
    guard = f"disable iff ({disable}) " if disable else ""
    return parse_assertion(
        f"assert property (@(posedge clk) {guard}{body});")


# ---------------------------------------------------------------------------
# the differential net
# ---------------------------------------------------------------------------

#: bounded properties: the template serves every attempt that fits
BOUNDED = [
    "a |-> ##2 b",
    "a ##[1:3] b |=> c",
    "a[*2] ##1 b",
    "a[*0:2] ##1 b",
    "(a ##1 b) intersect (c[*2])",
    "(a ##1 b) and (c ##2 a)",
    "(a ##1 b) or (c ##2 a)",
    "b within (a ##3 c)",
    "first_match(a ##[1:2] b) |-> c",
    "nexttime[2] a",
    "s_nexttime a",
    "if (a) ##1 b else c",
    "not (a ##1 b)",
    "(a |-> b) and (c |-> ##1 a)",
    "(a |-> b) or (c implies a)",
    "a |-> strong(##[1:2] b)",
    "a |-> weak(##[1:3] b)",
    "$rose(a) |-> $stable(v)",
    "a |-> v == $past(v, 3) + 3'd1",
]

#: one property per construct whose encoding reads to the trace end
TO_END = [
    "a ##[1:$] b |-> c",
    "a |-> strong(##[0:$] b)",
    "a[*2:$] ##1 b",
    "a[->2] ##1 b",
    "a[->1:2] |-> c",
    "a[=2] ##1 b",
    "s_eventually b",
    "always a",
    "a until b",
    "a s_until b",
    "a until_with b",
    "a s_until_with b",
    "a throughout (b ##2 c)",
]


@pytest.mark.parametrize("body", BOUNDED + TO_END)
@pytest.mark.parametrize("disable", ["", "rst"])
def test_every_attempt_matches_the_reference(body, disable):
    assertion = _parse(body, disable)
    traces = _random_traces(9, 14, seed=body)
    checker = assert_matches_reference(assertion, traces, W)
    if reads_to_end(assertion.prop):
        assert checker.template is None and checker.attempts
    else:
        assert checker.template is not None and not checker.attempts


@pytest.mark.parametrize("body", ["a |-> ##2 b", "$past(a, 2) |-> b",
                                  "a |-> v != $past(v)", "a until b"])
@pytest.mark.parametrize("disable", ["", "$past(rst)"])
@pytest.mark.parametrize("first, last, prehistory", [
    (0, None, 0),   # $past reads before frame 0 see 0
    (0, None, 3),   # ... unless a prehistory supplies them
    (4, None, 0),   # a first attempt past 0
    (2, None, 2),
    (1, 12, 0),     # an explicit last attempt past the window
    (0, 13, 1),
])
def test_attempt_ranges_match_the_reference(body, disable, first, last,
                                            prehistory):
    assertion = _parse(body, disable)
    traces = _random_traces(7, 15, seed=f"{body}|{disable}")
    checker = assert_matches_reference(assertion, traces, W, first=first,
                                       last=last, prehistory=prehistory)
    window = horizon_of(assertion) + 1
    if last is not None and not reads_to_end(assertion.prop):
        # the window-fitting attempts take the template, the rest one
        # encoding each
        assert checker.template is not None
        assert set(checker.attempts) == set(
            range(15 - prehistory - window + 1, last + 1))


def test_oracle_cases_and_their_mutants_match_the_reference():
    cases = oracle_cases([1])
    assert len(cases) > 40
    for case in cases:
        design = case.design
        traces = []
        for lane in range(6):
            sim = Simulator(design, seed=0xF5E0A1 + lane)
            sim.reset()
            sim.run_random(12)
            traces.append(sim.trace())
        for assertion in (case.assertion, *case.assumes):
            assert_matches_reference(assertion, traces, design.widths,
                                     design.params, first=2)


# ---------------------------------------------------------------------------
# the window rule
# ---------------------------------------------------------------------------


def test_a_window_longer_than_the_trace_judges_nothing():
    assertion = _parse("strong(##5 a)")
    assert check_trace(assertion, {"a": [1, 1, 1]}, {"a": 1}) is None
    checker = TraceChecker(assertion, 3, {"a": 1})
    assert not checker.templated and not checker.attempts
    # an explicit last attempt still judges the truncated attempt
    assert check_trace(assertion, {"a": [1, 1, 1]}, {"a": 1},
                       last_attempt=0) == 0


def test_the_falsifier_skips_a_window_longer_than_its_traces():
    design = elaborate("""
module m; input clk, reset_, en; output reg q;
always @(posedge clk) begin
  if (!reset_) q <= 1'b0; else q <= en;
end
endmodule
""")
    assertion = _parse("strong(##6 1)")
    profile: dict = {}
    with_sim = Prover(design, sim_cycles=3, profile=profile).prove(assertion)
    without = Prover(design, sim_cycles=3,
                     use_simulation=False).prove(assertion)
    assert with_sim.status == without.status == "proven"
    assert profile.get("sim_templates", 0) == 0


def test_the_falsifier_counts_one_template_per_candidate():
    design = elaborate("""
module m; input clk, reset_, en; output reg [3:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else if (en) q <= q + 'd1;
end
endmodule
""")
    profile: dict = {}
    prover = Prover(design, profile=profile)
    for body in ("q != 4'd3", "en |-> ##1 q != $past(q)",
                 "q <= 4'd15"):
        prover.prove(_parse(body, "!reset_"))
    assert profile["sim_templates"] == profile["sim_candidates"] == 3
    assert profile["sim_attempt_encodings"] == 0
    prover.prove(_parse("(q != 4'd3) until en", "!reset_"))
    assert profile["sim_templates"] == 3
    assert profile["sim_attempt_encodings"] > 0


# ---------------------------------------------------------------------------
# the predicate is tied to the encoder
# ---------------------------------------------------------------------------

#: one property per AST node class of the sequence and property layers
PER_CLASS = BOUNDED + TO_END + [
    "a ##1 b",            # Delay, SeqExpr, PropSeq
    "strong(a ##1 b)",    # StrongWeak
]


def _classes(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _classes(sub)
    return out


def test_every_sequence_and_property_class_is_covered():
    seen = {type(node) for body in PER_CLASS
            for node in _parse(body).prop.walk()}
    wanted = _classes(ast_nodes.SeqNode) | _classes(ast_nodes.PropNode)
    assert wanted <= seen, wanted - seen


#: end-reading constructs whose encoding still folds to the window's:
#: ``throughout`` guards to the end only a match that may cross it
CONSERVATIVE = {"a throughout (b ##2 c)"}


@pytest.mark.parametrize("body", PER_CLASS)
def test_reads_to_end_is_where_the_horizon_changes_the_encoding(body):
    """Attempt 0 at ``K = window`` and at ``K = window + 3`` on one shared
    source: the literals differ only where :func:`reads_to_end`."""
    assertion = _parse(body)
    window = horizon_of(assertion) + 1
    aig = AIG()
    source = FreeSignalSource(aig, W, default_width=1)
    at_window = PropertyEncoder(aig, source, window).sat(assertion.prop, 0)
    beyond = PropertyEncoder(aig, source, window + 3).sat(assertion.prop, 0)
    assert (at_window != beyond) == (reads_to_end(assertion.prop)
                                     and body not in CONSERVATIVE)
