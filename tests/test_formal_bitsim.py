"""Bit-parallel simulation: the packed generator vs the word-level one.

The packed simulator must reproduce the scalar ``Simulator``'s traces bit
for bit (same seeded RNG streams, same reset phase), the packed property
replay must agree with ``TraceChecker.first_violation`` lane by lane, and
a ``Prover`` whose falsifier takes the packed generator must produce
record-identical results to ``use_packed_sim=False``, which forces the
word-level generator through the same check.
"""

import random

import pytest

from repro.core.tasks import Design2SvaTask
from repro.datasets.design2sva.testbench_gen import merge_for_eval
from repro.formal import prover as prover_mod
from repro.formal.bitsim import (
    MAX_LANES,
    PackedSimulator,
    PackedUnsupported,
    pack_traces,
    packed_violation_lanes,
)
from repro.formal.coi import assertion_roots, cone_of_influence
from repro.formal.prover import Prover, TraceChecker, check_trace
from repro.formal.semantics import horizon_of
from repro.rtl.compile import Uncompilable, bitblast_step
from repro.rtl.elaborate import elaborate
from repro.rtl.simulator import Simulator
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

PAST = """
module m; input clk, reset_, a; output reg q;
wire w;
assign w = $past(a);
always @(posedge clk) begin
  if (!reset_) q <= 1'b0; else q <= w;
end
endmodule
"""


def _scalar_traces(design, lanes, seed_base, cycles):
    traces = []
    for lane in range(lanes):
        sim = Simulator(design, seed=seed_base + lane)
        sim.reset()
        sim.run_random(cycles)
        traces.append(sim.trace())
    return traces


def _bench_cones(category, count=4):
    """(design cone, assertion) pairs from the Design2SVA bench workload."""
    from repro.models import design_assist
    task = Design2SvaTask(category, count=count)
    out = []
    for i, gd in enumerate(task.problems()):
        rng = random.Random(i)
        if category == "arbiter":
            from repro.datasets.design2sva.arbiter_gen import (
                arbiter_correct_response, arbiter_flawed_response)
            responses = [arbiter_correct_response(gd, rng),
                         arbiter_flawed_response(gd, rng)]
        else:
            responses = [design_assist.correct_response(gd, rng),
                         design_assist.flawed_response(gd, rng)]
        for response in responses:
            merged = merge_for_eval(gd, gd.tb_source,
                                    strip_code_fences(response))
            design = elaborate(merged.source_file, top=merged.top)
            assertion = design.assertions[-1]
            out.append((cone_of_influence(design,
                                          assertion_roots(assertion)),
                        assertion))
    return out


class TestPackedTraces:
    @pytest.mark.parametrize("source,top", [(COUNTER, None)])
    def test_counter_traces_bit_identical(self, source, top):
        design = elaborate(source, top=top)
        packed = PackedSimulator(design).run(lanes=6, seed_base=11,
                                             cycles=20)
        for lane, ref in enumerate(_scalar_traces(design, 6, 11, 20)):
            got = packed.lane_trace(lane)
            assert set(got) == set(ref)
            for name in ref:
                assert got[name] == ref[name], (lane, name)

    @pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
    def test_bench_cones_bit_identical(self, category):
        checked = 0
        for design, _assertion in _bench_cones(category):
            try:
                sim = PackedSimulator(design)
            except PackedUnsupported:
                continue
            packed = sim.run(lanes=4, seed_base=0xF5E0A1, cycles=12)
            for lane, ref in enumerate(_scalar_traces(design, 4,
                                                      0xF5E0A1, 12)):
                got = packed.lane_trace(lane)
                assert set(got) == set(ref)
                for name in ref:
                    assert got[name] == ref[name], (category, lane, name)
            checked += 1
        assert checked  # the subset must actually cover some cones

    def test_lane_bounds(self):
        design = elaborate(COUNTER)
        sim = PackedSimulator(design)
        with pytest.raises(ValueError):
            sim.run(lanes=0, seed_base=0, cycles=4)
        with pytest.raises(ValueError):
            sim.run(lanes=MAX_LANES + 1, seed_base=0, cycles=4)

    def test_time_shifted_design_unsupported(self):
        design = elaborate(PAST)
        with pytest.raises(PackedUnsupported):
            PackedSimulator(design)

    def test_node_budget_aborts_cheaply(self):
        design = elaborate(COUNTER)
        with pytest.raises(PackedUnsupported):
            PackedSimulator(design, max_nodes=2)
        # a larger budget retries instead of trusting the aborted probe
        assert PackedSimulator(design, max_nodes=10_000) is not None

    def test_step_bitblast_cached(self):
        design = elaborate(COUNTER)
        first = bitblast_step(design)
        assert bitblast_step(design) is first

    @pytest.mark.parametrize("full_first", [False, True],
                             ids=["budgeted-then-full", "full-then-budgeted"])
    def test_cached_step_answers_to_the_callers_budget(self, full_first):
        """The budget is the caller's: a full result the unbudgeted
        prover left in the cache must not widen what a budgeted packed
        simulator accepts, or which cones take the packed path would
        follow from call order."""
        design = elaborate(COUNTER)
        if full_first:
            full = bitblast_step(design)
        with pytest.raises(PackedUnsupported) as first:
            PackedSimulator(design, max_nodes=8)
        if not full_first:
            full = bitblast_step(design)  # retried in full, then cached
        assert len(full[0]) > 8
        with pytest.raises(PackedUnsupported) as second:
            PackedSimulator(design, max_nodes=8)
        assert str(first.value) == str(second.value) \
            == "AIG exceeds 8 nodes"
        assert bitblast_step(design) is full
        assert bitblast_step(design, max_nodes=len(full[0])) is full

    def test_degraded_events_do_not_depend_on_call_order(self,
                                                         monkeypatch):
        """Two provers on one design object: the first probes the packed
        budget (8 nodes: 1 per lane over 8 lanes) and then unrolls (a
        full bit-blast lands in the cache), the second finds the full
        result first.  Same ``aig_overflow`` event, same verdict."""
        monkeypatch.setattr(prover_mod, "PACKED_NODES_PER_LANE", 1)
        design = elaborate(COUNTER)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "q <= 4'd15);")
        results = [Prover(design, use_coi=False, sim_traces=8)
                   .prove(assertion) for _ in range(2)]
        assert bitblast_step(design)  # the unroller's, unbudgeted
        first, second = results
        assert first.degraded == second.degraded
        assert [e["code"] for e in first.degraded] == ["aig_overflow"]
        assert (first.status, first.engine, first.depth) \
            == (second.status, second.engine, second.depth)

    def test_past_design_marks_cache(self):
        design = elaborate(PAST)
        with pytest.raises(Uncompilable):
            bitblast_step(design)
        with pytest.raises(Uncompilable):  # served from the cached marker
            bitblast_step(design)


class TestPackedReplay:
    @pytest.mark.parametrize("text", [
        "assert property (@(posedge clk) disable iff (!reset_) q <= 4'd15);",
        "assert property (@(posedge clk) disable iff (!reset_) q != 4'd3);",
        "assert property (@(posedge clk) disable iff (!reset_) "
        "en |-> ##1 q != $past(q));",
    ])
    def test_violation_lanes_match_scalar(self, text):
        design = elaborate(COUNTER)
        assertion = parse_assertion(text)
        lanes, cycles = 8, 20
        length = cycles + 2
        window = max(1, horizon_of(assertion) + 1)
        checker = TraceChecker(assertion, length, design.widths,
                               design.params, first_attempt=2,
                               last_attempt=length - window)
        traces = _scalar_traces(design, lanes, 0xF5E0A1, cycles)
        expected = 0
        for lane, trace in enumerate(traces):
            if checker.first_violation(trace) is not None:
                expected |= 1 << lane
        # both backings must agree with the one-trace checks
        packed_sim = PackedSimulator(design).run(lanes=lanes,
                                                 seed_base=0xF5E0A1,
                                                 cycles=cycles)
        assert packed_violation_lanes(checker, packed_sim) == expected
        packed_scalar = pack_traces(traces, design.widths)
        assert packed_violation_lanes(checker, packed_scalar) == expected


class TestProverParity:
    """Packed generator vs the word-level one: identical records on the
    bench."""

    @pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
    def test_prover_results_identical(self, category):
        kwargs = {"max_bmc": 5, "max_k": 3, "sim_traces": 6,
                  "sim_cycles": 16}
        for design, assertion in _bench_cones(category, count=3):
            packed = Prover(design, use_packed_sim=True, **kwargs)
            scalar = Prover(design, use_packed_sim=False, **kwargs)
            a = packed.prove(assertion)
            b = scalar.prove(assertion)
            assert (a.status, a.engine, a.depth, a.vacuous) == \
                (b.status, b.engine, b.depth, b.vacuous)
            assert a.counterexample == b.counterexample

    def test_counter_cex_identical(self):
        design = elaborate(COUNTER)
        assertion = parse_assertion(
            "assert property (@(posedge clk) disable iff (!reset_) "
            "q != 4'd2);")
        a = Prover(design, use_packed_sim=True).prove(assertion)
        b = Prover(design, use_packed_sim=False).prove(assertion)
        assert a.status == b.status == "cex"
        assert a.engine == b.engine == "simulation"
        assert a.counterexample == b.counterexample

    @pytest.mark.parametrize("read", ["$past(d)", "d"],
                             ids=["word-level-cone", "packed-cone"])
    def test_assume_masks_trace_zero(self, read):
        """Trace 0 violates the assume and the assertion, so the witness
        is the first trace that violates the assertion and no assume --
        on a cone only the word-level generator takes (``$past`` in
        RTL) and on one the packed generator takes, under both
        ``use_packed_sim`` settings."""
        design = elaborate(f"""
module m; input clk, reset_; input [3:0] d; output reg [3:0] q;
wire [3:0] w;
assign w = {read};
always @(posedge clk) begin
  if (!reset_) q <= 4'd0; else q <= w;
end
endmodule
""")
        assertion = parse_assertion(
            "assert property (@(posedge clk) q != 4'd3);")
        assume = parse_assertion(
            "assume property (@(posedge clk) d != 4'd1);")
        lanes, cycles = 6, 8
        traces = _scalar_traces(design, lanes, prover_mod.SIM_SEED, cycles)

        def violated(prop, trace):
            return check_trace(prop, trace, design.widths,
                               first_attempt=2) is not None

        assert violated(assertion, traces[0]) and violated(assume, traces[0])
        witness = next(k for k, trace in enumerate(traces)
                       if violated(assertion, trace)
                       and not violated(assume, trace))
        assert witness > 1  # some lanes between are masked or pass
        for use_packed_sim in (True, False):
            result = Prover(design, use_coi=False, sim_traces=lanes,
                            sim_cycles=cycles,
                            use_packed_sim=use_packed_sim).prove(
                assertion, assumes=(assume,))
            assert (result.status, result.engine) == ("cex", "simulation")
            assert result.counterexample == traces[witness], use_packed_sim
            refused = use_packed_sim and read != "d"
            assert [e["code"] for e in result.degraded] \
                == (["aig_overflow"] if refused else [])
