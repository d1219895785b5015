"""Generative differential net for the prover's unroller.

:class:`~repro.formal.prover.UnrolledSource` builds a frame by stamping
the cone's one-step AIG (:func:`repro.rtl.compile.step_template`); the
walk of ``comb_exprs`` / ``next_exprs`` through the word-level evaluator
it replaced stays in ``src/`` as the fallback for cones the template
cannot express, and is the oracle here.  No option selects it: the walk
is forced the way it happens in production, by ``bitblast_step`` raising
:class:`~repro.rtl.compile.Uncompilable`.

Hypothesis draws small designs -- combinational chains, enables, muxed
next-state, reset styles (asynchronous, synchronous, none, a reset that
is itself driven), assigns whose two sides differ in width -- and a few
assertions over them, and checks

* every ``read(name, t)`` word, stamped vs walked, reachable-init and
  free-init, under random input valuations (``AIG.simulate``);
* ``Prover`` verdict / engine / depth / vacuous, stamped vs walked;
* every reported counterexample replays to a violation on the scalar
  :class:`~repro.rtl.simulator.Simulator`.

A failing program is written, shrunk, to
``tests/regress/unroll_differential_last_failure.json`` (hypothesis
replays the minimal example last); every ``tests/regress/unroll_*.json``
is replayed by :func:`test_saved_regressions`.  Rename a file to keep it.
"""

import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal.aig import AIG
from repro.formal.prover import Prover, UnrolledSource, check_trace
from repro.formal.semantics import horizon_of
from repro.rtl import compile as rtl_compile
from repro.rtl.compile import Uncompilable
from repro.rtl.elaborate import elaborate
from repro.rtl.simulator import Simulator, derive_init
from repro.sva.parser import parse_assertion

REGRESS = Path(__file__).parent / "regress"
LAST_FAILURE = REGRESS / "unroll_differential_last_failure.json"
FRAMES = 4
VALUATIONS = 6
ENGINE = dict(max_bmc=4, max_k=3, sim_traces=4, sim_cycles=8)

# ``Prover.prove`` raises the limit on first use; doing it up front keeps
# hypothesis from seeing it change under a running example
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


# -- running a program ---------------------------------------------------------


def walked():
    """Context in which every new unroller (and packed simulator) finds
    its cone outside the single-frame subset."""
    return mock.patch.object(
        rtl_compile, "bitblast_step",
        side_effect=Uncompilable("walk forced by the differential net"))


def design_of(program: dict):
    """A private copy: the step caches hang off the design object."""
    design = elaborate(program["source"])
    if design.state:
        derive_init(design)
    return design


def sources(program: dict, free_init: bool):
    stamped = UnrolledSource(AIG(), design_of(program), free_init)
    with walked():
        oracle = UnrolledSource(AIG(), design_of(program), free_init)
    return stamped, oracle


def valuation(source, inputs: dict) -> dict:
    """*inputs* (``(name, t)`` -> word) as *source*'s input literals."""
    return {lit: (inputs.get(key, 0) >> i) & 1
            for key, lits in source.input_vars.items()
            for i, lit in enumerate(lits)}


def word(source, name: str, t: int, values: dict) -> int:
    bits, _w = source.read(name, t)
    return sum(bit << i for i, bit in enumerate(
        source.aig.simulate(values, list(bits))))


def check_words(program: dict) -> None:
    rng = random.Random(program["seed"])
    for free_init in (False, True):
        stamped, oracle = sources(program, free_init)
        names = sorted(stamped.design.widths)
        walks = program.get("walks") or any(
            r in stamped.design.comb_exprs for r in stamped.design.resets)
        assert (stamped._template is None) == bool(walks)
        assert oracle._template is None
        for t in range(FRAMES):
            for name in names:
                assert stamped.read(name, t)[1] == oracle.read(name, t)[1]
        assert set(oracle.input_vars) <= set(stamped.input_vars)
        for _ in range(VALUATIONS):
            inputs = {(name, t): rng.getrandbits(stamped.width(name))
                      for name, t in stamped.input_vars}
            ours = valuation(stamped, inputs)
            theirs = valuation(oracle, inputs)
            for t in range(FRAMES):
                for name in names:
                    assert word(stamped, name, t, ours) \
                        == word(oracle, name, t, theirs), \
                        (free_init, name, t, inputs)


def replay(design, assertion, result) -> None:
    """*result*'s counterexample violates *assertion* on the scalar
    simulator (only meaningful while the reset is a pin the prover and
    the simulator both hold inactive)."""
    cex = result.counterexample
    if cex is None:  # a constant-false assertion carries no trace
        return
    window = max(1, horizon_of(assertion) + 1)
    if result.engine == "simulation":
        # the falsifier's own trace: two reset frames, then stimulus
        cycles = ENGINE["sim_cycles"] + 2
        sim = Simulator(design)
        sim.state = {s: 0 for s in design.state}
        first, last = 2, cycles - window
    else:
        # BMC's horizon exactly: a longer replay would let padding past
        # the bound abort (``disable iff``) or rescue an attempt
        cycles = ENGINE["max_bmc"] + window
        sim = Simulator(design)  # from design.init, resets held inactive
        first, last = 0, ENGINE["max_bmc"]
    for t in range(cycles):
        sim.step({name: series[t] if t < len(series) else 0
                  for name, series in cex.items() if name in design.inputs})
    bad = check_trace(assertion, sim.trace(), design.widths, design.params,
                      first_attempt=first, last_attempt=last)
    assert bad is not None, "counterexample does not violate the assertion"


def check_verdicts(program: dict) -> None:
    stamped_design, oracle_design = design_of(program), design_of(program)
    stamped_profile: dict = {}
    oracle_profile: dict = {}
    stamped = Prover(stamped_design, profile=stamped_profile, **ENGINE)
    oracle = Prover(oracle_design, profile=oracle_profile, **ENGINE)
    pin_reset = not any(r in stamped_design.comb_exprs
                        or r in stamped_design.next_exprs
                        for r in stamped_design.resets)
    for text in program["assertions"]:
        assertion = parse_assertion(text, params=stamped_design.params)
        got = stamped.prove(assertion)
        with walked():
            want = oracle.prove(assertion)
        assert (got.status, got.engine, got.depth, got.vacuous) \
            == (want.status, want.engine, want.depth, want.vacuous), \
            (text, got, want)
        if got.status == "cex" and pin_reset:
            replay(stamped_design, assertion, got)
            replay(oracle_design, assertion, want)
    assert not oracle_profile.get("frames_stamped")
    if pin_reset and not program.get("walks"):
        assert not stamped_profile.get("frames_walked")


def run_program(program: dict) -> None:
    check_words(program)
    check_verdicts(program)


def run_saving_failure(program: dict) -> None:
    try:
        run_program(program)
    except Exception:
        REGRESS.mkdir(exist_ok=True)
        LAST_FAILURE.write_text(json.dumps(program, indent=1) + "\n")
        raise


# -- strategies ----------------------------------------------------------------


def expr(draw, signals: dict[str, int], depth: int) -> str:
    """A parenthesised expression over *signals* (name -> width)."""
    name = draw(st.sampled_from(sorted(signals)))
    width = signals[name]
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["sig", "sig", "bit", "sized", "bare"]))
        if kind == "sig":
            return name
        if kind == "bit":
            return f"{name}[{draw(st.integers(0, width - 1))}]"
        value = draw(st.integers(0, 9))
        if kind == "sized":
            w = draw(st.integers(1, 4))
            return f"{w}'d{value & ((1 << w) - 1)}"
        return f"'d{value}"
    a = expr(draw, signals, depth - 1)
    kind = draw(st.sampled_from(
        ["unary", "binary", "binary", "binary", "mux", "concat", "shift"]))
    if kind == "unary":
        return f"({draw(st.sampled_from(['~', '!', '|', '&', '^']))}{a})"
    if kind == "shift":
        return (f"({a} {draw(st.sampled_from(['<<', '>>']))} "
                f"{draw(st.integers(0, 3))})")
    b = expr(draw, signals, depth - 1)
    if kind == "concat":
        return "{" + f"{a}, {b}" + "}"
    if kind == "mux":
        return f"({expr(draw, signals, depth - 1)} ? {a} : {b})"
    op = draw(st.sampled_from(["&", "|", "^", "+", "-", "==", "!=", "<",
                               "<=", "&&", "||"]))
    return f"({a} {op} {b})"


@st.composite
def programs(draw) -> dict:
    inputs = {f"i{k}": draw(st.integers(1, 4))
              for k in range(draw(st.integers(1, 3)))}
    regs = {f"r{k}": draw(st.integers(1, 4))
            for k in range(draw(st.integers(1, 3)))}
    wires = {f"w{k}": draw(st.integers(1, 6))
             for k in range(draw(st.integers(0, 3)))}
    # where the reset comes from: a pin, a wire or a register of the design
    reset = draw(st.sampled_from(["pin", "pin", "pin", "wire", "reg"]))
    ports = ["clk", *inputs] + (["rst_n"] if reset == "pin" else [])
    lines = [f"module t({', '.join(ports)});", "input clk;"]
    if reset == "pin":
        lines.append("input rst_n;")
    for name, w in inputs.items():
        lines.append(f"input [{w - 1}:0] {name};")
    for name, w in regs.items():
        lines.append(f"reg [{w - 1}:0] {name};")
    for name, w in wires.items():
        lines.append(f"wire [{w - 1}:0] {name};")
    leaves = {**inputs, **regs}
    if reset == "wire":
        lines += ["wire rst_n;",
                  f"assign rst_n = {expr(draw, leaves, 1)};"]
    elif reset == "reg":
        lines += ["reg rst_n;", "always @(posedge clk) "
                  f"rst_n <= {expr(draw, leaves, 1)};"]
    visible = dict(leaves)
    for name in wires:  # a combinational chain: each reads the earlier ones
        lines.append(f"assign {name} = {expr(draw, visible, 2)};")
        visible[name] = wires[name]
    for name, w in regs.items():
        style = draw(st.sampled_from(["async", "sync", "none"]))
        edge = " or negedge rst_n" if style == "async" else ""
        lines.append(f"always @(posedge clk{edge}) begin")
        value = expr(draw, visible, 2)
        update = draw(st.sampled_from(["plain", "enable", "mux"]))
        if update == "enable":
            body = f"if ({expr(draw, visible, 1)}) {name} <= {value};"
        elif update == "mux":
            body = (f"{name} <= {expr(draw, visible, 1)} ? {value} : "
                    f"{expr(draw, visible, 1)};")
        else:
            body = f"{name} <= {value};"
        if style == "none":
            lines.append(f"  {body}")
        else:
            lines.append(f"  if (!rst_n) {name} <= {w}'d"
                         f"{draw(st.integers(0, (1 << w) - 1))};")
            lines.append(f"  else {body}")
        lines.append("end")
    lines.append("endmodule")
    assertions = []
    for _ in range(draw(st.integers(1, 3))):
        a = expr(draw, visible, 1)
        b = expr(draw, visible, 1)
        shape = draw(st.sampled_from([
            "{a}", "{a} |-> {b}", "{a} |=> {b}", "{a} |-> ##[1:2] {b}",
            "$rose({a}) |-> {b}", "{a} |-> ($past({b}) == {b})",
            "{a} |-> ##1 $stable({b})"]))
        disable = draw(st.sampled_from(["", "", "disable iff (!rst_n) "]))
        assertions.append(f"assert property (@(posedge clk) {disable}"
                          f"{shape.format(a=a, b=b)});")
    return {"source": "\n".join(lines) + "\n", "assertions": assertions,
            "seed": draw(st.integers(0, 2 ** 16))}


# -- tests ---------------------------------------------------------------------


@given(programs())
@settings(max_examples=150, deadline=None)
def test_stamped_frames_match_the_walk(program):
    run_saving_failure(program)


TIME_SHIFTED = """
module t(clk, rst_n, a);
input clk; input rst_n; input a;
wire w;
reg q;
assign w = $past(a);
always @(posedge clk) begin
  if (!rst_n) q <= 1'b0; else q <= w;
end
endmodule
"""


def test_time_shifted_rtl_walks_and_says_so():
    """The ``Uncompilable`` fallback, reached without any patching."""
    program = {"source": TIME_SHIFTED, "seed": 0, "walks": True,
               "assertions": [
                   "assert property (@(posedge clk) q |-> $past(a, 2));",
                   "assert property (@(posedge clk) !q);"]}
    run_program(program)
    profile: dict = {}
    result = Prover(design_of(program), profile=profile, **ENGINE).prove(
        parse_assertion(program["assertions"][0]))
    assert result.status == "proven"
    assert profile["frames_walked"] > 0 and profile["unroll_s"] > 0
    assert "frames_stamped" not in profile
    assert "step_template_nodes" not in profile


def test_counters_of_a_stamped_proof():
    program = {"source": TIME_SHIFTED.replace("$past(a)", "a"), "seed": 0}
    profile: dict = {}
    design = design_of(program)
    result = Prover(design, profile=profile, **ENGINE).prove(
        parse_assertion("assert property (@(posedge clk) "
                        "q |-> $past(a));"))
    assert result.status == "proven"
    assert "frames_walked" not in profile
    # reachable-init session: max_bmc + window frames; free-init: k + window
    assert profile["frames_stamped"] >= ENGINE["max_bmc"] + 1
    assert profile["step_template_nodes"] > 0 and profile["unroll_s"] > 0


@pytest.mark.parametrize(
    "path", sorted(REGRESS.glob("unroll_*.json")), ids=lambda p: p.stem)
def test_saved_regressions(path):
    run_program(json.loads(path.read_text()))
