"""Compiled simulation vs interpretive evaluation: must agree bit-for-bit.

`repro.rtl.compile` stages design expressions into generated Python; the
interpreter (ExprEvaluator over IntBackend) is the semantic reference.
"""

import random

import pytest

from repro.datasets.design2sva.fsm_gen import FsmConfig, generate_fsm
from repro.datasets.design2sva.pipeline_gen import (
    PipelineConfig, generate_pipeline,
)
from repro.datasets.nl2sva_human.corpus import (
    testbench_names as _tb_names,
    testbench_source as _tb_source,
)
from repro.rtl.compile import Uncompilable, compile_design, compile_expr
from repro.rtl.elaborate import elaborate
from repro.rtl.simulator import Simulator
from repro.sva.parser import Parser


def _interpreted_history(design, cycles, seed):
    """Run the simulator with compilation disabled."""
    sim = Simulator(design, seed=seed)
    sim._compiled = {}
    sim.reset()
    sim.run_random(cycles)
    return sim.history


def _compiled_history(design, cycles, seed):
    sim = Simulator(design, seed=seed)
    assert compile_design(design), "nothing compiled for this design"
    sim.reset()
    sim.run_random(cycles)
    return sim.history


def _assert_same(design, cycles=10, seed=0):
    a = _interpreted_history(design, cycles, seed)
    b = _compiled_history(design, cycles, seed)
    assert len(a) == len(b)
    for t, (fa, fb) in enumerate(zip(a, b)):
        assert fa == fb, (t, {k: (fa.get(k), fb.get(k))
                              for k in fa if fa.get(k) != fb.get(k)})


class TestDesignAgreement:
    @pytest.mark.parametrize("tb", _tb_names())
    def test_corpus_testbenches(self, tb):
        design = elaborate(_tb_source(tb))
        _assert_same(design, cycles=12, seed=hash(tb) & 0xFFFF)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_fsm(self, seed):
        gen = generate_fsm(FsmConfig(n_states=4 + seed % 3, n_edges=6,
                                     width=8, seed=seed))
        _assert_same(elaborate(gen.source, top="fsm"), cycles=8, seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_pipeline(self, seed):
        gen = generate_pipeline(PipelineConfig(n_units=2, width=16,
                                               seed=seed))
        _assert_same(elaborate(gen.source, top="pipeline"), cycles=8,
                     seed=seed)


def _expr(text: str):
    return Parser(text).parse_expression()


class TestExprCompiler:
    WIDTHS = {"a": 8, "b": 8, "c": 1, "d": 4}

    def _check(self, text: str, cases=12, seed=0, params=None):
        from repro.formal.bitvec import (
            EvalError, ExprEvaluator, IntBackend, SignalSource,
        )
        expr = _expr(text)
        widths = dict(self.WIDTHS)

        class _Dict(SignalSource):
            def __init__(self, values):
                self.values = values

            def width(self, name):
                return widths[name]

            def read(self, name, t):
                return self.values[name], widths[name]

        fn = compile_expr(expr, widths, params, out_width=16)
        rng = random.Random(seed)
        for _ in range(cases):
            values = {n: rng.getrandbits(w) for n, w in widths.items()}
            ev = ExprEvaluator(IntBackend(), _Dict(values), params)
            ref, w = ev.eval(expr, 0)
            ref = (ref & ((1 << w) - 1) if w else 0) & 0xFFFF
            assert fn(values) == ref, (text, values)

    @pytest.mark.parametrize("text", [
        "a + b", "a - b", "a * b", "a / b", "a % b", "a & b", "a | b",
        "a ^ b", "a ^~ b", "~a", "-a", "!a", "&a", "|a", "^a", "~&a", "~|a",
        "a == b", "a != b", "a < b", "a >= b", "a && c", "a || c",
        "a << 2", "a >> 3", "a << d", "a >> d",
        "a[3]", "a[d]", "a[5:2]", "{a, b}", "{2{d}}", "{a[7:4], d}",
        "c ? a : b", "a + 4'd9", "a == 8'hff", "$countones(a)",
        "$onehot(d)", "$onehot0(d)", "d + $clog2(16)",
    ])
    def test_operator_agreement(self, text):
        self._check(text)

    def test_parameter_substitution(self):
        self._check("a + WIDTH", params={"WIDTH": 5})
        self._check("a << SHIFT", params={"SHIFT": 2})

    def test_past_is_uncompilable(self):
        with pytest.raises(Uncompilable):
            compile_expr(_expr("$past(a)"), self.WIDTHS, None, 8)

    def test_fill_literal_is_uncompilable(self):
        with pytest.raises(Uncompilable):
            compile_expr(_expr("a == '1"), self.WIDTHS, None, 8)

    def test_unknown_signal_is_uncompilable(self):
        with pytest.raises(Uncompilable):
            compile_expr(_expr("ghost + 1"), self.WIDTHS, None, 8)

    def test_compile_design_skips_uncompilable(self):
        design = elaborate("module m (input a, output y); "
                           "assign y = a; endmodule")
        compiled = compile_design(design)
        assert "y" in compiled
        # cache lands on the design and is not pickled
        import pickle
        assert getattr(design, "_compiled_sim") is compiled
        clone = pickle.loads(pickle.dumps(design))
        assert not hasattr(clone, "_compiled_sim")
