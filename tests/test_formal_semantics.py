"""Tests for the bounded SVA trace semantics (concrete trace checking)."""

import pytest

from repro.formal.aig import AIG
from repro.formal.bitvec import FreeSignalSource
from repro.formal.prover import check_trace
from repro.formal.semantics import PropertyEncoder
from repro.sva.parser import parse_assertion

W = {"clk": 1, "a": 1, "b": 1, "c": 1, "v": 4, "rst": 1}


def holds(prop_text, trace, widths=W, first=0, last=None):
    a = parse_assertion(f"assert property (@(posedge clk) {prop_text});")
    violation = check_trace(a, trace, widths, first_attempt=first,
                            last_attempt=last)
    return violation is None, violation


class TestBooleanAndDelay:
    def test_invariant_holds(self):
        ok, _ = holds("a", {"a": [1, 1, 1, 1]}, last=3)
        assert ok

    def test_invariant_violated_at_cycle(self):
        ok, t = holds("a", {"a": [1, 1, 0, 1]}, last=3)
        assert not ok and t == 2

    def test_exact_delay(self):
        ok, _ = holds("a |-> ##2 b", {"a": [1, 0, 0, 0], "b": [0, 0, 1, 0]},
                      last=1)
        assert ok

    def test_exact_delay_violation(self):
        ok, t = holds("a |-> ##2 b", {"a": [1, 0, 0, 0], "b": [0, 0, 0, 0]},
                      last=1)
        assert not ok and t == 0

    def test_window_delay(self):
        ok, _ = holds("a |-> ##[1:3] b",
                      {"a": [1, 0, 0, 0, 0], "b": [0, 0, 0, 1, 0]}, last=1)
        assert ok

    def test_nonoverlapping(self):
        ok, _ = holds("a |=> b", {"a": [1, 0, 0], "b": [0, 1, 0]}, last=1)
        assert ok

    def test_overlapping_same_cycle(self):
        ok, _ = holds("a |-> b", {"a": [1, 0], "b": [1, 0]}, last=0)
        assert ok


class TestVacuity:
    def test_vacuous_pass(self):
        ok, _ = holds("a |-> ##1 b", {"a": [0, 0, 0], "b": [0, 0, 0]},
                      last=1)
        assert ok


class TestRepetition:
    def test_consecutive_repetition(self):
        ok, _ = holds("a[*3] |-> b",
                      {"a": [1, 1, 1, 0], "b": [0, 0, 1, 0]}, last=0)
        assert ok

    def test_consecutive_repetition_violation(self):
        ok, _ = holds("a[*3] |-> b",
                      {"a": [1, 1, 1, 0], "b": [0, 0, 0, 0]}, last=0)
        assert not ok

    def test_goto_repetition(self):
        # b[->2] ends at the second occurrence of b
        ok, _ = holds("a ##1 b[->2] |-> c",
                      {"a": [1, 0, 0, 0, 0], "b": [0, 0, 1, 0, 1],
                       "c": [0, 0, 0, 0, 1]}, last=0)
        assert ok


class TestStrength:
    def test_strong_eventually_witnessed(self):
        ok, _ = holds("a |-> strong(##[0:$] b)",
                      {"a": [1, 0, 0, 0], "b": [0, 0, 1, 0]}, last=0)
        assert ok

    def test_weak_unbounded_never_refuted(self):
        ok, _ = holds("a |-> ##[1:$] b",
                      {"a": [1, 0, 0, 0], "b": [0, 0, 0, 0]}, last=0)
        assert ok  # weak eventuality is unfalsifiable on any finite prefix

    def test_until(self):
        ok, _ = holds("a until b", {"a": [1, 1, 0, 0], "b": [0, 0, 1, 0]},
                      last=0)
        assert ok

    def test_until_violated(self):
        ok, _ = holds("a until b", {"a": [1, 0, 0, 0], "b": [0, 0, 1, 0]},
                      last=0)
        assert not ok


class TestDisable:
    def test_disable_aborts(self):
        a = parse_assertion(
            "assert property (@(posedge clk) disable iff (rst) a |-> ##1 b);")
        trace = {"a": [1, 0, 0], "b": [0, 0, 0], "rst": [0, 1, 0]}
        assert check_trace(a, trace, W, last_attempt=0) is None


def _all_valuations(aig, source, lits):
    """Truth tables of *lits* as lane ints: bit ``v`` of each is the
    literal's value under valuation ``v`` of the source's input bits."""
    inputs = [lit >> 1 for bits in source._cache.values() for lit in bits]
    lanes = 1 << len(inputs)
    mask = (1 << lanes) - 1
    values = {0: mask}
    for i, node in enumerate(inputs):
        values[node] = sum(1 << v for v in range(lanes) if (v >> i) & 1)
    for node in aig.cone(lits):
        if node not in values:
            a, b = aig.fanin(node)
            values[node] = ((values[a >> 1] ^ (mask if a & 1 else 0))
                            & (values[b >> 1] ^ (mask if b & 1 else 0)))
    return [values[lit >> 1] ^ (mask if lit & 1 else 0) for lit in lits]


def _disable_encoder(horizon):
    aig = AIG()
    source = FreeSignalSource(aig, {"a": 1, "rst": 1})
    return aig, source, PropertyEncoder(aig, source, horizon)


class TestDisableChain:
    """``disable iff`` reads one suffix chain per condition instead of a
    fresh OR per attempt: same function, O(K) gates."""

    ASSERTION = parse_assertion(
        "assert property (@(posedge clk) disable iff (rst) a |-> ##1 !a);")

    @pytest.mark.parametrize("horizon", range(1, 7))
    def test_equals_the_per_attempt_or_on_every_valuation(self, horizon):
        aig, source, enc = _disable_encoder(horizon)
        a = self.ASSERTION
        chained = [enc.encode_assertion(a, t) for t in range(horizon + 1)]
        folded = [
            aig.or_(aig.or_many(enc.expr_bool(a.disable, i)
                                for i in range(t, horizon)),
                    enc.sat(a.prop, t))
            for t in range(horizon + 1)]
        assert len(source._cache) == 2 * horizon  # two signals, K cycles
        tables = _all_valuations(aig, source, chained + folded)
        assert tables[:len(chained)] == tables[len(chained):]

    def test_grows_downward_only_as_far_as_asked(self):
        _aig, source, enc = _disable_encoder(8)
        enc.encode_assertion(self.ASSERTION, 5)
        assert {t for name, t in source._cache if name == "rst"} \
            == {5, 6, 7}
        enc.encode_assertion(self.ASSERTION, 3)
        assert {t for name, t in source._cache if name == "rst"} \
            == {3, 4, 5, 6, 7}

    def test_cone_is_linear_in_the_horizon(self):
        def gates(horizon):
            aig, _source, enc = _disable_encoder(horizon)
            lits = [enc.encode_assertion(self.ASSERTION, t)
                    for t in range(horizon)]
            return sum(aig.fanin(n) is not None for n in aig.cone(lits))

        small, large = gates(22), gates(44)
        # chain K-1, abort-or-holds K, the implication K: a fresh
        # left-folded OR per attempt was 22 * 21 / 2 gates on its own
        assert small <= 4 * 22
        assert large <= 4 * 44 and large - small <= 4 * 22

    def test_forget_drops_the_chain(self):
        _aig, source, enc = _disable_encoder(4)
        enc.encode_assertion(self.ASSERTION, 0)
        enc.forget()
        touched = source._touched = set()
        enc.encode_assertion(self.ASSERTION, 0)
        assert {t for name, t in touched if name == "rst"} == {0, 1, 2, 3}


class TestSampledValueFunctions:
    def test_past_in_property(self):
        ok, _ = holds("##1 (v == $past(v) + 1)",
                      {"v": [1, 2, 3, 4]}, first=0, last=1)
        assert ok

    def test_rose_trigger(self):
        ok, _ = holds("$rose(a) |-> b",
                      {"a": [0, 1, 1, 0], "b": [0, 1, 0, 0]},
                      first=1, last=2)
        assert ok
