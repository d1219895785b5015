"""The equivalence oracle: every NL2SVA verdict against ground truth.

``tests/oracle/equiv.py`` enumerates every trace of a pair's free 1-bit
signals with the soundness oracle's evaluator (neither imports anything
from ``repro.formal``) and holds the checker's result, at the checker's
own horizon, to it (docs/engine.md, "The equivalence oracle"):

* the verdict is the one the traces say: ``equivalent``, either
  implication, or ``inequivalent`` with a witness each way;
* a counterexample, replayed, separates the two assertions;
* a bounded pair's horizon covers both attempts' windows.

Tier-1 runs the fixed slice: the NL2SVA-Human corpus and
:data:`MACHINE` NL2SVA-Machine problems of each dataset seed in
:data:`SEEDS`, against the simulated model's responses and single
mutants, every pair of at most ``equiv.MAX_BITS`` bits.  CI's chaos job
runs more machine seeds by setting ``ORACLE_SEEDS`` (``"0-23"`` or
``"0,3,5"``).  A sweep that disagrees writes its smallest disagreement
to ``tests/regress/equiv_oracle_last_failure.json``; rename the file to
keep it, and :func:`test_saved_regressions` replays it on every run.
"""

import ast
import json
from pathlib import Path

import pytest

from oracle import equiv, pairs, sva_eval
from oracle.equiv import Oracle, Pair
from oracle.pairs import human_pairs, machine_pairs, pair_from_json
from test_formal_oracle import oracle_seeds

from repro.formal.equivalence import EquivChecker, check_equivalence
from repro.sva.parser import parse_assertion
from repro.sva.unparse import unparse

REGRESS = Path(__file__).parent / "regress"

#: NL2SVA-Machine dataset seeds of the tier-1 slice, and problems per seed
SEEDS = [0]
MACHINE = 12

#: the fixed slice's disagreements filed under a known defect: a fix of
#: the defect empties its rows (and must update them)
KNOWN = {
    ("arbiter_weighted_6~corrupt", "abort-horizon"),
    *((name, "onehot0-one-bit") for name in (
        "0:nl2sva_machine_3_2_0~partial", "0:nl2sva_machine_3_2_0~r1",
        "arbiter_fixed_0~r0", "arbiter_reverse_priority_0~r0",
        "arbiter_reverse_priority_0~r1", "arbiter_rr_0~r0",
        "arbiter_rr_0~r2", "arbiter_rr_0~r4", "arbiter_weighted_0~corrupt",
        "arbiter_weighted_0~r0")),
}


def _pair(reference, candidate):
    wrap = "assert property (@(posedge clk) {});".format
    return Pair("hand", "hand", parse_assertion(wrap(reference)),
                parse_assertion(wrap(candidate)))


def _truth(reference, candidate, horizon=4):
    oracle = Oracle()
    pair = _pair(reference, candidate)
    ref = oracle.evaluator(pair.reference, {})
    cand = oracle.evaluator(pair.candidate, {})
    return oracle.decide(ref, cand, max(ref.back, cand.back), horizon)


class TestTruth:
    """Enumeration on hand pairs, one verdict and one semantic point at
    a time."""

    @pytest.mark.parametrize("reference, candidate, verdict", [
        ("a |=> b", "a |-> ##1 b", "equivalent"),
        ("!(a && b)", "!a || !b", "equivalent"),
        ("(a && b) |-> c", "a |-> c", "candidate_implies_ref"),
        ("a |-> ##2 b", "a |-> ##[0:2] b", "ref_implies_candidate"),
        ("a |-> ##2 b", "a |-> ##3 b", "inequivalent"),
        # Figure 7: a weak unbounded eventuality is a tautology
        ("a |-> strong(##[0:$] b)", "a |-> ##[0:$] b",
         "ref_implies_candidate"),
        ("a |-> ##[1:$] b", "1'b1", "equivalent"),
    ])
    def test_verdicts(self, reference, candidate, verdict):
        assert _truth(reference, candidate).verdict == verdict

    def test_inequivalent_has_a_witness_each_way(self):
        truth = _truth("a |-> ##2 b", "a |-> ##3 b")
        ref_holds = truth.witnesses["ref"]
        assert len(ref_holds) == 4 and ref_holds[0]["a"] == 1
        assert ref_holds[2]["b"] == 1 and ref_holds[3]["b"] == 0
        assert set(truth.witnesses) == {"ref", "cand"}

    def test_cycles_before_the_attempt_are_free(self):
        # $rose(a) at cycle 0 reads a before it: with that cycle fixed at
        # 0, as the evaluator has it, $rose(a) and a would be equivalent
        truth = _truth("$rose(a)", "a")
        assert truth.verdict == "ref_implies_candidate"
        assert [frame["a"] for frame in truth.witnesses["cand"]][:2] == \
            [1, 1]

    def test_a_bounded_verdict_does_not_depend_on_the_horizon(self):
        for horizon in (4, 6, 9):
            assert _truth("a |-> ##[1:3] b", "a |-> ##1 b",
                          horizon).verdict == "candidate_implies_ref"

    def test_evaluations_are_shared_between_pairs(self):
        oracle = Oracle()
        ref = oracle.evaluator(_pair("a |-> ##2 b", "1").reference, {})
        for candidate in ("a |-> ##3 b", "a |-> ##1 b"):
            cand = oracle.evaluator(_pair("1", candidate).candidate, {})
            oracle.decide(ref, cand, 0, 4)
        # the reference's window (2 signals x 3 frames) is enumerated
        # once; each candidate's own window once
        assert oracle.evaluations == 2 ** 6 + 2 ** 8 + 2 ** 4


def test_the_judge_holds_a_result_to_its_horizon():
    pair = _pair("a |-> ##[1:3] b", "a |-> ##1 b")
    result = check_equivalence(pair.reference, pair.candidate)
    oracle = Oracle()
    ref = oracle.evaluator(pair.reference, {})
    cand = oracle.evaluator(pair.candidate, {})
    problem, truth = oracle.judge(ref, cand, result)
    assert problem is None and truth.verdict == result.verdict.value
    # a result whose counterexample does not separate the two is wrong
    result.counterexample = {"a": [0], "b": [0]}
    problem, _truth = oracle.judge(ref, cand, result)
    assert problem == "the counterexample does not separate the two"


@pytest.mark.xfail(strict=True, reason="FOUND: $onehot0 of a 1-bit "
                   "operand never holds in the checker")
def test_onehot0_of_one_bit_holds_when_the_bit_is_0():
    """``$onehot0(a)`` holds when at most one bit of ``a`` is set, so on
    one bit it always holds; the checker compares the popcount with 2
    cut to the popcount's own width, one bit, and reads it as false."""
    pair = _pair("$onehot0(a)", "1'b1")
    result = check_equivalence(pair.reference, pair.candidate)
    oracle = Oracle()
    ref = oracle.evaluator(pair.reference, {})
    cand = oracle.evaluator(pair.candidate, {})
    problem, truth = oracle.judge(ref, cand, result)
    assert oracle.known_defect(ref, cand, result) == "onehot0-one-bit"
    assert problem is None, (result.verdict.value, truth.verdict)


@pytest.mark.xfail(strict=True, reason="FOUND: the encoder's disable iff "
                   "covers the whole unrolling, not the attempt's window")
def test_a_disable_after_the_attempt_ends_does_not_save_it():
    """``!a`` ends on cycle 0 and ``!a ##1 1'b1`` on cycle 1, so ``c``
    on cycle 1 aborts only the second; the checker aborts both when
    ``c`` holds anywhere in its unrolling and calls them equivalent."""
    pair = _pair("disable iff (c) !a", "disable iff (c) !a ##1 1'b1")
    result = check_equivalence(pair.reference, pair.candidate)
    oracle = Oracle()
    ref = oracle.evaluator(pair.reference, {})
    cand = oracle.evaluator(pair.candidate, {})
    problem, truth = oracle.judge(ref, cand, result)
    assert oracle.known_defect(ref, cand, result) == "abort-horizon"
    assert problem is None, (result.verdict.value, truth.verdict)


@pytest.mark.parametrize("module", [sva_eval, equiv, pairs],
                         ids=lambda m: m.__name__)
def test_the_oracle_imports_nothing_from_formal(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {m for m in imported if m.startswith("repro.formal")}


def _checker():
    """The checker's result for a pair: one shared checker per
    reference, as the service pools them."""
    checkers = {}

    def check(pair):
        key = (unparse(pair.reference), tuple(sorted(pair.params.items())))
        checker = checkers.get(key)
        if checker is None:
            checker = checkers[key] = EquivChecker(pair.reference,
                                                   params=pair.params)
        return checker.check(pair.candidate)

    return check


def test_every_nl2sva_verdict_agrees_with_the_oracle():
    seeds = oracle_seeds(SEEDS)
    todo = human_pairs()
    for seed in seeds:
        todo += machine_pairs(MACHINE, seed)
    report = equiv.sweep(todo, _checker())
    print(report.summary())
    for (name, defect), entry in sorted(report.known.items()):
        print(f"  {defect}: {name}: {entry['problem']}")
    if report.disagreements:
        (REGRESS / "equiv_oracle_last_failure.json").write_text(
            json.dumps(equiv.shrunk(report.disagreements), indent=1) + "\n")
    assert report.disagreements == []
    # a longer horizon moves no unbounded pair's truth
    assert report.horizon_sensitive == []
    # coverage: every decided verdict, on both families
    for verdict in equiv.VERDICTS:
        assert report.checked[verdict] >= 10, dict(report.checked)
    if seeds == SEEDS:
        assert set(report.known) == KNOWN
        assert report.unbounded >= 20


@pytest.mark.parametrize("path", sorted(
    p for p in REGRESS.glob("equiv_oracle_*.json")
    if not p.name.endswith("_last_failure.json")), ids=lambda p: p.stem)
def test_saved_regressions(path):
    """A saved disagreement's verdict now agrees with the oracle, and its
    witnesses still separate the pair the way they were saved."""
    data = json.loads(path.read_text())
    pair = pair_from_json(data)
    oracle = Oracle()
    ref = oracle.evaluator(pair.reference, pair.params)
    cand = oracle.evaluator(pair.candidate, pair.params)
    result = _checker()(pair)
    assert oracle.judge(ref, cand, result)[0] is None
    assert result.verdict.value == data["truth"]
    back = max(ref.back, cand.back)
    for label, frames in data["witnesses"].items():
        want = label == "ref"
        assert (equiv.holds(ref, frames, back),
                equiv.holds(cand, frames, back)) == (want, not want)
