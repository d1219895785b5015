"""Exhaustive ground truth for the NL2SVA verdicts.

A pair is a reference and a candidate assertion over free 1-bit
signals.  The equivalence checker compares one attempt of each, started
at cycle 0 of a trace of ``horizon`` cycles whose earlier cycles are
free too (a result's ``cex_offset`` counts the ones its counterexample
shows).  This module answers the same question by enumeration with
:mod:`oracle.sva_eval`, which reads 0 before a trace's first frame: so
a trace here is ``back`` free frames, enough for both assertions'
``$past`` depth, then the ``horizon`` frames of the attempt, and both
attempts start at frame ``back``.

An attempt reads only the frames of its window (``back`` minus its own
depth, to ``back`` plus its reach, or to the trace end when it is
unbounded).  So each assertion is evaluated on every assignment of its
window's bits alone, and the two tables are joined on the bits they
share.  A trace on which one assertion holds and the other fails is a
witness of that direction:

* ``equivalent`` -- no witness either way;
* ``candidate_implies_ref`` -- a trace where the reference holds and
  the candidate fails, and none the other way round;
* ``ref_implies_candidate`` -- the mirror image;
* ``inequivalent`` -- a witness each way.

Every witness is replayed on its whole trace before it counts, and so
is a counterexample the checker returns: it must separate the two.

:func:`sweep` takes the checker as a callable, so nothing here imports
``repro.formal`` (``tests/test_equiv_oracle.py`` checks the imports).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.rtl.elaborate import _rewrite_assertion_exprs, rewrite
from repro.sva.ast_nodes import Assertion, Number, SystemCall, signals_of
from repro.sva.unparse import unparse

from .sva_eval import Evaluator, Run, Unsupported

#: the largest ``signals x trace length`` a pair is enumerated at
MAX_BITS = 14

#: how much longer a trace the horizon probe of an unbounded pair uses
PROBE = 3

#: verdict name -> (a reference-holds witness exists, a candidate-holds
#: witness exists)
VERDICTS = {
    "equivalent": (False, False),
    "candidate_implies_ref": (True, False),
    "ref_implies_candidate": (False, True),
    "inequivalent": (True, True),
}

#: defects the oracle found in the checker, whose fixes move records and
#: land on their own; a disagreement with a defect's exact signature is
#: filed under it
KNOWN_DEFECTS = {
    "abort-horizon": "disable iff satisfies an attempt when its condition "
                     "holds anywhere up to the end of the unrolling, not "
                     "only within the attempt's window",
    "onehot0-one-bit": "$onehot0 of a 1-bit operand compares its popcount "
                       "with 2 cut to one bit, so it never holds",
}


@dataclass
class Pair:
    """A reference and one candidate scored against it, every signal
    1 bit wide."""

    name: str
    family: str  # human | machine
    reference: Assertion
    candidate: Assertion
    params: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "family": self.family,
                "reference": unparse(self.reference),
                "candidate": unparse(self.candidate),
                "params": dict(self.params)}


def _onehot0_cut(assertion: Assertion, params: dict[str, int]) -> Assertion:
    """*assertion* as the checker reads it: ``$onehot0`` of a 1-bit
    operand is 0."""
    probe = Evaluator(assertion, dict.fromkeys(
        signals_of(assertion) - set(params), 1), params)

    def cut(expr):
        if isinstance(expr, SystemCall) and expr.name == "$onehot0" \
                and probe._leaf(expr.args[0])[1] == 1:
            return Number(0, 1, "b", text="1'b0")
        return expr
    return _rewrite_assertion_exprs(assertion, lambda e: rewrite(e, cut))


class _UnrolledAbort(Run):
    """The checker's ``disable iff``: it aborts an attempt when the
    condition holds on any cycle up to the trace end."""

    def disabled(self, t: int) -> bool:
        disable = self.ev.assertion.disable
        return disable is not None and any(
            self.bool(disable, c) for c in range(t, self.n))


def holds(ev: Evaluator, frames: list[dict], t: int, run=Run) -> bool:
    """The attempt of *ev* started at frame *t* holds on *frames*."""
    return not run(ev, frames).violated(t)


@dataclass
class Truth:
    """What enumeration says about one pair at one trace length."""

    verdict: str
    #: ``"ref"`` (the reference holds, the candidate fails) and
    #: ``"cand"`` (the other way round) -> a witness trace
    witnesses: dict


class _Side:
    """One assertion of a pair, evaluated on the frames of its window."""

    def __init__(self, ev: Evaluator, back: int, length: int, run=Run):
        self.ev = ev
        self.run = run
        self.first = back - ev.back
        to_end = ev.ahead is None or (run is not Run
                                      and ev.assertion.disable is not None)
        end = length if to_end else min(length, back + ev.ahead + 1)
        self.frames = end - self.first
        self.names = sorted(ev.signals)
        #: every value of one frame; an assignment picks one per frame
        self.options = [dict(zip(self.names, bits)) for bits in
                        itertools.product((0, 1), repeat=len(self.names))]

    def outcomes(self) -> bytes:
        """Whether the attempt holds, per assignment in enumeration
        order."""
        ev, run, t = self.ev, self.run, self.ev.back
        return bytes(not run(ev, frames).violated(t) for frames in
                     itertools.product(self.options, repeat=self.frames))

    def table(self, outcomes: bytes, names: list,
              lo: int, hi: int) -> dict[tuple, dict[bool, tuple]]:
        """The value of the shared bits (*names* on this side's frames
        ``lo .. hi - 1``, as an index into the shared names' options per
        frame) -> outcome -> the first assignment with it."""
        proj = [int("".join(str(option[n]) for n in names) or "0", 2)
                for option in self.options]
        out: dict[tuple, dict[bool, tuple]] = {}
        for held, values in zip(outcomes, itertools.product(
                range(len(self.options)), repeat=self.frames)):
            key = values[lo:hi]
            if names != self.names:
                key = tuple(map(proj.__getitem__, key))
            out.setdefault(key, {}).setdefault(bool(held), values)
        return out


class Oracle:
    """Judges checker results; the evaluators, outcome vectors and
    tables of one assertion are built once and shared by every pair it
    is in."""

    def __init__(self):
        self._evaluators: dict[tuple, Evaluator] = {}
        self._outcomes: dict[tuple, bytes] = {}
        self._tables: dict[tuple, dict] = {}
        self.evaluations = 0

    def evaluator(self, assertion: Assertion,
                  params: dict[str, int]) -> Evaluator:
        """*assertion* over free 1-bit signals (raises
        :class:`Unsupported`)."""
        key = (unparse(replace(assertion, label=None)),
               tuple(sorted(params.items())))
        ev = self._evaluators.get(key)
        if ev is None:
            widths = dict.fromkeys(signals_of(assertion) - set(params), 1)
            ev = self._evaluators[key] = Evaluator(assertion, widths,
                                                   params)
        return ev

    def _table(self, side: _Side, names: list, frames: range) -> dict:
        key = (id(side.ev), side.frames, side.run)
        outcomes = self._outcomes.get(key)
        if outcomes is None:
            outcomes = self._outcomes[key] = side.outcomes()
            self.evaluations += len(outcomes)
        lo, hi = frames.start - side.first, frames.stop - side.first
        key += (tuple(names), lo, hi)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = side.table(outcomes, names, lo, hi)
        return table

    def decide(self, ref: Evaluator, cand: Evaluator, back: int,
               horizon: int, run=Run) -> Truth:
        """The verdict of *cand* against *ref* over every trace of
        ``back + horizon`` frames, attempts at frame *back*."""
        length = back + horizon
        sides = _Side(ref, back, length, run), _Side(cand, back, length,
                                                     run)
        names = sorted(ref.signals & cand.signals)
        frames = range(max(side.first for side in sides),
                       min(side.first + side.frames for side in sides))
        mine, theirs = (self._table(side, names, frames) for side in sides)
        every = sorted(ref.signals | cand.signals)
        witnesses = {}
        for key, outcomes in mine.items():
            other = theirs[key]
            for label, want in (("ref", True), ("cand", False)):
                if label in witnesses or want not in outcomes \
                        or (not want) not in other:
                    continue
                trace = [dict.fromkeys(every, 0) for _ in range(length)]
                for side, values in zip(sides, (outcomes[want],
                                                other[not want])):
                    for i, value in enumerate(values):
                        trace[side.first + i].update(side.options[value])
                # the windows are an optimisation; the witness must hold
                # up on the whole trace
                assert (holds(ref, trace, back, run),
                        holds(cand, trace, back, run)) == (
                    want, not want), "a window missed a frame it reads"
                witnesses[label] = trace
        found = ("ref" in witnesses, "cand" in witnesses)
        verdict = next(v for v, shape in VERDICTS.items() if shape == found)
        return Truth(verdict, witnesses)

    def judge(self, ref: Evaluator, cand: Evaluator, result,
              run=Run) -> tuple[str | None, Truth]:
        """``(why the checker's *result* is wrong or None, the truth at
        its horizon)``."""
        horizon = result.horizons[-1]
        back = max(ref.back, cand.back)
        truth = self.decide(ref, cand, back, horizon, run)
        verdict = result.verdict.value
        if verdict != truth.verdict:
            return f"{verdict}, but the traces say {truth.verdict}", truth
        if verdict == "equivalent":
            return None, truth
        if result.counterexample is None:
            return f"{verdict} without a counterexample", truth
        if not separates(ref, cand, back, result, run):
            return "the counterexample does not separate the two", truth
        aheads = [ev.ahead for ev in (ref, cand)]
        if None not in aheads and horizon <= max(aheads):
            return (f"horizon {horizon} cuts a window of "
                    f"{max(aheads) + 1} cycles"), truth
        return None, truth

    def known_defect(self, ref: Evaluator, cand: Evaluator,
                     result) -> str | None:
        """The :data:`KNOWN_DEFECTS` key a disagreement is an instance
        of."""
        if (ref.assertion.disable is not None
                or cand.assertion.disable is not None) and self.judge(
                    ref, cand, result, _UnrolledAbort)[0] is None:
            return "abort-horizon"
        cut = [self.evaluator(_onehot0_cut(ev.assertion, ev.params),
                              ev.params) for ev in (ref, cand)]
        if cut != [ref, cand] and self.judge(*cut, result)[0] is None:
            return "onehot0-one-bit"
        return None


def separates(ref: Evaluator, cand: Evaluator, back: int, result,
              run=Run) -> bool:
    """The checker's counterexample, replayed on a trace of its horizon
    after enough free frames, makes exactly one of the two hold.  Cycles
    it does not name read 0, as its canonical witness has them."""
    offset = result.cex_offset
    back = max(back, offset)
    length = back + result.horizons[-1]
    names = sorted(ref.signals | cand.signals)
    frames = [dict.fromkeys(names, 0) for _ in range(length)]
    for name, series in result.counterexample.items():
        for i, value in enumerate(series):
            t = back - offset + i
            if name in names and 0 <= t < length:
                frames[t][name] = value
    return holds(ref, frames, back, run) != holds(cand, frames, back, run)


def _clocking(a: Assertion):
    c = a.clocking
    return None if c is None else (c.edge or "posedge", unparse(c.signal))


def bits_of(ref: Evaluator, cand: Evaluator, horizon: int) -> int:
    """``signals x trace length`` of a pair at *horizon*."""
    back = max(ref.back, cand.back)
    return len(ref.signals | cand.signals) * (back + horizon)


@dataclass
class Report:
    """The outcome of one sweep."""

    checked: Counter = field(default_factory=Counter)  # verdict -> count
    undecided: Counter = field(default_factory=Counter)  # verdict -> count
    skipped: dict = field(default_factory=dict)  # pair name -> reason
    #: (pair name, defect) -> the disagreement filed under it
    known: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)
    #: judged pairs with an unbounded side, those whose truth at
    #: ``horizon + PROBE`` was enumerated too, and those among them
    #: whose truth differs there
    unbounded: int = 0
    probed: int = 0
    horizon_sensitive: list = field(default_factory=list)
    evaluations: int = 0

    def summary(self) -> str:
        return (f"equivalence oracle: {sum(self.checked.values())} verdicts "
                f"judged ({dict(self.checked)}), {self.evaluations} "
                f"evaluations, {len(self.skipped)} pairs skipped, "
                f"{sum(self.undecided.values())} undecided, "
                f"{len(self.known)} known-defect disagreements, "
                f"{len(self.disagreements)} disagreements; "
                f"{self.unbounded} unbounded pairs judged, {self.probed} "
                f"of them at horizon + {PROBE} too, "
                f"{len(self.horizon_sensitive)} sensitive")


def sweep(pairs: list[Pair], check, report: Report | None = None,
          max_bits: int = MAX_BITS) -> Report:
    """Judge ``check(pair)`` -- the checker's result -- on every pair of
    at most *max_bits* bits."""
    report = report if report is not None else Report()
    oracle = Oracle()
    for pair in pairs:
        try:
            ref = oracle.evaluator(pair.reference, pair.params)
            cand = oracle.evaluator(pair.candidate, pair.params)
        except Unsupported as exc:
            report.skipped[pair.name] = str(exc)
            continue
        clocks = {_clocking(pair.reference), _clocking(pair.candidate)}
        if len(clocks - {None}) > 1:
            report.skipped[pair.name] = "clocking events differ"
            continue
        result = check(pair)
        if result.verdict.value not in VERDICTS:
            report.undecided[result.verdict.value] += 1
            continue
        horizon = result.horizons[-1]
        bits = bits_of(ref, cand, horizon)
        if bits > max_bits:
            report.skipped[pair.name] = f"{bits} bits"
            continue
        problem, truth = oracle.judge(ref, cand, result)
        if problem is not None:
            entry = {**pair.to_json(), "verdict": result.verdict.value,
                     "horizon": horizon, "problem": problem,
                     "truth": truth.verdict, "bits": bits,
                     "witnesses": truth.witnesses}
            defect = oracle.known_defect(ref, cand, result)
            if defect is not None:
                report.known[pair.name, defect] = entry
            else:
                report.disagreements.append(entry)
            continue
        report.checked[truth.verdict] += 1
        if None not in (ref.ahead, cand.ahead):
            continue
        report.unbounded += 1
        if bits_of(ref, cand, horizon + PROBE) <= max_bits:
            report.probed += 1
            longer = oracle.decide(ref, cand, max(ref.back, cand.back),
                                   horizon + PROBE)
            if longer.verdict != truth.verdict:
                report.horizon_sensitive.append(
                    (pair.name, truth.verdict, longer.verdict))
    report.evaluations += oracle.evaluations
    return report


def shrunk(disagreements: list) -> dict:
    """The smallest disagreement: fewest bits, then shortest texts."""
    return min(disagreements, key=lambda d: (
        d["bits"], len(d["reference"]) + len(d["candidate"]), d["name"]))
