"""Explicit-state ground truth for small designs, and the verdict judge.

:class:`Model` cuts a design down to the cone of the signals an
assertion reads, starts it from reset with the concrete
:class:`~repro.rtl.simulator.Simulator` and tabulates every reachable
state's successor under every input vector.  :func:`explore` walks the
product of that graph with a sliding window of the assertion's signal
values -- wide enough for its ``$past`` reads and its forward horizon --
and evaluates every attempt whose window is complete with
:mod:`oracle.sva_eval`.  Breadth first, so a violation comes with a
shortest input sequence.

:func:`judge` holds one prover verdict against that truth:

* ``proven`` -- no reachable attempt is violated, and a ``vacuous``
  flag means no reachable attempt's antecedent ever matches;
* ``cex`` -- the counterexample, replayed on the simulator, violates
  some attempt (and every frame it needs keeps the assumptions).

Undecided verdicts (``undetermined``, ``timeout``, ``error``) claim
nothing and are only counted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from repro.formal.prover import Prover
from repro.rtl.elaborate import Design, reset_inactive_value
from repro.rtl.simulator import Simulator
from repro.sva.ast_nodes import Assertion, SystemCall, signals_of
from repro.sva.unparse import unparse

from .sva_eval import SHIFTED, Evaluator, Unsupported

#: state plus free input bits of the largest cone the oracle explores
MAX_BITS = 12

#: prover keywords per configuration; ``deep_k`` lets k exceed the
#: BMC window (``max_k > max_bmc + 1``), where a step proof needs base
#: cases the window does not hold
CONFIGS = {
    "window6": {"max_bmc": 6, "max_k": 4},
    "deep_k": {"max_bmc": 2, "max_k": 6},
}
SIMULATION = {
    "sim": {"use_simulation": True, "sim_traces": 6, "sim_cycles": 20},
    "nosim": {"use_simulation": False},
}


@dataclass
class Case:
    """One assertion (and its assumptions) on one elaborated design."""

    name: str
    family: str  # counter | sticky | saturating | fsm | pipeline
    design: Design
    assertion: Assertion
    assumes: tuple[Assertion, ...] = ()


# -- the explicit-state model -------------------------------------------------


def cone(design: Design, roots) -> Design:
    """The part of *design* that can influence the signals *roots*."""
    todo = [name for name in roots if name in design.widths]
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for table in (design.comb_exprs, design.next_exprs):
            if name in table:
                todo += [s for s in signals_of(table[name])
                         if s in design.widths]
    keep = seen.__contains__
    return Design(
        name=design.name, params=dict(design.params),
        widths={n: w for n, w in design.widths.items() if keep(n)},
        inputs=[n for n in design.inputs if keep(n)],
        state=[n for n in design.state if keep(n)],
        next_exprs={n: e for n, e in design.next_exprs.items() if keep(n)},
        comb_exprs={n: e for n, e in design.comb_exprs.items() if keep(n)},
        clock=design.clock, resets=[n for n in design.resets if keep(n)])


class Model:
    """Every reachable state of a cone and its successors."""

    def __init__(self, design: Design, roots):
        d = cone(design, roots)
        for expr in (*d.comb_exprs.values(), *d.next_exprs.values()):
            if any(isinstance(n, SystemCall) and n.name in SHIFTED
                   for n in expr.walk()):
                raise Unsupported("time-shifted read in the design")
        free = [n for n in d.inputs if n not in d.resets]
        bits = sum(d.widths[n] for n in free + d.state)
        if bits > MAX_BITS:
            raise Unsupported(f"{bits} bits of state and input")
        self.names = list(d.state)
        self._sim = Simulator(d)
        self._sim.reset()
        self.init = tuple(self._sim.state[n] for n in self.names)
        held = {r: reset_inactive_value(r) for r in d.resets}
        vectors = [{**dict(zip(free, values)), **held}
                   for values in itertools.product(
                       *(range(1 << d.widths[n]) for n in free))]
        #: state -> [(input vector, frame, next state)]
        self.succ: dict[tuple, list] = {}
        todo = [self.init]
        while todo:
            state = todo.pop()
            if state in self.succ:
                continue
            moves = self.succ[state] = [self._step(state, v)
                                        for v in vectors]
            todo += [nxt for _v, _f, nxt in moves if nxt not in self.succ]

    def _step(self, state: tuple, vector: dict):
        sim = self._sim
        sim.state = dict(zip(self.names, state))
        sim.history.clear()
        frame = sim.step(vector)
        return vector, frame, tuple(sim.state[n] for n in self.names)


@dataclass
class Truth:
    """What exhaustive exploration says about one assertion."""

    #: input vectors from reset to the end of a shortest violated
    #: attempt's window, or None when no reachable attempt is violated
    violation: list | None
    #: the earliest cycle a reachable attempt whose implication
    #: antecedent matches starts on, or None when none ever does
    first_fire: int | None
    windows: int  # distinct windows evaluated


def explore(model: Model, ev: Evaluator,
            constraints: tuple[Evaluator, ...] = ()) -> Truth:
    """Breadth-first search of (state, window of the last ``back +
    ahead + 1`` frames) from reset.  *constraints* are one-cycle
    assumptions: a frame that breaks one is not a move."""
    if ev.ahead is None:
        raise Unsupported("unbounded window")
    names = sorted(ev.signals)
    width = ev.back + ev.ahead + 1
    moves: dict[tuple, list] = {}
    for state, successors in model.succ.items():
        distinct: dict[tuple, dict] = {}
        for vector, frame, nxt in successors:
            if any(c.violated([frame], 0) for c in constraints):
                continue
            distinct.setdefault(
                (tuple(frame[n] for n in names), nxt), vector)
        moves[state] = [(proj, nxt, vec)
                        for (proj, nxt), vec in distinct.items()]
    zero = (0,) * len(names)
    start = (model.init, (zero,) * width, 0)
    parent: dict[tuple, tuple | None] = {start: None}
    frontier = [start]
    verdicts: dict[tuple, tuple[bool, bool]] = {}
    violation = first_fire = None
    cycles = 0  # frames in every window of the frontier
    while frontier and violation is None:
        cycles += 1
        grown = []
        for node in frontier:
            state, window, age = node
            for proj, nxt, vector in moves.get(state, ()):
                child = (nxt, window[1:] + (proj,), min(age + 1, width))
                if child in parent:
                    continue
                parent[child] = (node, vector)
                grown.append(child)
                if cycles <= ev.ahead:
                    continue  # the window's attempt starts before reset
                verdict = verdicts.get(child[1])
                if verdict is None:
                    run = ev.run([dict(zip(names, p)) for p in child[1]])
                    verdict = verdicts[child[1]] = (run.violated(ev.back),
                                                    run.fires(ev.back))
                if verdict[1] and first_fire is None:
                    first_fire = cycles - 1 - ev.ahead
                if verdict[0] and violation is None:
                    violation = _path(parent, child)
        frontier = grown
    return Truth(violation, first_fire, len(verdicts))


def _path(parent: dict, node) -> list:
    path = []
    while parent[node] is not None:
        node, vector = parent[node]
        path.append(vector)
    return path[::-1]


def _constraints(case: Case) -> tuple[Evaluator, ...]:
    out = []
    for assume in case.assumes:
        ev = Evaluator(assume, case.design.widths, case.design.params)
        if ev.ahead != 0 or ev.back != 0:
            raise Unsupported("an assumption over more than one cycle")
        out.append(ev)
    return tuple(out)


def truth_of(case: Case, ev: Evaluator, constraints) -> Truth:
    roots = set(ev.signals)
    for c in constraints:
        roots |= c.signals
    return explore(Model(case.design, roots), ev, constraints)


# -- judging one verdict -----------------------------------------------------


def replay(design: Design, result, last: int) -> tuple[list[dict], int]:
    """The counterexample re-simulated on the full design: ``(frames,
    first attempt)``.  A BMC witness starts in the post-reset state and
    spans the unrolling, through cycle *last* (inputs it never read are
    0; a constant-false assertion's witness reads none); a simulation
    witness is a whole random trace, reset phase included, whose
    attempts start after it."""
    cex = result.counterexample or {}
    free = [n for n in design.inputs if n not in design.resets]
    length = max((len(v) for v in cex.values()), default=0)
    if result.engine != "simulation":
        length = max(length, last + 1)
    sim = Simulator(design)
    sim.reset()
    first = len(sim.history) if result.engine == "simulation" else 0
    if not first:
        sim.history.clear()
    for t in range(first, length):
        sim.step({n: cex[n][t] for n in free
                  if n in cex and t < len(cex[n])})
    return sim.history, first


def confirms(ev: Evaluator, constraints, frames: list[dict],
             first: int) -> bool:
    """Some attempt from *first* on is violated on *frames*, with every
    frame of its window, from *first* on, keeping the constraints."""
    run = ev.run(frames)
    last = len(frames) - 1 - (ev.ahead or 0)
    kept = first
    for t in range(first, last + 1):
        end = t + (ev.ahead or 0)
        while kept <= end and not any(c.violated([frames[kept]], 0)
                                      for c in constraints):
            kept += 1
        if kept <= end:
            return False  # an assumption broke inside the window
        if run.violated(t):
            return True
    return False


def judge(case: Case, ev: Evaluator, constraints, truth: Truth | None,
          result, max_bmc: int) -> str | None:
    """None when *result*, from a prover of BMC bound *max_bmc*, agrees
    with the ground truth, else why not."""
    if result.status == "proven" and truth is not None:
        if truth.violation is not None:
            return (f"proven, but a reachable attempt is violated after "
                    f"{len(truth.violation)} cycles")
        if result.vacuous and truth.first_fire is not None:
            return (f"vacuous, but the antecedent matches on a reachable "
                    f"path from cycle {truth.first_fire}")
    if result.status == "cex":
        frames, first = replay(case.design, result,
                               max_bmc + (ev.ahead or 0))
        if not confirms(ev, constraints, frames, first):
            return (f"cex ({result.engine}) violates no attempt when "
                    f"replayed")
    return None


#: defects the oracle found in the prover, whose fixes move records and
#: land on their own; each is a FOUND line in CHANGES.md.  A
#: disagreement with a defect's exact signature is filed under it.
KNOWN_DEFECTS = {
    "bounded-vacuity": "a proof's vacuity flag is decided over BMC depths "
                       "0..max_bmc only, so an antecedent that first "
                       "matches deeper reads as never matching",
    "step-prehistory": "the induction step reads a value before its first "
                       "frame as 0, not as a free value, so a step over "
                       "$past reads of a free state can prove a violated "
                       "assertion",
}


def known_defect(ev: Evaluator, truth: Truth, result,
                 max_bmc: int) -> str | None:
    """The :data:`KNOWN_DEFECTS` key a disagreement is an instance of."""
    if result.status != "proven":
        return None
    if truth.violation is None:
        return ("bounded-vacuity" if truth.first_fire > max_bmc
                else None)
    if ev.back > 0 and result.engine == "k-induction":
        return "step-prehistory"
    return None


@dataclass
class Report:
    """The outcome of one sweep."""

    checked: Counter = field(default_factory=Counter)  # status -> count
    #: (family, strategy, status) -> count, for the coverage assertions
    cells: Counter = field(default_factory=Counter)
    skipped: dict = field(default_factory=dict)  # case name -> reason
    #: (case name, defect) -> verdicts filed under a known defect
    known: Counter = field(default_factory=Counter)
    disagreements: list = field(default_factory=list)
    windows: int = 0

    def summary(self) -> str:
        return (f"oracle: {sum(self.checked.values())} verdicts judged "
                f"({dict(self.checked)}), {self.windows} windows, "
                f"{len(self.skipped)} assertions skipped, "
                f"{sum(self.known.values())} known-defect verdicts, "
                f"{len(self.disagreements)} disagreements")


def prove(case: Case, provers: dict, config: str, sim: str, strategy: str):
    """One verdict, from a prover shared by every case on the design."""
    key = (id(case.design), config, sim, strategy)
    prover = provers.get(key)
    if prover is None:
        prover = provers[key] = Prover(case.design, strategy=strategy,
                                       **CONFIGS[config], **SIMULATION[sim])
    return prover, prover.prove(case.assertion, assumes=case.assumes)


def sweep(cases: list[Case], report: Report | None = None) -> Report:
    """Judge every strategy x simulation x configuration verdict on
    every case."""
    report = report if report is not None else Report()
    provers: dict[tuple, Prover] = {}
    for case in cases:
        try:
            ev = Evaluator(case.assertion, case.design.widths,
                           case.design.params)
            constraints = _constraints(case)
        except Unsupported as exc:
            report.skipped[case.name] = str(exc)
            continue
        try:
            truth = truth_of(case, ev, constraints)
            report.windows += truth.windows
        except Unsupported as exc:
            truth = None  # cex verdicts are still judged by replay
            report.skipped[case.name] = str(exc)
        for config, sim, strategy in itertools.product(
                CONFIGS, SIMULATION, Prover.STRATEGIES):
            prover, result = prove(case, provers, config, sim, strategy)
            problem = judge(case, ev, constraints, truth, result,
                            prover.max_bmc)
            if problem is not None:
                defect = known_defect(ev, truth, result, prover.max_bmc)
                if defect is not None:
                    report.known[case.name, defect] += 1
                    continue
                report.disagreements.append({
                    "case": case.name, "config": config, "sim": sim,
                    "strategy": strategy, "problem": problem,
                    "verdict": [result.status, result.engine, result.depth,
                                result.vacuous],
                    "assertion": unparse(case.assertion),
                    "witness": truth.violation if truth else None})
            elif result.status == "cex" or (result.status == "proven"
                                            and truth is not None):
                report.checked[result.status] += 1
                report.cells[case.family, strategy, result.status] += 1
    return report
