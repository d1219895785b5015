"""Differential net for the bulk Tseitin writer.

:class:`~repro.formal.aig.CnfWriter` numbers a delta's nodes in one walk,
allocates them with one :meth:`~repro.formal.sat.Solver.new_vars` call and
adds the gates with one :meth:`~repro.formal.sat.Solver.add_and_gates`
call; :meth:`~repro.formal.aig.CnfWriter.cone_vars` walks a flat
fanin-variable list.  :class:`OracleWriter` below is the per-gate form
they replace: one ``new_var`` per node, three ``add_clause`` per gate,
scopes from ``AIG.cone``.

Hypothesis draws *programs* over one strashed AIG -- gates, encoded
deltas, early ``lit()`` allocations, level-0 units and scoped or plain
solves in between (so learned units exist when later deltas arrive and
the generic per-clause fallback runs) -- and replays each on both
writers, each with its own solver.  After every step the two solvers
must be in the same state (variables, ``node2var``, clause and watch
order, trail, heap, activities, ``ok``), and every solve must return the
same :class:`~repro.formal.sat.SatResult`.

A failing program is written, shrunk, to
``tests/regress/cnf_bulk_last_failure.json``; every
``tests/regress/cnf_bulk_*.json`` is replayed by
:func:`test_saved_regressions`.  Rename a file to keep it.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal.aig import AIG, TRUE, CnfWriter
from repro.formal.sat import Solver

REGRESS = Path(__file__).parent / "regress"
LAST_FAILURE = REGRESS / "cnf_bulk_last_failure.json"


class OracleWriter:
    """The writer one variable and one clause at a time."""

    def __init__(self, aig: AIG, solver: Solver) -> None:
        self.aig = aig
        self.solver = solver
        self.node2var: dict[int, int] = {}
        self._clausified: set[int] = set()

    def var_of(self, node: int) -> int:
        v = self.node2var.get(node)
        if v is None:
            v = self.solver.new_var()
            self.node2var[node] = v
            if node == 0:
                self.solver.add_clause([v])
        return v

    def lit(self, lit: int) -> int:
        v = self.var_of(lit >> 1)
        return -v if lit & 1 else v

    def encode(self, roots: list[int]) -> None:
        fanins = self.aig._fanins
        add = self.solver.add_clause
        visit = [(lit >> 1, False) for lit in roots]
        while visit:
            node, processed = visit.pop()
            fi = fanins[node]
            if processed:
                o = self.var_of(node)
                la = self.lit(fi[0])
                lb = self.lit(fi[1])
                add([-o, la])
                add([-o, lb])
                add([o, -la, -lb])
                continue
            if node in self._clausified:
                continue
            self._clausified.add(node)
            if fi is None:
                self.var_of(node)
                continue
            visit.append((node, True))
            visit.append((fi[0] >> 1, False))
            visit.append((fi[1] >> 1, False))

    def cone_vars(self, roots: list[int]) -> list[int]:
        return [self.node2var[n] for n in self.aig.cone(roots)]


def solver_state(solver: Solver) -> dict:
    """Everything a later call can read, clauses by literal tuple."""
    def clause(c):
        return tuple(c), c.learned, c.act

    return {
        "nv": solver.nv, "ok": solver.ok, "qhead": solver.qhead,
        "clauses": [clause(c) for c in solver.clauses],
        "learned": [clause(c) for c in solver.learned],
        "watches": [[clause(c) for c in wl] for wl in solver.watches],
        "assign": solver.assign, "level": solver.level,
        "reason": [None if r is None else tuple(r) for r in solver.reason],
        "trail": solver.trail, "trail_lim": solver.trail_lim,
        "heap": solver._heap, "heap_pos": solver._heap_pos,
        "scope_pos": solver._scope_pos, "seen": solver._seen,
        "activity": solver.activity, "phase": solver.phase,
        "var_inc": solver.var_inc, "cla_inc": solver.cla_inc,
    }


def operand(pool: list[int], op: int) -> int:
    """An AIG literal of the pool: entry ``op >> 1``, negated by bit 0."""
    return pool[(op >> 1) % len(pool)] ^ (op & 1)


def run_program(program: dict) -> dict:
    """Replay *program* on both writers; raises AssertionError on the
    first difference.  Returns how often the generic fallback of
    ``add_and_gates`` ran and whether a solver ended with ``ok`` false."""
    aig = AIG()
    pool = [TRUE] + [aig.new_input() for _ in range(program["inputs"])]
    bulk = CnfWriter(aig, Solver())
    oracle = OracleWriter(aig, Solver())
    fallback = [0]
    inside = [False]
    generic = bulk.solver._add_clause_internal
    add_gates = bulk.solver.add_and_gates

    def counting_generic(lits):
        fallback[0] += inside[0]
        generic(lits)

    def counting_gates(gates):
        inside[0] = True
        try:
            add_gates(gates)
        finally:
            inside[0] = False

    bulk.solver._add_clause_internal = counting_generic
    bulk.solver.add_and_gates = counting_gates

    for step in program["steps"]:
        kind = step[0]
        if kind == "and":
            pool.append(aig.and_(operand(pool, step[1]),
                                 operand(pool, step[2])))
            continue
        if kind == "encode":
            roots = [operand(pool, op) for op in step[1]]
            for writer in (bulk, oracle):
                writer.encode(roots)
        elif kind == "lit":
            for writer in (bulk, oracle):
                writer.lit(operand(pool, step[1]))
        elif kind == "unit":
            for writer in (bulk, oracle):
                writer.solver.add_clause(
                    [writer.lit(operand(pool, step[1]))])
        else:
            query = step[1]
            root = operand(pool, query["root"])
            results = []
            for writer in (bulk, oracle):
                writer.encode([root])
                scope = writer.cone_vars([root])
                assert len(set(scope)) == len(scope)
                assert set(scope) == {writer.node2var[n]
                                      for n in aig.cone([root])}
                first = [writer.node2var[lit >> 1]
                         for lit in (operand(pool, op)
                                     for op in query["first"])
                         if lit >> 1 in writer.node2var]
                results.append(writer.solver.solve(
                    [writer.lit(root)], max_conflicts=query["budget"],
                    scope=scope if query["scoped"] else None,
                    first=list(dict.fromkeys(first))
                    if query["scoped"] else ()))
            assert results[0] == results[1], (results, query)
        assert bulk.node2var == oracle.node2var, step
        assert solver_state(bulk.solver) == solver_state(oracle.solver), step
    return {"fallback": fallback[0], "unsat": not bulk.solver.ok}


def run_saving_failure(program: dict) -> dict:
    try:
        return run_program(program)
    except AssertionError:
        REGRESS.mkdir(exist_ok=True)
        LAST_FAILURE.write_text(json.dumps(program, indent=1) + "\n")
        raise


# -- strategies ----------------------------------------------------------------


@st.composite
def programs(draw) -> dict:
    """Rounds of fresh gates, each round's delta encoded (sometimes after
    an early ``lit()``, sometimes with a level-0 unit first) and then
    queried a few times."""
    inputs = draw(st.integers(1, 4))
    size = inputs + 1
    steps = []
    ops = st.integers(0, 4 * 64)
    for _ in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(1, 8))):
            steps.append(["and", draw(ops), draw(ops)])
            size += 1
        mark = st.integers(0, 2 * size - 1)
        if draw(st.booleans()):
            steps.append(["lit", draw(mark)])
        if draw(st.integers(0, 3)) == 0:
            steps.append(["unit", draw(mark)])
        steps.append(["encode", draw(st.lists(mark, min_size=1,
                                              max_size=3))])
        for _ in range(draw(st.integers(0, 3))):
            steps.append(["solve", {
                "root": draw(mark),
                "first": draw(st.lists(st.integers(2, 2 * inputs + 1),
                                       max_size=inputs)),
                "budget": draw(st.sampled_from([None, None, 1, 3])),
                "scoped": draw(st.booleans())}])
    return {"inputs": inputs, "steps": steps}


def seeded_program(rng: random.Random) -> dict:
    """A reconvergent circuit over three inputs, queried often: unsat
    queries leave learned units behind, so later deltas meet fixed
    fanins."""
    steps = []
    size = 4
    for _ in range(6):
        for _ in range(6):
            steps.append(["and", rng.randrange(2 * size),
                          rng.randrange(2 * size)])
            size += 1
        steps.append(["encode", [rng.randrange(2 * size)
                                 for _ in range(2)]])
        if rng.random() < 0.2:
            steps.append(["unit", rng.randrange(2, 2 * size)])
        for _ in range(4):
            steps.append(["solve", {
                "root": rng.randrange(2, 2 * size),
                "first": rng.sample(range(2, 8), 3),
                "budget": None, "scoped": rng.random() < 0.7}])
    return {"inputs": 3, "steps": steps}


# -- tests ---------------------------------------------------------------------


@given(programs())
@settings(max_examples=200, deadline=None)
def test_bulk_writer_matches_per_gate_writer(program):
    run_saving_failure(program)


def test_fallback_and_unsat_paths_are_exercised():
    """The net is only as strong as the paths it reaches: across these
    seeded programs the per-clause fallback runs and a database goes
    unsat (``ok`` false stops ``add_and_gates``)."""
    outcomes = [run_saving_failure(seeded_program(random.Random(seed)))
                for seed in range(30)]
    assert sum(o["fallback"] for o in outcomes) > 0
    assert any(o["unsat"] for o in outcomes)


def test_fixed_fanin_takes_the_generic_path():
    """An unsat query learns that a gate is false at level 0; a later
    gate over it is added clause by clause, and the unit it implies
    propagates before the next gate of the same delta is looked at."""
    # pool: 0 TRUE, 1 x, 2 y; operand 2*i (+1 negated) is pool entry i
    program = {"inputs": 2, "steps": [
        ["and", 3, 4],          # 3: h = ~x & y
        ["and", 2, 6],          # 4: g = x & h, unsatisfiable
        ["encode", [8]],
        ["solve", {"root": 8, "first": [], "budget": None,
                   "scoped": True}],  # learns ~g at level 0
        ["and", 8, 4],          # 5: k = g & y, g fixed: unit ~k
        ["and", 10, 2],         # 6: k & x, k fixed by that unit
        ["encode", [12]],
    ]}
    assert run_saving_failure(program)["fallback"] == 6


@given(st.integers(1, 30), st.lists(st.integers(1, 30), max_size=40),
       st.booleans(), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_new_vars_is_repeated_new_var(start, bumps, rescale, more):
    """After bumps -- and a forced 1e-100 rescale -- ``new_vars(n)``
    leaves the heap, positions and activities of *n* ``new_var`` calls."""
    one, bulk = Solver(), Solver()
    for _ in range(start):
        one.new_var()
    bulk.new_vars(start)
    for solver in (one, bulk):
        for v in bumps:
            solver._bump(1 + (v - 1) % start)
            solver.var_inc *= solver.var_decay
        if rescale:
            solver.var_inc = 1e101
            solver._bump(start)
    assert not rescale or one.var_inc < 1e3
    for _ in range(more):
        one.new_var()
    bulk.new_vars(more)
    assert solver_state(one) == solver_state(bulk)
    heap, act = bulk._heap, bulk.activity
    assert all(act[heap[(i - 1) >> 1]] >= act[heap[i]]
               for i in range(1, len(heap)))


@given(programs(), st.lists(st.integers(0, 4 * 64), min_size=1,
                            max_size=4))
@settings(max_examples=100, deadline=None)
def test_cone_vars_is_the_cone(program, picks):
    """``cone_vars`` of any encoded roots: each variable once, exactly
    the variables of ``AIG.cone``'s nodes."""
    aig = AIG()
    pool = [TRUE] + [aig.new_input() for _ in range(program["inputs"])]
    for step in program["steps"]:
        if step[0] == "and":
            pool.append(aig.and_(operand(pool, step[1]),
                                 operand(pool, step[2])))
    writer = CnfWriter(aig, Solver())
    roots = [operand(pool, op) for op in picks]
    writer.encode(pool[1:])
    writer.encode(roots)
    for _ in range(2):  # a second walk starts from a fresh epoch
        scope = writer.cone_vars(roots)
        assert len(set(scope)) == len(scope)
        assert set(scope) == {writer.node2var[n] for n in aig.cone(roots)}


@pytest.mark.parametrize(
    "path", sorted(REGRESS.glob("cnf_bulk_*.json")), ids=lambda p: p.stem)
def test_saved_regressions(path):
    run_program(json.loads(path.read_text()))
