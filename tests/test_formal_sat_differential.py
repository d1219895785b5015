"""Generative differential net for the CDCL solver.

Hypothesis draws small *programs* -- an incremental clause stream
interleaved with solves in every mode -- and runs them on one
:class:`~repro.formal.sat.Solver` against brute force over all
assignments (at most 12 variables):

* ``cnf`` programs: arbitrary clauses, assumptions, conflict budgets;
  scoped solves take every variable as their scope (the one scope an
  arbitrary CNF admits), so status and the lex-first model are pinned
  while conflicts, backjumps and restarts-under-budget actually happen;
* ``circuit`` programs: the database is Tseitin gate definitions only
  and the scope is the fanin cone of the assumed root -- the contract of
  ``EquivSession``.  A scoped ``sat`` model must extend to a total
  model, a lex-first solve must return the brute-force lexicographic
  minimum over the listed bits, and scoped, unscoped and brute-force
  status must agree, with gates added between solves and the modes mixed
  on one solver instance.

A failing program is written, shrunk, to
``tests/regress/sat_differential_last_failure.json`` (hypothesis replays
the minimal example last, so that is what the file holds); every
``tests/regress/sat_*.json`` is replayed by
:func:`test_saved_regressions`.  Rename a file to keep it.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal.sat import _OUT_OF_SCOPE, Solver

REGRESS = Path(__file__).parent / "regress"
LAST_FAILURE = REGRESS / "sat_differential_last_failure.json"
MAX_VARS = 12


# -- brute force ---------------------------------------------------------------


def bit(model: int, var: int) -> int:
    return (model >> var) & 1


def holds(model: int, lit: int) -> bool:
    return bit(model, abs(lit)) == (lit > 0)


def satisfying(models: list[int], clause: list[int]) -> list[int]:
    """The bitmask models (bit v = variable v) that satisfy *clause*."""
    return [m for m in models if any(holds(m, lit) for lit in clause)]


# -- running a program ---------------------------------------------------------


def cone(fanins: dict[int, tuple[int, int]], root: int) -> list[int]:
    seen = {root}
    stack = [root]
    while stack:
        for lit in fanins.get(stack.pop(), ()):
            if abs(lit) not in seen:
                seen.add(abs(lit))
                stack.append(abs(lit))
    return sorted(seen)


def check_quiescent(solver: Solver) -> None:
    """What every solve must leave behind, whatever its mode."""
    assert not solver.trail_lim
    assert solver._heap_pos is not solver._scope_pos
    assert all(p == _OUT_OF_SCOPE for p in solver._scope_pos)
    assert not any(solver._seen)
    assert all(solver._heap_pos[v] >= 0 for v in range(1, solver.nv + 1)
               if solver.assign[v] < 0)


def run_program(program: dict) -> None:
    """Replay *program*; raises AssertionError where the solver and
    brute force disagree."""
    nv = program["nv"]
    solver = Solver(nv)
    fanins: dict[int, tuple[int, int]] = {}
    models = list(range(0, 1 << (nv + 1), 2))  # of the clauses so far
    for step in program["steps"]:
        if step[0] == "add":
            solver.add_clause(step[1])
            models = satisfying(models, step[1])
            continue
        if step[0] == "gate":
            out, a, b = step[1:]
            fanins[out] = (a, b)
            for clause in ([-out, a], [-out, b], [out, -a, -b]):
                solver.add_clause(clause)
                models = satisfying(models, clause)
            continue
        query = step[1]
        assume = query["assume"]
        expected = [m for m in models if all(holds(m, a) for a in assume)]
        kwargs = {}
        if query["mode"] != "plain":
            kwargs["scope"] = (
                cone(fanins, abs(assume[0])) if program["kind"] == "circuit"
                else list(range(1, nv + 1)))
        if query["mode"] == "lex":
            kwargs["first"] = query["first"]
        result = solver.solve(assume, max_conflicts=query["budget"],
                              **kwargs)
        check_quiescent(solver)
        if query["budget"] is not None:
            assert result.conflicts <= query["budget"]
        if result.status == "unknown":
            assert query["budget"] is not None
            assert result.limit == "conflicts"
            continue
        assert result.is_sat == bool(expected), (result.status, query)
        if not result.is_sat:
            continue
        scope = kwargs.get("scope", list(range(1, nv + 1)))
        assert sorted(result.model) == sorted(scope)
        # the (partial) model extends to a total model of everything
        extensions = [m for m in expected
                      if all(bit(m, v) == result.model[v] for v in scope)]
        assert extensions, (result.model, query)
        if query["mode"] == "lex":
            first = [v for v in query["first"] if v in result.model]
            got = [int(result.model[v]) for v in first]
            assert got == min([bit(m, v) for v in first] for m in expected)


def run_saving_failure(program: dict) -> None:
    try:
        run_program(program)
    except AssertionError:
        REGRESS.mkdir(exist_ok=True)
        LAST_FAILURE.write_text(json.dumps(program, indent=1) + "\n")
        raise


# -- strategies ----------------------------------------------------------------


def literals(draw, nv: int, size: int) -> list[int]:
    variables = draw(st.lists(st.integers(1, nv), min_size=size,
                              max_size=size, unique=True))
    return [v * draw(st.sampled_from([1, -1])) for v in variables]


def query(draw, assume: list[int], candidates: list[int]) -> list:
    return ["solve", {
        "assume": assume,
        "budget": draw(st.sampled_from([None, None, 1, 2, 5])),
        "mode": draw(st.sampled_from(["plain", "scoped", "lex"])),
        "first": draw(st.lists(st.sampled_from(candidates), unique=True,
                               max_size=len(candidates))),
    }]


@st.composite
def cnf_programs(draw) -> dict:
    """Clause rounds that walk a (mostly 3-literal) formula up to and
    past the satisfiability threshold, a solve after each."""
    nv = draw(st.integers(3, MAX_VARS))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(0, 2 * nv))):
            steps.append(["add", literals(
                draw, nv, draw(st.sampled_from([2, 3, 3, 3])))])
        assume = literals(draw, nv, draw(st.integers(0, 2)))
        steps.append(query(draw, assume, list(range(1, nv + 1))))
    return {"kind": "cnf", "nv": nv, "steps": steps}


@st.composite
def circuit_programs(draw) -> dict:
    """Gate rounds over a few inputs (reconvergence is what makes a
    cone conflict), a solve of one root after each."""
    inputs = draw(st.integers(1, 5))
    nv = draw(st.integers(inputs + 1, MAX_VARS))
    steps = []
    built = inputs
    while built < nv:
        for _ in range(draw(st.integers(1, nv - built))):
            built += 1
            steps.append(["gate", built, *(
                draw(st.integers(1, built - 1))
                * draw(st.sampled_from([1, -1])) for _ in range(2))])
        root = draw(st.integers(1, built)) * draw(st.sampled_from([1, -1]))
        steps.append(query(draw, [root], list(range(1, built + 1))))
    return {"kind": "circuit", "nv": nv, "steps": steps}


# -- tests ---------------------------------------------------------------------


@given(cnf_programs())
@settings(max_examples=150, deadline=None)
def test_cnf_programs_match_brute_force(program):
    run_saving_failure(program)


@given(circuit_programs())
@settings(max_examples=250, deadline=None)
def test_circuit_programs_match_brute_force(program):
    run_saving_failure(program)


@pytest.mark.parametrize("seed", range(40))
def test_threshold_programs_match_brute_force(seed):
    """Hypothesis favours small draws, which seldom conflict; these
    seeded programs sit at the 3-SAT threshold (12 variables, ~4
    clauses per variable at the end), where a sat answer usually comes
    after conflicts and backjumps -- in every mode."""
    rng = random.Random(seed)
    variables = list(range(1, MAX_VARS + 1))

    def lits(k):
        return [v * rng.choice([1, -1]) for v in rng.sample(variables, k)]

    steps = []
    for _ in range(3):
        steps += [["add", lits(3)] for _ in range(rng.randint(14, 17))]
        for mode in ("plain", "scoped", "lex"):
            steps.append(["solve", {
                "assume": lits(rng.randint(0, 1)),
                "budget": rng.choice([None, None, None, 3]),
                "mode": mode,
                "first": rng.sample(variables, rng.randint(1, MAX_VARS))}])
    run_saving_failure({"kind": "cnf", "nv": MAX_VARS, "steps": steps})


@pytest.mark.parametrize(
    "path", sorted(REGRESS.glob("sat_*.json")), ids=lambda p: p.stem)
def test_saved_regressions(path):
    run_program(json.loads(path.read_text()))
