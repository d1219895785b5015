"""Incremental CDCL SAT solver (conflict-driven clause learning).

Standard architecture: two-watched-literal propagation, 1-UIP conflict
analysis with clause learning, VSIDS activity ordering over an indexed
max-heap, phase saving, Luby restarts, and activity-driven learned-clause
database reduction.  This is the decision procedure underneath every formal
verdict in the repo: assertion equivalence checking, BMC and k-induction.

The solver is *incremental*: clauses may be added at any time between
``solve`` calls (``add_clause``), variables grow on demand, and repeated
``solve(assumptions=...)`` calls retain learned clauses, variable
activities and saved phases.  This is what lets the prover share one
solver instance across every depth of a BMC / k-induction run and across
the assertions proved on one design (docs/engine.md, "Incremental
sessions").  A *scoped* ``solve`` restricts decisions, the sat test and
the model to a caller-given variable set and can return the
lexicographically least model over chosen variables; shared equivalence
sessions make every query one such call (see :meth:`Solver.solve`).

Literals use DIMACS convention: variable ``v`` (1-based) appears as ``v`` or
``-v``.  Internally literals are mapped to ``2*v`` / ``2*v+1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

#: learned-clause DB reduction: first reduction threshold and growth factor
_REDUCE_BASE = 2000
_REDUCE_GROWTH = 1.3
#: heap position of a variable a scoped solve never decides
_OUT_OF_SCOPE = -2


def _iabs(x: int) -> int:
    return -x if x < 0 else x


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i + 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


@dataclass
class SatResult:
    """Outcome of a solve call, with per-call search statistics."""

    status: str  # 'sat' | 'unsat' | 'unknown'
    #: var -> value when sat (over the scope only, for a scoped solve)
    model: dict[int, bool] | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_db: int = 0  # learned-clause database size after the call
    restarts: int = 0
    #: why an 'unknown' call stopped: 'conflicts' (budget exhausted) or
    #: 'deadline' (wall-clock ``Solver.deadline_at`` passed); empty when
    #: decided
    limit: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class _Clause(list):
    """A problem clause is its literal list; the metadata is class-level,
    so building one is list's own constructor."""

    __slots__ = ()
    learned = False
    act = 0.0


class _Learned(_Clause):
    """A learned clause also carries the activity DB reduction ranks."""

    __slots__ = ("act",)
    learned = True


class Solver:
    """An incremental CDCL solver over a growable clause database."""

    def __init__(self, num_vars: int = 0,
                 clauses: list[list[int]] | None = None):
        self.nv = 0
        self.clauses: list[_Clause] = []        # problem clauses
        self.learned: list[_Clause] = []        # learned clauses
        self.watches: list[list[_Clause]] = [[], []]
        self.assign: list[int] = [-1]  # -1 unassigned, 0/1; index 0 unused
        self.level: list[int] = [0]
        self.reason: list[_Clause | None] = [None]
        self.trail: list[int] = []  # internal lits in assignment order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0]
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.cla_inc = 1.0
        self.cla_decay = 1.0 / 0.999
        self.phase: list[int] = [0]
        self.ok = True
        self.total_conflicts = 0
        self.total_decisions = 0
        self.total_propagations = 0
        self.propagations = 0  # running counter, snapshotted per solve call
        self._max_learned = _REDUCE_BASE
        #: absolute ``time.monotonic()`` wall-clock deadline, polled at
        #: every conflict, at every propagation boundary (the quiescent
        #: point before an assumption or decision extends the trail) and
        #: at restarts, so overrun is bounded by a single propagation
        #: pass; an expired call returns ``'unknown'`` with
        #: ``limit='deadline'`` and the solver stays fully usable
        self.deadline_at: float | None = None
        # indexed max-heap over variable activity; position -1 means
        # "not in the heap", _OUT_OF_SCOPE "never enters it"
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
        #: position list a scoped solve swaps in for ``_heap_pos``: all
        #: _OUT_OF_SCOPE between calls, so a call pays for its scope only
        self._scope_pos: list[int] = [_OUT_OF_SCOPE]
        self._seen: list[bool] = [False]  # conflict-analysis marks
        self.new_vars(num_vars)
        for c in clauses or ():
            self.add_clause(c)

    def stats(self) -> dict[str, int]:
        """Lifetime search statistics of this solver instance."""
        return {"vars": self.nv, "clauses": len(self.clauses),
                "learned_db": len(self.learned),
                "conflicts": self.total_conflicts,
                "decisions": self.total_decisions,
                "propagations": self.total_propagations}

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index.

        Initial activity decreases with the index so that activity ties
        break toward low (topologically earlier) variables -- CNF variables
        are allocated in AIG topological order, and deciding along that
        order maximizes propagation on easy satisfiable queries.
        """
        self.nv += 1
        v = self.nv
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(-1e-9 * v)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        self._heap_pos.append(-1)
        self._scope_pos.append(_OUT_OF_SCOPE)
        self._seen.append(False)
        self._heap_insert(v)
        return v

    def new_vars(self, n: int) -> None:
        """Allocate *n* fresh variables: the state of *n* :meth:`new_var`
        calls, built with list extends.

        Each :meth:`new_var` ends in a ``_heap_insert`` whose sift-up
        never moves the new variable, so appending is the same heap.
        Invariant: ``activity[u] >= -1e-9 * u`` for every variable ``u``
        -- it starts equal, bumps only add a positive ``var_inc``, and
        the 1e-100 rescale maps a negative value ``x`` to ``x * 1e-100
        >= x`` and keeps a positive one positive.  A fresh ``v`` starts
        at ``-1e-9 * v``, strictly below ``-1e-9 * u`` for every older
        ``u < v``, so every heap entry it could be compared with already
        satisfies ``_heap_up``'s stop test (``act[parent] >= act[v]``).
        """
        if n <= 0:
            return
        first = self.nv + 1
        self.nv += n
        new = range(first, first + n)
        self.assign += [-1] * n
        self.level += [0] * n
        self.reason += [None] * n
        self.activity += [-1e-9 * v for v in new]
        self.phase += [0] * n
        self.watches += [[] for _ in range(2 * n)]
        self._scope_pos += [_OUT_OF_SCOPE] * n
        self._seen += [False] * n
        heap = self._heap
        self._heap_pos += range(len(heap), len(heap) + n)
        heap += new

    def _ensure_vars(self, max_var: int) -> None:
        if max_var > self.nv:
            self.new_vars(max_var - self.nv)

    # -- literal helpers -----------------------------------------------------

    @staticmethod
    def _ilit(ext: int) -> int:
        v = _iabs(ext)
        return 2 * v + (1 if ext < 0 else 0)

    def _value(self, ilit: int) -> int:
        """-1 unassigned, 1 true, 0 false."""
        a = self.assign[ilit >> 1]
        if a < 0:
            return -1
        return a ^ (ilit & 1)

    # -- activity heap -------------------------------------------------------

    def _heap_insert(self, v: int) -> None:
        if self._heap_pos[v] != -1:  # already in, or out of scope
            return
        self._heap.append(v)
        self._heap_pos[v] = len(self._heap) - 1
        self._heap_up(len(self._heap) - 1)

    def _heap_up(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        act = self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_down(self, i: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        act = self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = (right if right < n and act[heap[right]] > act[heap[left]]
                     else left)
            cv = heap[child]
            if a >= act[cv]:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap = self._heap
        pos = self._heap_pos
        v = heap[0]
        last = heap.pop()
        pos[v] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_down(0)
        return v

    # -- clause database -----------------------------------------------------

    def add_clause(self, lits: list[int]) -> None:
        """Add a problem clause (external literals), any time at level 0."""
        if not self.ok:
            return
        if self.trail_lim:  # defensive: clause addition happens at level 0
            self._backtrack(0)
        mx = 0
        for x in lits:
            v = -x if x < 0 else x
            if v > mx:
                mx = v
        self._ensure_vars(mx)
        self._add_clause_internal([self._ilit(x) for x in lits])

    def add_and_gates(self, gates) -> None:
        """Add the Tseitin definition of ``o <-> a & b`` for each ``(o, a,
        b)`` triple of external literals, leaving exactly the state of
        ``add_clause([-o, a])``, ``add_clause([-o, b])``, ``add_clause([o,
        -a, -b])`` per triple, in order.

        The caller guarantees that the variables exist and that ``o``,
        ``a`` and ``b`` are three distinct variables.  The Tseitin writer
        (:class:`repro.formal.aig.CnfWriter`) meets that: ``AIG.and_``
        folds ``x & x``, ``x & ~x`` and constant fanins, so a gate's two
        fanins are distinct non-constant nodes, and ``o`` is the gate's
        own node, never one of its fanins.  The generic path's dedup and
        tautology scans therefore never fire on these clauses.  Its
        level-0 value check can, because a learned unit may have fixed a
        variable: a triple whose three variables are unassigned is
        written straight into ``clauses`` and ``watches`` (first two
        literals watched, as ``_add_clause_internal`` does), any other
        goes through the generic path clause by clause -- a unit it
        produces propagates before the next triple is looked at.
        """
        if not self.ok:
            return
        if self.trail_lim:  # defensive: clause addition happens at level 0
            self._backtrack(0)
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        for o, a, b in gates:
            o = o << 1 if o > 0 else (-o << 1) | 1
            a = a << 1 if a > 0 else (-a << 1) | 1
            b = b << 1 if b > 0 else (-b << 1) | 1
            if assign[o >> 1] < 0 and assign[a >> 1] < 0 \
                    and assign[b >> 1] < 0:
                no = o ^ 1
                na = a ^ 1
                clause = _Clause((no, a))
                clauses.append(clause)
                watches[no].append(clause)
                watches[a].append(clause)
                clause = _Clause((no, b))
                clauses.append(clause)
                watches[no].append(clause)
                watches[b].append(clause)
                clause = _Clause((o, na, b ^ 1))
                clauses.append(clause)
                watches[o].append(clause)
                watches[na].append(clause)
                continue
            for lits in ([o ^ 1, a], [o ^ 1, b], [o, a ^ 1, b ^ 1]):
                self._add_clause_internal(lits)
                if not self.ok:
                    return

    def _add_clause_internal(self, lits: list[int]) -> None:
        # de-duplicate, detect tautology, simplify against level-0 assignment
        seen = set()
        out = []
        for lit in lits:
            if lit ^ 1 in seen:
                return  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val == 1:
                return  # already satisfied at level 0
            if val == 0:
                continue  # already falsified at level 0; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if self._value(out[0]) == 0:
                self.ok = False
            elif self._value(out[0]) == -1:
                self._enqueue(out[0], None)
                if self._propagate() is not None:
                    self.ok = False
            return
        clause = _Clause(out)
        self.clauses.append(clause)
        self.watches[out[0]].append(clause)
        self.watches[out[1]].append(clause)

    def _learn_clause(self, lits: list[int]) -> _Clause:
        clause = _Learned(lits)
        clause.act = self.cla_inc
        self.learned.append(clause)
        self.watches[lits[0]].append(clause)
        self.watches[lits[1]].append(clause)
        return clause

    def _reduce_db(self) -> None:
        """Drop the low-activity half of the learned clauses (level 0 only).

        Binary clauses and clauses locked as a propagation reason survive;
        watch lists are filtered in one pass afterwards.
        """
        locked = set()
        for v in range(1, self.nv + 1):
            r = self.reason[v]
            if r is not None and self.assign[v] >= 0:
                locked.add(id(r))
        candidates = [c for c in self.learned
                      if len(c) > 2 and id(c) not in locked]
        if not candidates:
            return
        candidates.sort(key=lambda c: c.act)
        removed = {id(c) for c in candidates[:len(candidates) // 2]}
        if not removed:
            return
        self.learned = [c for c in self.learned if id(c) not in removed]
        for wl in self.watches:
            if wl:
                wl[:] = [c for c in wl if id(c) not in removed]

    # -- assignment / propagation ---------------------------------------------

    def _enqueue(self, ilit: int, reason: _Clause | None) -> None:
        v = ilit >> 1
        self.assign[v] = 0 if ilit & 1 else 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(ilit)

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns the conflicting clause or None."""
        trail = self.trail
        assign = self.assign
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        watches = self.watches
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            falsified = p ^ 1
            watchlist = watches[falsified]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                # ensure falsified literal is at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                a = assign[first >> 1]
                if a >= 0 and a ^ (first & 1) == 1:
                    watchlist[j] = clause
                    j += 1
                    continue
                # search replacement watch
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    ak = assign[lk >> 1]
                    if ak < 0 or ak ^ (lk & 1) != 0:
                        clause[1], clause[k] = lk, clause[1]
                        watches[lk].append(clause)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                watchlist[j] = clause
                j += 1
                if a >= 0:  # first is false: conflict
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    return clause
                self.propagations += 1
                # _enqueue(first, clause), inline
                v = first >> 1
                assign[v] = (first & 1) ^ 1
                level[v] = depth
                reason[v] = clause
                trail.append(first)
            del watchlist[j:]
        return None

    # -- conflict analysis -----------------------------------------------------

    def _analyze(self, confl: _Clause) -> tuple[list[int], int]:
        """1-UIP learning; returns (learned clause, backtrack level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        # persistent mark buffer: every current-level mark is cleared as
        # the trail walk consumes it, the rest are exactly learned[1:]
        seen = self._seen
        counter = 0
        p = -1
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            if confl.learned:
                self._bump_clause(confl)
            for lit in confl:
                if lit == p:
                    continue  # skip the literal this clause is the reason for
                v = lit >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(lit)
            # pick next literal from trail
            while not seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            index -= 1
            v = p >> 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
        learned[0] = p ^ 1
        for i in range(1, len(learned)):
            seen[learned[i] >> 1] = False
        if len(learned) == 1:
            return learned, 0
        # find second-highest level for backtracking
        max_i = 1
        for i in range(2, len(learned)):
            if self.level[learned[i] >> 1] > self.level[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[learned[1] >> 1]

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nv + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        if self._heap_pos[v] >= 0:
            self._heap_up(self._heap_pos[v])

    def _bump_clause(self, clause: _Clause) -> None:
        clause.act += self.cla_inc
        if clause.act > 1e20:
            for c in self.learned:
                c.act *= 1e-20
            self.cla_inc *= 1e-20

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        trail = self.trail
        phase = self.phase
        assign = self.assign
        reason = self.reason
        # a scoped solve has swapped in the scope's positions: most of
        # the trail is then out of scope and skips the insert call
        pos = self._heap_pos
        while len(trail_lim) > target_level:
            limit = trail_lim.pop()
            for i in range(len(trail) - 1, limit - 1, -1):
                v = trail[i] >> 1
                phase[v] = assign[v]
                assign[v] = -1
                reason[v] = None
                if pos[v] == -1:
                    self._heap_insert(v)
            del trail[limit:]
        self.qhead = min(self.qhead, len(trail))

    # -- main search -----------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None,
              max_conflicts: int | None = None, *,
              scope: list[int] | None = None,
              first: list[int] = ()) -> SatResult:
        """Solve under optional assumptions (external literal convention).

        ``max_conflicts`` bounds this call's search; exceeding it yields
        'unknown' (the prover maps that to an *undetermined* verdict, as a
        commercial tool does on timeout).  The solver always returns at
        decision level 0, so further ``add_clause`` / ``solve`` calls may
        follow; learned clauses, activities and phases are retained --
        which is exactly why restart-and-deepen (the portfolio re-solving
        an obligation with a larger ``max_conflicts``) is cheap.

        **Scoped mode** (``scope`` given: distinct existing variables).
        Only scope variables are ever decided -- VSIDS runs on a heap of
        the scope alone -- and the call answers ``sat`` as soon as every
        scope variable is assigned and propagation is quiescent;
        ``SatResult.model`` then covers the scope only.  The cost of a
        call is bounded by its scope, not by the clause database around
        it.  ``unsat`` and ``unknown`` mean what they mean unscoped
        (conflict analysis does not care which variables were decided).
        ``sat`` is sound under a condition the *caller* guarantees:

            every propagation-quiescent, conflict-free assignment that
            is total on ``scope`` extends to a model of all clauses.

        It holds when the database is nothing but Tseitin gate
        definitions (plus the unit pinning constant TRUE) of an acyclic
        circuit and ``scope`` is closed under fanin and contains the
        assumptions -- the contract of
        :meth:`repro.formal.aig.CnfWriter.cone_vars`.  Proof: a clause
        whose variables are all assigned and that raised no conflict is
        satisfied, so every gate definition inside the scope holds,
        i.e. the scope is assigned the way the circuit evaluates on its
        own inputs.  Set every input outside the scope to 0 and evaluate
        the remaining gates in topological order: every gate definition
        holds by construction and learned clauses are implied by the
        definitions.  A database holding any *other* permanent clause (a
        constraint over gate outputs, say) breaks the condition: such a
        solver must be solved unscoped.

        The scope is a set: the call sorts it by activity, so its list
        order is read only between equal activities.  Those start
        distinct (``-1e-9 * v``) and stay so until ``var_inc`` grows
        large enough to absorb that offset; even then a tie can reorder
        the search, never the verdict of a decided call or (below) a
        lex-first model.

        ``first`` (scoped mode only) lists scope variables, most
        significant first, whose value vector the returned model
        minimises lexicographically (entries outside the scope are
        dropped: they are never assigned by a decision).  Rule: while
        any ``first`` variable is unassigned, the lowest-index
        unassigned one is the next decision, at polarity 0; no other
        variable is decided before that.  Then the first model found is
        the lex-minimum.  Proof: look at the trail when ``sat`` is
        returned and at a ``first`` variable ``b_i`` that is 1 on it.
        No decision assigns 1 to a ``first`` variable, so ``b_i`` was
        propagated, at some level L.  Every decision at a level <= L was
        taken while ``b_i`` was unassigned, hence (by the rule) is an
        assumption or a 0-decision on some ``b_j`` with j < i.  Unit
        propagation is sound and learned clauses follow from the
        database alone, so the clauses, the assumptions and those
        ``b_j = 0`` together imply ``b_i = 1``.  Now let M' be any model
        of clauses + assumptions and i the first index where it differs
        from the returned M.  If M'[i] = 0 and M[i] = 1, then M' agrees
        with M on every j < i, in particular on the zeros that imply
        ``b_i = 1`` -- contradiction.  So M'[i] = 1 > M[i], and M is
        minimal.  The argument reads only the final trail: restarts,
        backjumps and whatever was learned on the way do not enter it.

        The unscoped search is untouched by all of this.  Activities
        bumped by a scoped call are not re-sifted in the global heap
        (only its heuristic order goes stale, never its contents); a
        session is expected to use one mode throughout.
        """
        if not self.ok:
            return SatResult("unsat")
        self._backtrack(0)
        assume = [self._ilit(a) for a in (assumptions or [])]
        for a in assume:
            self._ensure_vars(a >> 1)
        if scope is None:
            try:
                return self._search(assume, max_conflicts, None, ())
            finally:
                self._backtrack(0)
        # swap the decision order for a heap of the scope alone (a list
        # sorted by descending activity is a valid max-heap)
        pos = self._scope_pos
        order = sorted(scope, key=self.activity.__getitem__, reverse=True)
        for i, v in enumerate(order):
            pos[v] = i
        whole = self._heap, self._heap_pos
        self._heap, self._heap_pos = order, pos
        try:
            return self._search(
                assume, max_conflicts, scope,
                [v for v in first if pos[v] != _OUT_OF_SCOPE])
        finally:
            # the scope's heap is dropped, not refilled: the whole heap
            # was never popped, so it still holds every variable
            self._heap, self._heap_pos = whole
            self._backtrack(0)
            for v in scope:
                pos[v] = _OUT_OF_SCOPE

    def _search(self, assume: list[int], max_conflicts: int | None,
                scope: list[int] | None, first: list[int]) -> SatResult:
        """The CDCL loop of :meth:`solve` (internal assumption literals;
        ``self._heap`` already holds the variables to decide).  Returns
        with the trail as the search left it: the caller backtracks."""
        conflicts = 0
        decisions = 0
        restart_idx = 0
        restart_budget = 32 * _luby(0)
        props_start = self.propagations
        assume_pos = 0
        first_pos = 0  # every ``first`` entry before it is assigned
        counted = inside = 0  # scope variables among trail[:counted]

        def finish(status: str, model=None, limit: str = "") -> SatResult:
            propagations = self.propagations - props_start
            self.total_conflicts += conflicts
            self.total_decisions += decisions
            self.total_propagations += propagations
            return SatResult(status, model=model, conflicts=conflicts,
                             decisions=decisions, propagations=propagations,
                             learned_db=len(self.learned),
                             restarts=restart_idx, limit=limit)

        deadline = self.deadline_at
        if deadline is not None and monotonic() >= deadline:
            return finish("unknown", limit="deadline")
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return finish("unsat")
                learned, back = self._analyze(confl)
                self._backtrack(back)
                first_pos = counted = inside = 0
                # each assumption occupies one decision level; dropping below
                # an assumption level means it must be re-placed
                assume_pos = min(assume_pos, back)
                if len(learned) == 1:
                    val = self._value(learned[0])
                    if val == 0:
                        # the asserting literal is still false: it can only be
                        # falsified by level-0 facts or by an assumption
                        if len(self.trail_lim) == 0:
                            self.ok = False
                        return finish("unsat")
                    if val == -1:
                        self._enqueue(learned[0], None)
                else:
                    clause = self._learn_clause(learned)
                    self._enqueue(learned[0], clause)
                self.var_inc *= self.var_decay
                self.cla_inc *= self.cla_decay
                if max_conflicts is not None and conflicts >= max_conflicts:
                    return finish("unknown", limit="conflicts")
                if deadline is not None and monotonic() >= deadline:
                    return finish("unknown", limit="deadline")
                if conflicts >= restart_budget:
                    restart_idx += 1
                    restart_budget = conflicts + 32 * _luby(restart_idx)
                    self._backtrack(0)
                    assume_pos = 0
                    if len(self.learned) > self._max_learned:
                        self._reduce_db()
                        self._max_learned = int(
                            self._max_learned * _REDUCE_GROWTH)
                    # restart boundary: database reduction can be long,
                    # so a deadline that passed during it is honoured here
                    if deadline is not None and monotonic() >= deadline:
                        return finish("unknown", limit="deadline")
                continue

            # propagation boundary: the trail is quiescent and is about
            # to be extended by an assumption or decision -- the safe,
            # bounded-latency point to honour the deadline (the
            # assumption-placement loop below never conflicts or
            # decides, so without this poll a query with many assumption
            # levels could overrun the deadline indefinitely)
            if deadline is not None and monotonic() >= deadline:
                return finish("unknown", limit="deadline")

            # place assumptions as pseudo-decisions
            if assume_pos < len(assume):
                lit = assume[assume_pos]
                val = self._value(lit)
                if val == 0:
                    return finish("unsat")
                self.trail_lim.append(len(self.trail))
                assume_pos += 1
                if val == -1:
                    self._enqueue(lit, None)
                continue

            # lex-first variables come before any other decision, lowest
            # unassigned index first, always at 0 (see solve())
            assign = self.assign
            while first_pos < len(first) and assign[first[first_pos]] >= 0:
                first_pos += 1
            if first_pos < len(first):
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(2 * first[first_pos] + 1, None)
                continue

            if scope is not None:
                # scoped sat test: count the scope's variables on the
                # trail (from scratch after a backtrack) instead of
                # draining every propagated one through the heap
                trail = self.trail
                pos = self._heap_pos
                for i in range(counted, len(trail)):
                    if pos[trail[i] >> 1] != _OUT_OF_SCOPE:
                        inside += 1
                counted = len(trail)
                if inside == len(scope):
                    return finish("sat", model={
                        v: bool(assign[v]) for v in scope})

            # pick branching variable: max-activity unassigned var
            heap = self._heap
            best_v = 0
            while heap:
                v = self._heap_pop()
                if assign[v] < 0:
                    best_v = v
                    break
            if best_v == 0:
                return finish("sat", model={
                    v: bool(assign[v]) for v in range(1, self.nv + 1)})
            decisions += 1
            self.trail_lim.append(len(self.trail))
            # phase saving: re-try the variable's previous polarity
            self._enqueue(2 * best_v + (0 if self.phase[best_v] else 1), None)


def solve_cnf(num_vars: int, clauses: list[list[int]],
              assumptions: list[int] | None = None,
              max_conflicts: int | None = None,
              deadline_at: float | None = None) -> SatResult:
    """One-shot convenience wrapper around :class:`Solver`."""
    solver = Solver(num_vars, clauses)
    solver.deadline_at = deadline_at
    return solver.solve(assumptions, max_conflicts)
