"""And-Inverter Graph (AIG) with structural hashing.

The formal engine's boolean layer.  Word-level expressions are bit-blasted
(:mod:`repro.formal.bitvec`) into AIG literals; property semantics
(:mod:`repro.formal.semantics`) compose those literals; the result is
Tseitin-converted to CNF and handed to the CDCL solver
(:mod:`repro.formal.sat`).

Literal encoding: literal ``2*n`` is node *n*, literal ``2*n+1`` is its
negation.  Node 0 is the constant TRUE, so ``TRUE == 0`` and ``FALSE == 1``.
"""

from __future__ import annotations

TRUE = 0
FALSE = 1


def neg(lit: int) -> int:
    """Negate an AIG literal."""
    return lit ^ 1


class AigOverflow(Exception):
    """Raised when construction exceeds the graph's ``max_nodes`` budget."""


class AIG:
    """Structurally hashed And-Inverter Graph.

    ``max_nodes`` (optional) bounds construction: exceeding it raises
    :class:`AigOverflow` from :meth:`and_`, so a caller probing whether a
    circuit bit-blasts small enough pays O(budget), not O(circuit).
    """

    def __init__(self, max_nodes: int | None = None) -> None:
        # fanins[n] = (a, b) literals for AND node n; inputs/const have None
        self._fanins: list[tuple[int, int] | None] = [None]  # node 0 = TRUE
        self._hash: dict[tuple[int, int], int] = {}
        self.num_inputs = 0
        self.max_nodes = max_nodes

    # -- construction --------------------------------------------------------

    def new_input(self) -> int:
        """Create a fresh primary input; returns its positive literal."""
        self._fanins.append(None)
        self.num_inputs += 1
        return (len(self._fanins) - 1) * 2

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with constant folding and structural hashing."""
        if a == FALSE or b == FALSE or a == neg(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        node = self._hash.get(key)
        if node is None:
            if (self.max_nodes is not None
                    and len(self._fanins) >= self.max_nodes):
                raise AigOverflow(f"AIG exceeds {self.max_nodes} nodes")
            self._fanins.append(key)
            node = len(self._fanins) - 1
            self._hash[key] = node
        return node * 2

    def and_2l(self, a: int, b: int) -> int:
        """AND with the two-level strash rules on top of :meth:`and_`.

        Looks one level into AND fanins for contradiction, containment,
        subsumption, substitution and resolution patterns (the O(1) subset
        of DAG-aware AIG rewriting).  Used by the pre-CNF :class:`Sweeper`;
        plain construction keeps :meth:`and_` so existing structures are
        untouched.
        """
        if a == FALSE or b == FALSE or a == neg(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        fa = self._fanins[a >> 1]
        fb = self._fanins[b >> 1]
        for x, other, fx in ((a, b, fa), (b, a, fb)):
            if fx is None:
                continue
            p, q = fx
            if not (x & 1):  # x = p & q
                if other in (p, q):
                    return x  # containment: (p&q) & p
                if neg(other) in (p, q):
                    return FALSE  # contradiction: (p&q) & !p
            else:  # x = !(p & q)
                if other in (neg(p), neg(q)):
                    return other  # subsumption: !(p&q) & !p == !p
                if other == p:
                    return self.and_2l(p, neg(q))  # substitution
                if other == q:
                    return self.and_2l(q, neg(p))
        if fa is not None and fb is not None:
            p, q = fa
            r, s = fb
            if not (a & 1) and not (b & 1):
                # contradiction across two positive ANDs: shared opposite part
                if (p == neg(r) or p == neg(s) or q == neg(r)
                        or q == neg(s)):
                    return FALSE
            elif (a & 1) and (b & 1):
                # resolution: !(p&q) & !(!p&q) == !q
                if p == neg(r) and q == s:
                    return neg(q)
                if p == neg(s) and q == r:
                    return neg(q)
                if q == neg(r) and p == s:
                    return neg(p)
                if q == neg(s) and p == r:
                    return neg(p)
            else:
                # positive AND implies a negative AND with an opposite part:
                # (p&q) & !(r&s) == p&q when p == !r (x true forces r false)
                pos, posf, negf = (a, fa, fb) if not (a & 1) else (b, fb, fa)
                p, q = posf
                r, s = negf
                if p == neg(r) or p == neg(s) or q == neg(r) or q == neg(s):
                    return pos
        return self.and_(a, b)

    # The derived gates below open with constant / identity early-outs.
    # Each returns exactly the literal the composition after it would
    # (``and_`` folds the same cases one call at a time), so they change
    # no structure -- they only stop zero-extended compares and muxes
    # from spending four calls per bit rediscovering FALSE == FALSE
    # (``tests/test_formal_aig.py`` pins literal identity).

    def or_(self, a: int, b: int) -> int:
        if a == TRUE or b == TRUE or a == b ^ 1:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE or a == b:
            return a
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == TRUE:
            return b ^ 1
        if b == TRUE:
            return a ^ 1
        if a >> 1 == b >> 1:
            return FALSE if a == b else TRUE
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def xnor_(self, a: int, b: int) -> int:
        return self.xor_(a, b) ^ 1

    def mux_(self, sel: int, if_true: int, if_false: int) -> int:
        """``sel ? if_true : if_false``."""
        if sel == TRUE:
            return if_true
        if sel == FALSE:
            return if_false
        if if_true == if_false and if_true in (TRUE, FALSE):
            return if_true
        return self.or_(self.and_(sel, if_true),
                        self.and_(sel ^ 1, if_false))

    def implies_(self, a: int, b: int) -> int:
        return self.or_(neg(a), b)

    def and_many(self, lits) -> int:
        out = TRUE
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits) -> int:
        out = FALSE
        for lit in lits:
            out = self.or_(out, lit)
        return out

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fanins)

    def fanin(self, node: int) -> tuple[int, int] | None:
        return self._fanins[node]

    def cone(self, roots: list[int]) -> list[int]:
        """Topologically ordered nodes in the transitive fanin of *roots*."""
        seen: set[int] = set()
        order: list[int] = []
        stack = [lit >> 1 for lit in roots]
        # iterative DFS with explicit post-order
        visit: list[tuple[int, bool]] = [(n, False) for n in stack]
        while visit:
            node, processed = visit.pop()
            if processed:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            visit.append((node, True))
            fi = self._fanins[node]
            if fi is not None:
                visit.append((fi[0] >> 1, False))
                visit.append((fi[1] >> 1, False))
        return order

    def simulate(self, input_values: dict[int, bool], lits: list[int]) -> list[bool]:
        """Evaluate *lits* under an assignment of input literals to booleans.

        ``input_values`` maps *positive input literals* to values.  Used for
        counterexample replay and for cross-checking the bit-blaster against
        the concrete interpreter.
        """
        values: dict[int, bool] = {0: True}
        for lit, val in input_values.items():
            values[lit >> 1] = bool(val)

        def node_value(node: int) -> bool:
            order = self.cone([node * 2])
            for n in order:
                if n in values:
                    continue
                fi = self._fanins[n]
                if fi is None:
                    values[n] = False  # unconstrained input defaults to 0
                    continue
                a, b = fi
                va = values[a >> 1] ^ bool(a & 1)
                vb = values[b >> 1] ^ bool(b & 1)
                values[n] = va and vb
            return values[node]

        return [node_value(lit >> 1) ^ bool(lit & 1) for lit in lits]


def implied_constants(aig: AIG, lits) -> dict[int, bool]:
    """Node constants implied by asserting every literal in *lits* true.

    Each literal pins its node; a node pinned *true* whose literal is a
    positive AND recursively pins both fanins (ternary propagation of the
    known values -- an X-valued input never blocks this, only enables it).
    Used to sweep a query target under the assumptions it is solved with.
    """
    known: dict[int, bool] = {}
    stack = list(lits)
    while stack:
        lit = stack.pop()
        node = lit >> 1
        value = not (lit & 1)
        if node == 0 or known.get(node) == value:
            continue
        known[node] = value
        if value:
            fi = aig._fanins[node]
            if fi is not None:
                stack.extend(fi)
    return known


class Sweeper:
    """Cone simplification: constant sweeping + two-level strash rewriting.

    Maps literals of an AIG onto simplified literals *in the same AIG*:
    the cone is rebuilt bottom-up through :meth:`AIG.and_2l`, which applies
    the classic two-level AND rules (contradiction, containment,
    subsumption, substitution, resolution) on top of the constructor's
    constant folding and structural hashing.  ``known`` seeds node
    constants (e.g. from :func:`implied_constants`); they propagate
    ternarily through the rebuild -- a node whose simplified value is
    determined by the constants collapses before CNF emission, so the
    :class:`CnfWriter` streams a smaller delta.

    The node map is memoized, so sweeping the growing query cones of an
    incremental proof (BMC depth by depth) touches each node once per
    sweeper.  Rewriting is semantics-preserving: each mapped literal is
    logically equivalent to its source given the ``known`` constants
    (``tests/test_formal_sweep.py`` checks this exhaustively).
    """

    def __init__(self, aig: AIG, known: dict[int, bool] | None = None):
        self.aig = aig
        self._map: dict[int, int] = {0: TRUE}
        if known:
            for node, value in known.items():
                self._map[node] = TRUE if value else FALSE

    def lit(self, lit: int) -> int:
        """Simplified literal equivalent to *lit* (under the known set)."""
        node = lit >> 1
        mapped = self._map.get(node)
        if mapped is None:
            self._sweep(node)
            mapped = self._map[node]
        return mapped ^ (lit & 1)

    def _sweep(self, root: int) -> None:
        aig = self.aig
        fanins = aig._fanins
        mapping = self._map
        visit: list[tuple[int, bool]] = [(root, False)]
        while visit:
            node, processed = visit.pop()
            if node in mapping:
                continue
            fi = fanins[node]
            if fi is None:
                mapping[node] = node * 2  # primary input: unchanged
                continue
            a, b = fi
            if processed:
                ma = mapping[a >> 1] ^ (a & 1)
                mb = mapping[b >> 1] ^ (b & 1)
                mapping[node] = aig.and_2l(ma, mb)
                continue
            visit.append((node, True))
            if a >> 1 not in mapping:
                visit.append((a >> 1, False))
            if b >> 1 not in mapping:
                visit.append((b >> 1, False))


class CnfWriter:
    """Incremental Tseitin encoder: AIG cones -> clauses in a live solver.

    Tracks which AIG nodes have already been clausified so that each
    :meth:`encode` call emits only the *delta* -- the not-yet-encoded part
    of the requested cones.  This is what lets one :class:`~.sat.Solver`
    instance accumulate the CNF of a growing unrolling (BMC frame by frame,
    k-induction step by step) instead of re-encoding the whole formula per
    depth (docs/engine.md, "Incremental sessions").

    The writer allocates solver variables on demand; ``node2var`` maps AIG
    node index -> solver variable for counterexample extraction.  Each
    delta is written in bulk -- one :meth:`~.sat.Solver.new_vars` and one
    :meth:`~.sat.Solver.add_and_gates` call -- leaving the solver exactly
    as one ``new_var`` per node and three ``add_clause`` per gate would
    (``tests/test_formal_cnf_bulk.py``).
    """

    def __init__(self, aig: AIG, solver) -> None:
        self.aig = aig
        self.solver = solver
        self.node2var: dict[int, int] = {}
        # nodes whose defining clauses have been emitted (inputs/constants
        # count once visited); a variable allocated via :meth:`lit` alone is
        # NOT clausified -- assumption literals must go through
        # :meth:`encode` before they constrain anything
        self._clausified: set[int] = set()
        # variable space mirror of the encoded circuit: entries 2v, 2v+1
        # hold the fanin variables of gate variable v (0, 0 for any other
        # variable); _stamp[v] == _epoch marks v visited by cone_vars
        self._fanin_vars: list[int] = [0, 0]
        self._stamp: list[int] = [0]
        self._epoch = 0

    def _pad(self) -> None:
        """Cover variables allocated outside :meth:`encode`'s numbering
        (by :meth:`lit`, or by anyone else holding the solver)."""
        short = 2 * (self.solver.nv + 1) - len(self._fanin_vars)
        if short > 0:
            self._fanin_vars += [0] * short

    def var_of(self, node: int) -> int:
        """Solver variable of an AIG node, allocating (and for constant
        TRUE, pinning) it on first use."""
        v = self.node2var.get(node)
        if v is None:
            v = self.solver.new_var()
            self.node2var[node] = v
            if node == 0:
                self.solver.add_clause([v])  # TRUE must be true
        return v

    def lit(self, lit: int) -> int:
        """DIMACS literal of an AIG literal (allocates the variable)."""
        v = self.var_of(lit >> 1)
        return -v if lit & 1 else v

    def encode(self, roots: list[int]) -> None:
        """Clausify the cones of *roots*, skipping already-encoded nodes.

        The walk numbers fresh nodes ``nv + 1, nv + 2, ...`` in the order
        a ``new_var`` per node would, then allocates them and adds the
        gates' clauses in one call each.
        """
        fanins = self.aig._fanins
        clausified = self._clausified
        node2var = self.node2var
        solver = self.solver
        self._pad()
        fanin_vars = self._fanin_vars
        nv = solver.nv
        gates: list[tuple[int, int, int]] = []
        # depth-first over the not-yet-encoded region only: a clausified
        # node has its whole cone clausified already
        visit: list[tuple[int, bool]] = [
            (lit >> 1, False) for lit in roots]
        while visit:
            node, processed = visit.pop()
            fi = fanins[node]
            if processed:
                a, b = fi
                va = node2var[a >> 1]
                vb = node2var[b >> 1]
                o = node2var.get(node)
                if o is None:
                    nv += 1
                    o = node2var[node] = nv
                    fanin_vars += (va, vb)
                else:  # allocated by lit() before it was encoded
                    fanin_vars[2 * o] = va
                    fanin_vars[2 * o + 1] = vb
                gates.append((o, -va if a & 1 else va, -vb if b & 1 else vb))
                continue
            if node in clausified:
                continue
            clausified.add(node)
            if fi is None:  # input or constant: variable only
                if node not in node2var:
                    if node:
                        nv += 1
                        node2var[node] = nv
                        fanin_vars += (0, 0)
                    else:
                        # constant TRUE, only ever a root (strash folds
                        # it out of every gate): pin it at this point
                        solver.new_vars(nv - solver.nv)
                        solver.add_and_gates(gates)
                        gates = []
                        self.var_of(0)
                        self._pad()
                        nv = solver.nv
                continue
            visit.append((node, True))
            visit.append((fi[0] >> 1, False))
            visit.append((fi[1] >> 1, False))
        solver.new_vars(nv - solver.nv)
        if gates:
            solver.add_and_gates(gates)

    def cone_vars(self, roots: list[int]) -> list[int]:
        """Solver variables of the whole (already :meth:`encode`-d) cones
        of *roots*, each once and in no particular order: the ``scope``
        of a scoped :meth:`~.sat.Solver.solve`, which sorts it.

        The set is closed under fanin and contains the roots, and the
        writer emits nothing but gate definitions, so as long as no
        other clause is added to the solver it meets the soundness
        condition of scoped solving: an assignment total on these
        variables extends to the rest of the circuit by evaluation.
        It equals ``{node2var[n] for n in aig.cone(roots)}``, walked in
        variable space: one stamp per visited variable, no set.
        """
        fanin_vars = self._fanin_vars
        stamp = self._stamp
        short = (len(fanin_vars) >> 1) - len(stamp)
        if short > 0:
            stamp += [0] * short
        self._epoch = epoch = self._epoch + 1
        node2var = self.node2var
        out = []
        for lit in roots:
            v = node2var[lit >> 1]
            if stamp[v] != epoch:
                stamp[v] = epoch
                out.append(v)
        # breadth-first: the loop also visits what it appends
        for v in out:
            a = fanin_vars[2 * v]
            if a:
                if stamp[a] != epoch:
                    stamp[a] = epoch
                    out.append(a)
                b = fanin_vars[2 * v + 1]
                if stamp[b] != epoch:
                    stamp[b] = epoch
                    out.append(b)
        return out
