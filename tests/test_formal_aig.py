"""Tests for the AIG layer."""

import itertools

from repro.formal.aig import AIG, FALSE, TRUE, neg


class TestConstruction:
    def test_constants(self):
        g = AIG()
        assert g.and_(TRUE, TRUE) == TRUE
        assert g.and_(TRUE, FALSE) == FALSE

    def test_idempotent(self):
        g = AIG()
        a = g.new_input()
        assert g.and_(a, a) == a

    def test_complement_annihilates(self):
        g = AIG()
        a = g.new_input()
        assert g.and_(a, neg(a)) == FALSE

    def test_structural_hashing(self):
        g = AIG()
        a, b = g.new_input(), g.new_input()
        assert g.and_(a, b) == g.and_(b, a)
        size = len(g)
        g.and_(a, b)
        assert len(g) == size

    def test_derived_gates_truth_tables(self):
        g = AIG()
        a, b, c = (g.new_input() for _ in range(3))
        xor = g.xor_(a, b)
        mux = g.mux_(c, a, b)
        for va, vb, vc in itertools.product([False, True], repeat=3):
            env = {a: va, b: vb, c: vc}
            got_xor, got_mux = g.simulate(env, [xor, mux])
            assert got_xor == (va ^ vb)
            assert got_mux == (va if vc else vb)


class TestDerivedGateEarlyOuts:
    """``or_``/``xor_``/``xnor_``/``mux_`` open with constant and
    identity early-outs; each must return the *identical literal* (and
    leave the identical graph) the plain ``and_`` composition does."""

    @staticmethod
    def _pool():
        g = AIG()
        x, y = g.new_input(), g.new_input()
        n = g.and_(x, y)
        return g, [TRUE, FALSE, x, neg(x), y, neg(y), n, neg(n)]

    @staticmethod
    def _or(g, a, b):
        return neg(g.and_(neg(a), neg(b)))

    @classmethod
    def _xor(cls, g, a, b):
        return cls._or(g, g.and_(a, neg(b)), g.and_(neg(a), b))

    @classmethod
    def _mux(cls, g, s, t, f):
        return cls._or(g, g.and_(s, t), g.and_(neg(s), f))

    def test_binary_gates_return_the_composed_literal(self):
        size = len(self._pool()[1])
        for i, j in itertools.product(range(size), repeat=2):
            for fast, composed in (
                    (AIG.or_, self._or), (AIG.xor_, self._xor),
                    (AIG.xnor_,
                     lambda g, a, b: neg(self._xor(g, a, b)))):
                g, pool = self._pool()
                ref, ref_pool = self._pool()
                assert fast(g, pool[i], pool[j]) \
                    == composed(ref, ref_pool[i], ref_pool[j]), (i, j)
                assert g._fanins == ref._fanins, (i, j)

    def test_mux_returns_the_composed_literal(self):
        size = len(self._pool()[1])
        for i, j, k in itertools.product(range(size), repeat=3):
            g, pool = self._pool()
            ref, ref_pool = self._pool()
            assert g.mux_(pool[i], pool[j], pool[k]) \
                == self._mux(ref, ref_pool[i], ref_pool[j], ref_pool[k]), \
                (i, j, k)
            assert g._fanins == ref._fanins, (i, j, k)

    def test_constant_operands_build_nothing(self):
        g, pool = self._pool()
        x = pool[2]
        size = len(g)
        assert g.xnor_(FALSE, FALSE) == TRUE
        assert g.mux_(x, FALSE, FALSE) == FALSE
        assert g.or_(x, FALSE) == x and g.xor_(TRUE, x) == neg(x)
        assert len(g) == size


class TestCnf:
    def _sat(self, g, lit):
        """Clausify *lit*'s cone the way proof sessions do and solve
        under it as the one assumption."""
        from repro.formal.aig import CnfWriter
        from repro.formal.sat import Solver
        if lit == TRUE:
            return True
        if lit == FALSE:
            return False
        writer = CnfWriter(g, Solver())
        writer.encode([lit])
        return writer.solver.solve([writer.lit(lit)]).is_sat

    def test_and_sat(self):
        g = AIG()
        a, b = g.new_input(), g.new_input()
        assert self._sat(g, g.and_(a, b))

    def test_contradiction_unsat(self):
        g = AIG()
        a, b = g.new_input(), g.new_input()
        f = g.and_(g.xor_(a, b), g.xnor_(a, b))
        assert not self._sat(g, f)

    def test_xor_equivalence_unsat(self):
        # (a & b) xor (b & a) must be UNSAT
        g = AIG()
        a, b = g.new_input(), g.new_input()
        assert not self._sat(g, g.xor_(g.and_(a, b), g.and_(b, a)))

    def test_cone_excludes_unrelated(self):
        g = AIG()
        a, b = g.new_input(), g.new_input()
        g.and_(a, b)  # unrelated node
        f = g.and_(a, a)
        cone = g.cone([f])
        assert (b >> 1) not in cone
