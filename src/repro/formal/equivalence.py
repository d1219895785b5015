"""Formal assertion-to-assertion equivalence and implication checking.

Reproduces the role of the paper's custom JasperGold app: given a
model-generated assertion and the human-written reference, decide whether
they are logically **equivalent** over all signal traces, and if not, whether
one **implies** the other (the paper's *partial equivalence* tier).

Method: both assertions are encoded under the bounded trace semantics of
:mod:`repro.formal.semantics` with every (signal, cycle) pair a free SAT
variable; the miter ``P xor Q`` (resp. ``P and not Q``) is Tseitin-converted
and dispatched to the CDCL solver.  Verdicts are computed at one horizon,
:func:`default_horizon` (docs/architecture.md decision 1); the equivalence
oracle (``tests/oracle/equiv.py``) enumerates every trace of small pairs
and referees them, and ``benchmarks/test_ablation_horizon.py`` holds a
second, longer horizon to the same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..sva.ast_nodes import Assertion
from ..sva.parser import ParseError, parse_assertion
from .aig import AIG, FALSE, TRUE, CnfWriter, Sweeper, neg
from .bitvec import FreeSignalSource
from .sat import Solver
from .semantics import EncodingError, PropertyEncoder, horizon_of

MAX_HORIZON = 40
DEFAULT_MAX_CONFLICTS = 400_000


class Verdict(Enum):
    """Outcome of comparing a candidate assertion against a reference."""

    EQUIVALENT = "equivalent"
    CANDIDATE_IMPLIES_REF = "candidate_implies_ref"
    REF_IMPLIES_CANDIDATE = "ref_implies_candidate"
    INEQUIVALENT = "inequivalent"
    UNDETERMINED = "undetermined"
    ENCODING_ERROR = "encoding_error"

    @property
    def is_full(self) -> bool:
        return self is Verdict.EQUIVALENT

    @property
    def is_partial(self) -> bool:
        """Paper's relaxed metric: full equivalence or either implication."""
        return self in (Verdict.EQUIVALENT, Verdict.CANDIDATE_IMPLIES_REF,
                        Verdict.REF_IMPLIES_CANDIDATE)


@dataclass
class EquivalenceResult:
    verdict: Verdict
    horizons: tuple[int, ...] = ()
    counterexample: dict[str, list[int]] | None = None
    #: index of cycle 0 within the counterexample series ($past/$rose
    #: prehistory occupies indices [0, cex_offset))
    cex_offset: int = 0
    detail: str = ""
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def is_full(self) -> bool:
        return self.verdict.is_full

    @property
    def is_partial(self) -> bool:
        return self.verdict.is_partial


def default_horizon(*assertions: Assertion) -> int:
    """The horizon a verdict is computed at: two cycles past the
    longest look-ahead of *assertions*, at least 4, at most
    :data:`MAX_HORIZON`."""
    reach = max(horizon_of(a) for a in assertions)
    return min(max(reach + 2, 4), MAX_HORIZON)


def _coerce(assertion: Assertion | str,
            params: dict[str, int] | None) -> Assertion:
    if isinstance(assertion, Assertion):
        return assertion
    return parse_assertion(assertion, params=params)


def _clocks_compatible(a: Assertion, b: Assertion) -> bool:
    if a.clocking is None or b.clocking is None:
        return True  # unclocked side adopts the other's clock
    from ..sva.unparse import unparse
    ea = a.clocking.edge or "posedge"
    eb = b.clocking.edge or "posedge"
    return ea == eb and unparse(a.clocking.signal) == unparse(b.clocking.signal)


class EquivSession:
    """One incremental equivalence session: a reference cone at a fixed
    horizon, shared across many candidate assertions.

    The AIG, :class:`~.bitvec.FreeSignalSource`, :class:`CnfWriter` and CDCL
    solver are built once and the reference assertion is encoded once; each
    :meth:`check` Tseitin-streams only the candidate's delta and activates
    the miter/implication queries as assumption literals, so learned clauses
    over the (heavily reconvergent) reference cone carry from candidate to
    candidate.

    Every query is exactly one *scoped* solve
    (:meth:`~.sat.Solver.solve`): decisions, the sat test and the model
    stop at the Tseitin cone of the query literal
    (:meth:`~.aig.CnfWriter.cone_vars`), so a query costs its own cone,
    not the cones of every candidate the session served before.  That is
    sound here because this solver holds nothing but the writer's gate
    definitions -- the queries themselves are assumptions -- so an
    assignment total on a cone extends by evaluation to a total model
    (the argument is in ``Solver.solve``).  Counterexamples are
    canonical: the cone's witness bits are decided first, in sorted
    ``(name, cycle, bit)`` order, at 0, which makes the first model the
    lexicographic minimum -- a function of the formula alone,
    byte-identical whether the session served one candidate or a
    hundred.  ``tests/test_equiv_sharing.py`` keeps the old
    assumption-prefix minimiser (one complete solve per 1-bit) as the
    oracle for that.

    :class:`~.prover.ProofSession` is *not* on the scoped path.  Its
    solver also holds only gate definitions, but its queries are
    conjunctions of several assumption literals (environment,
    ``holds(0..k-1)``, negated target) and ``extract_cex`` reads every
    input of every frame out of a total model: scoping it would change
    which don't-care inputs a counterexample reports, i.e. prover
    records, and needs its own parity argument and measurement
    (ROADMAP, Engine II).
    """

    def __init__(self, ref: Assertion, horizon: int,
                 widths: dict[str, int], default_width: int,
                 params: dict[str, int] | None):
        self.aig = AIG()
        self.source = FreeSignalSource(self.aig, widths, default_width)
        self.encoder = PropertyEncoder(self.aig, self.source, horizon, params)
        ref_keys: set[tuple[str, int]] = set()
        self.source._touched = ref_keys
        try:
            self.ref_lit = self.encoder.encode_assertion(ref)
        finally:
            self.source._touched = None
        self.ref_keys = ref_keys
        self.horizon = horizon
        self.candidates = 0
        self.solver = Solver()
        self.writer = CnfWriter(self.aig, self.solver)
        self.sweeper = Sweeper(self.aig)

    def check(self, cand: Assertion, max_conflicts: int):
        """Run the miter + both implications for one candidate.

        Returns ``(verdict, cex_or_None, stats_delta)`` where the
        counterexample (when present) is the canonical minimal witness over
        exactly the (signal, cycle) keys the reference and this candidate's
        cones touch -- other candidates sharing the session never leak keys
        into the trace.
        """
        stats = {"conflicts": 0, "decisions": 0, "propagations": 0}
        touched: set[tuple[str, int]] = set()
        self.source._touched = touched
        # the encoder memoises sampled expressions and ``disable iff``
        # chains by node identity, and a hit reads no signal: every
        # candidate starts cold, or one whose AST object was encoded
        # before (parsed ASTs are shared) would record none of its keys
        # and truncate its witness
        self.encoder.forget()
        try:
            cand_lit = self.encoder.encode_assertion(cand)
        finally:
            self.source._touched = None
        self.candidates += 1
        keys = self.ref_keys | touched
        g = self.aig
        miter = g.xor_(self.ref_lit, cand_lit)
        status, cex = self._query(miter, max_conflicts, stats, keys)
        if status == "unsat":
            return Verdict.EQUIVALENT, None, stats
        if status == "unknown":
            return Verdict.UNDETERMINED, None, stats
        # not equivalent; check each implication direction (their witnesses
        # are discarded, so skip minimization for them)
        cand_not_ref = g.and_(cand_lit, neg(self.ref_lit))
        s1, _ = self._query(cand_not_ref, max_conflicts, stats)
        if s1 == "unsat":
            return Verdict.CANDIDATE_IMPLIES_REF, cex, stats
        ref_not_cand = g.and_(self.ref_lit, neg(cand_lit))
        s2, _ = self._query(ref_not_cand, max_conflicts, stats)
        if s2 == "unsat":
            return Verdict.REF_IMPLIES_CANDIDATE, cex, stats
        if s1 == "unknown" or s2 == "unknown":
            return Verdict.UNDETERMINED, cex, stats
        return Verdict.INEQUIVALENT, cex, stats

    def _query(self, lit: int, max_conflicts: int, stats: dict,
               keys: set | None = None):
        """Solve satisfiability of an AIG literal in one budgeted, scoped
        solve; returns (status, witness).

        A witness trace -- the lex-minimal one over *keys* -- is
        extracted only when *keys* is given.
        """
        # pre-CNF sweep: the miter/implication cones of two near-identical
        # assertions collapse heavily under the two-level rules, so the
        # writer streams a much smaller delta (a swept constant decides
        # the query without touching the solver)
        lit = self.sweeper.lit(lit)
        if lit == TRUE:
            if keys is None:
                return "sat", None
            # every assignment satisfies the query, so the all-zeros trace
            # over the touched window is its (lex-minimal) model -- a
            # concrete counterexample, never a vacuous ``{}``
            return "sat", self._build_trace(keys, {})
        if lit == FALSE:
            return "unsat", None
        self.writer.encode([lit])
        scope = self.writer.cone_vars([lit])
        bits = self._witness_bits(keys) if keys is not None else {}
        result = self.solver.solve([self.writer.lit(lit)],
                                   max_conflicts=max_conflicts,
                                   scope=scope, first=list(bits))
        stats["conflicts"] += result.conflicts
        stats["decisions"] += result.decisions
        stats["propagations"] += result.propagations
        if result.is_sat:
            if keys is None:
                return "sat", None
            # a bit outside the query's cone is absent from the model:
            # the query does not constrain it, its lex-min value is 0
            model = result.model
            values = {bit: True for var, bit in bits.items()
                      if model.get(var)}
            return "sat", self._build_trace(keys, values)
        if result.is_unsat:
            return "unsat", None
        return "unknown", None

    def _witness_bits(self, keys: set) -> dict[int, tuple[str, int, int]]:
        """Solver variable -> ``(name, cycle, bit)`` for every encoded
        input bit of *keys*, in the canonical witness order (sorted by
        that triple).  An input no cone ever reached has no variable."""
        node2var = self.writer.node2var
        bits = {}
        for name, t in sorted(keys):
            lits, _w = self.source.read(name, t)
            for i, lit in enumerate(lits):
                var = node2var.get(lit >> 1)
                if var is not None:
                    bits[var] = (name, t, i)
        return bits

    def _build_trace(self, keys: set, values: dict):
        """Returns (trace, offset): series are indexed from cycle
        ``-offset`` so that $past/$rose prehistory is preserved."""
        times: dict[str, dict[int, int]] = {}
        for name, t in sorted(keys):
            width = self.source.width(name)
            value = 0
            for i in range(width):
                if values.get((name, t, i)):
                    value |= 1 << i
            times.setdefault(name, {})[t] = value
        if not times:
            return {}, 0
        lo = min((min(by_t) for by_t in times.values()), default=0)
        lo = min(lo, 0)
        hi = max((max(by_t) for by_t in times.values()), default=0)
        trace = {name: [by_t.get(t, 0) for t in range(lo, hi + 1)]
                 for name, by_t in times.items()}
        return trace, -lo


class EquivChecker:
    """Shared-reference equivalence checking: one :class:`EquivSession` per
    horizon, reused across every candidate compared against *reference*.

    The service pools one checker per (reference, widths, params, engine)
    routing signature; a throwaway checker (built by
    :func:`check_equivalence` when none is passed) is the isolated oracle --
    same code path, fresh sessions, so shared-vs-isolated parity reduces to
    the canonical-witness argument on :class:`EquivSession`.
    """

    def __init__(self, reference: Assertion | str,
                 signal_widths: dict[str, int] | None = None,
                 params: dict[str, int] | None = None,
                 default_width: int = 1,
                 max_candidates: int = 256):
        try:
            self.ref = _coerce(reference, params)
        except ParseError as exc:
            raise ValueError(
                f"reference assertion does not parse: {exc}") from exc
        self.widths = dict(signal_widths or {})
        self.params = params
        self.default_width = default_width
        #: rebuild a session after this many candidates so the learned-clause
        #: database and AIG of a very hot reference cannot grow unboundedly
        self.max_candidates = max_candidates
        self._sessions: dict[int, EquivSession] = {}
        self.sessions_built = 0
        self.candidates = 0

    def _session(self, horizon: int) -> EquivSession:
        session = self._sessions.get(horizon)
        if session is None or session.candidates >= self.max_candidates:
            session = EquivSession(self.ref, horizon, self.widths,
                                   self.default_width, self.params)
            self._sessions[horizon] = session
            self.sessions_built += 1
        return session

    def check(self, candidate: Assertion | str,
              horizons: tuple[int, ...] | None = None,
              max_conflicts: int = DEFAULT_MAX_CONFLICTS
              ) -> EquivalenceResult:
        try:
            cand = _coerce(candidate, self.params)
        except ParseError as exc:
            return EquivalenceResult(Verdict.ENCODING_ERROR,
                                     detail=f"candidate parse error: {exc}")

        if not _clocks_compatible(self.ref, cand):
            return EquivalenceResult(Verdict.INEQUIVALENT,
                                     detail="clocking events differ")

        if horizons is None:
            horizons = (default_horizon(self.ref, cand),)

        built0 = self.sessions_built
        cex, cex_offset = None, 0
        stats = {"conflicts": 0, "decisions": 0, "propagations": 0,
                 "sessions": 0}
        try:
            for K in horizons:
                session = self._session(K)
                verdict, c, delta = session.check(cand, max_conflicts)
                for name, count in delta.items():
                    stats[name] += count
                if c is not None:
                    cex, cex_offset = c
        except EncodingError as exc:
            return EquivalenceResult(Verdict.ENCODING_ERROR, detail=str(exc))

        stats["sessions"] = self.sessions_built - built0
        self.candidates += 1
        return EquivalenceResult(verdict, horizons=tuple(horizons),
                                 counterexample=cex, cex_offset=cex_offset,
                                 stats=stats)


def check_equivalence(
    reference: Assertion | str,
    candidate: Assertion | str,
    signal_widths: dict[str, int] | None = None,
    params: dict[str, int] | None = None,
    default_width: int = 1,
    horizons: tuple[int, ...] | None = None,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
    checker: EquivChecker | None = None,
) -> EquivalenceResult:
    """Compare *candidate* against *reference* over all bounded traces.

    Returns an :class:`EquivalenceResult` whose verdict distinguishes full
    equivalence, one-directional implication (the paper's partial credit),
    and inequivalence.  Parse or encoding failures on the candidate yield
    ``ENCODING_ERROR`` (the evaluation harness scores those as functional
    failures; the *syntax* metric is computed separately).

    When *checker* is given its sessions are reused and the
    reference/widths/params arguments are ignored -- the caller (the
    service's equivalence-group scheduler) guarantees they match the
    checker's; otherwise a throwaway :class:`EquivChecker` runs the same
    code on fresh sessions (the isolated oracle).
    """
    if checker is None:
        checker = EquivChecker(reference, signal_widths, params,
                               default_width)
    return checker.check(candidate, horizons=horizons,
                         max_conflicts=max_conflicts)


def is_tautology(assertion: Assertion | str,
                 signal_widths: dict[str, int] | None = None,
                 params: dict[str, int] | None = None,
                 default_width: int = 1,
                 horizon: int | None = None) -> bool:
    """True iff the assertion holds on *every* trace (vacuously strong check
    used by diagnostics and the NL2SVA-Machine critic)."""
    a = _coerce(assertion, params)
    K = horizon if horizon is not None else default_horizon(a)
    aig = AIG()
    source = FreeSignalSource(aig, dict(signal_widths or {}), default_width)
    encoder = PropertyEncoder(aig, source, K, params)
    lit = Sweeper(aig).lit(encoder.encode_assertion(a))
    if lit == TRUE:
        return True
    if lit == FALSE:
        return False
    solver = Solver()
    writer = CnfWriter(aig, solver)
    writer.encode([neg(lit)])
    return solver.solve([writer.lit(neg(lit))]).is_unsat
