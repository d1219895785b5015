"""Model checking: prove or refute an assertion on an elaborated design.

Replaces JasperGold's proof engines in the Design2SVA evaluation flow.
The public entry point is :class:`Prover` (or the one-shot
:func:`prove_assertion` wrapper)::

    from repro.formal import Prover
    from repro.rtl import elaborate
    from repro.sva import parse_assertion

    design = elaborate(source)
    prover = Prover(design)                     # reuse across assertions
    result = prover.prove(parse_assertion(text))
    result.status                               # 'proven' | 'cex' | ...

Pipeline:

1. **COI reduction** -- prune the design to the assertion's cone
   (:mod:`repro.formal.coi`);
2. **simulation-first falsification** -- random concrete traces replayed
   through the property encoding (cheap counterexamples);
3. **BMC** -- SAT search for a violating attempt reachable from the
   post-reset initial state, up to a bounded depth;
4. **k-induction** -- prove: if no violation is reachable in ``k`` steps and
   any ``k`` consecutive satisfied attempts force the next one, the property
   holds at all depths.

Both bounded engines run on a **persistent incremental pipeline**
(docs/engine.md, "Incremental sessions"): one AIG +
unrolling + SAT solver per (design cone, init mode) is shared across every
depth of a proof and across the assertions proved on one design.  Per-depth
violation targets and per-step induction obligations are activated through
solver *assumptions*, so learned clauses about the transition relation are
retained between queries instead of being recomputed.  The pre-refactor
one-shot path is kept (``use_incremental=False``) as a differential oracle.

How the bounded engines are *scheduled* is the ``strategy``
configuration: ``auto`` (sequential, the reference), ``bmc`` / ``kind``
(single engine), or ``portfolio`` -- race BMC depth probes against
k-induction steps under a conflict-budget ladder
(:mod:`repro.formal.portfolio`), record-identical to ``auto`` but
cheaper whenever one engine decides early.

Verdicts mirror a commercial tool: ``proven`` / ``cex`` / ``undetermined``
(with the bound and engine recorded).  Properties containing *unbounded
strong* operators (``strong(##[0:$] ...)``, ``s_eventually``, ``s_until``)
are liveness obligations that bounded engines cannot prove; they are reported
``undetermined`` unless falsified (docs/architecture.md, decision 5).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..counters import bump, bump_max
from ..rtl.elaborate import Design
from ..sva.ast_nodes import (
    Assertion,
    Delay,
    PropNode,
    Repetition,
    SEventually,
    StrongWeak,
    Until,
)
from .aig import AIG, FALSE, TRUE, CnfWriter, neg
from .bitvec import AigBackend, EvalError, ExprEvaluator, SignalSource
from .coi import assertion_roots, cone_of_influence
from .sat import Solver, solve_cnf
from .semantics import EncodingError, PropertyEncoder, horizon_of


def _faults():
    """:mod:`repro.core.faults`, imported on first use (``repro.core``
    eagerly imports the tasks, which import the service, which imports
    this package -- deferring the reverse edge avoids the cycle)."""
    from ..core import faults
    return faults


def has_unbounded_strong(prop: PropNode) -> bool:
    """True if the property contains a strong operator over an unbounded
    window (a genuine liveness obligation)."""
    for node in prop.walk():
        if isinstance(node, SEventually):
            return True
        if isinstance(node, Until) and node.strong:
            return True
        if isinstance(node, StrongWeak) and node.strong:
            for sub in node.seq.walk():
                if isinstance(sub, Delay) and sub.hi is None:
                    return True
                if isinstance(sub, Repetition) and sub.hi is None:
                    return True
    return False


@dataclass
class ProofResult:
    status: str  # 'proven' | 'cex' | 'undetermined' | 'timeout' | 'error'
    engine: str = ""
    depth: int = 0
    counterexample: dict[str, list[int]] | None = None
    vacuous: bool = False
    detail: str = ""
    stats: dict[str, int] = field(default_factory=dict)
    #: degradation provenance: one dict per recorded
    #: :class:`repro.core.faults.FaultEvent` (wall-clock timeout,
    #: memory-pressure one-shot retry, packed-sim fallback...), in the
    #: order the ladder took them.  Empty on the clean path.
    degraded: list = field(default_factory=list)

    @property
    def is_proven(self) -> bool:
        return self.status == "proven"


class UnrolledSource(SignalSource):
    """Signal source that unrolls a design's transition system over time.

    * inputs: fresh SAT variables per cycle (reset pins forced inactive),
    * state at t=0: post-reset constants (or fresh variables for the
      k-induction step case),
    * state at t>0: the registered ``next`` value of frame t-1,
    * combinational signals: their defining expression at frame t.

    A frame is **stamped**, not evaluated: the cone's one-step AIG
    (:func:`repro.rtl.compile.step_template`) is rebuilt into the
    session AIG over a per-frame literal map whose leaves are exactly
    the words above, so reset branches and constant initial state fold
    at the seam and the expression trees are lowered once per cone
    instead of once per frame of every session (docs/engine.md, "Lower
    once, stamp per frame").  Cones the template cannot express --
    time-shifted reads in RTL, a reset pin that is also driven -- fall
    back to walking ``comb_exprs`` / ``next_exprs`` through the
    word-level evaluator frame by frame; that walk is also the
    differential oracle (``tests/test_formal_unroll_differential.py``).
    Which path a cone takes follows from the design alone.
    """

    def __init__(self, aig: AIG, design: Design, free_init: bool = False,
                 profile: dict | None = None):
        self.aig = aig
        self.design = design
        self.free_init = free_init
        self.profile = profile
        self._memo: dict[tuple[str, int], tuple] = {}
        self.evaluator = ExprEvaluator(AigBackend(aig), self, design.params)
        self.input_vars: dict[tuple[str, int], tuple] = {}
        self._template = self._template_for(design)
        #: stamped frames: the literal map of frame t, complete for the
        #: combinational cone; ``_next_done`` counts the leading frames
        #: whose next-state cone is stamped too
        self._frames: list[list[int]] = []
        self._next_done = 0
        self._walked: set[int] = set()
        self._building = False
        if profile is not None and self._template is not None:
            bump(profile, "step_template_nodes", self._template.gates)

    @staticmethod
    def _template_for(design: Design):
        """The cone's stamp plan, or None where frames must be walked."""
        from ..rtl.compile import Uncompilable, step_template
        if any(name in design.comb_exprs for name in design.resets):
            # a read of a reset pin is its inactive constant here, but
            # the driven value inside the template
            return None
        try:
            return step_template(design)
        except Uncompilable:
            return None

    def width(self, name: str) -> int:
        try:
            return self.design.widths[name]
        except KeyError:
            raise EvalError(f"unknown signal {name!r}") from None

    def read(self, name: str, t: int):
        w = self.width(name)
        if t < 0:
            return tuple([FALSE] * w), w
        key = (name, t)
        bits = self._memo.get(key)
        if bits is not None:
            return bits, w
        if self._building or self.profile is None:
            bits = self._build(name, t, w)
        else:
            # outermost miss: everything below it is unrolling work
            self._building = True
            t0 = time.perf_counter()
            try:
                bits = self._build(name, t, w)
            finally:
                self._building = False
                bump(self.profile, "unroll_s", time.perf_counter() - t0)
        self._memo[key] = bits
        return bits, w

    def _build(self, name: str, t: int, w: int):
        design = self.design
        if name in design.resets:
            from ..rtl.elaborate import reset_inactive_value
            inactive = reset_inactive_value(name)
            return tuple([TRUE if (inactive >> i) & 1 else FALSE
                          for i in range(w)])  # reset held inactive
        if name in design.comb_exprs:
            if self._template is not None:
                return self._stamped(self._template.comb_bits[name],
                                     self._frame(t))
            self._count_walk(t)
            v, vw = self.evaluator.eval(design.comb_exprs[name], t)
            return self._fit_bits(v, vw, w)
        if name in design.next_exprs:
            if t == 0:
                return self._initial_bits(name, w)
            if self._template is not None:
                return self._stamped(self._template.next_bits[name],
                                     self._frame(t - 1, with_next=True))
            # no cycle-breaking placeholder: comb is topo-sorted and
            # state recursion strictly decreases t
            self._count_walk(t - 1)
            v, vw = self.evaluator.eval(design.next_exprs[name], t - 1)
            return self._fit_bits(v, vw, w)
        if name in design.inputs or name == design.clock:
            bits = tuple(self.aig.new_input() for _ in range(w))
            self.input_vars[(name, t)] = bits
            return bits
        raise EvalError(f"undriven signal {name!r}")

    # -- stamped frames ------------------------------------------------------

    def _frame(self, t: int, with_next: bool = False) -> list[int]:
        """Literal map of frame *t*, stamping what is missing below it.

        Frames are built strictly in order, and frame f's next-state
        cone right before frame f+1 (or when f+1's state is read), so
        every leaf a new frame reads is already in ``_memo`` or is a
        fresh input: this loop never re-enters itself.
        """
        template = self._template
        frames = self._frames
        and_ = self.aig.and_
        while len(frames) <= t or (with_next and self._next_done <= t):
            fresh = self._next_done == len(frames)
            if fresh:
                m, plan = [TRUE] * template.size, template.comb_plan
                for name, nodes in template.leaves:
                    bits, _w = self.read(name, len(frames))
                    for node, bit in zip(nodes, bits):
                        m[node] = bit
            else:
                m, plan = frames[self._next_done], template.next_plan
            for n, a, a_neg, b, b_neg in plan:
                m[n] = and_(m[a] ^ a_neg, m[b] ^ b_neg)
            if fresh:
                frames.append(m)
                if self.profile is not None:
                    bump(self.profile, "frames_stamped", 1)
            else:
                self._next_done += 1
        return frames[t]

    @staticmethod
    def _stamped(lits, m: list[int]):
        return tuple(m[lit >> 1] ^ (lit & 1) for lit in lits)

    # -- walked frames (the fallback and the oracle) ---------------------------

    def _count_walk(self, t: int) -> None:
        if t not in self._walked:
            self._walked.add(t)
            if self.profile is not None:
                bump(self.profile, "frames_walked", 1)

    def _initial_bits(self, name: str, w: int):
        if self.free_init:
            bits = tuple(self.aig.new_input() for _ in range(w))
            self.input_vars[(name, 0)] = bits
            return bits
        value = self.design.init.get(name, 0)
        return tuple(TRUE if (value >> i) & 1 else FALSE for i in range(w))

    @staticmethod
    def _fit_bits(bits, have: int, want: int):
        if have == want:
            return tuple(bits)
        if have > want:
            return tuple(bits[:want])
        return tuple(bits) + tuple([FALSE] * (want - have))


class ProofSession:
    """Persistent incremental solving context for one design cone.

    Holds the shared AIG, its unrolled signal source, one incremental
    :class:`~.sat.Solver` and the :class:`~.aig.CnfWriter` that streams the
    Tseitin delta of each new query into it.  Property encoders are cached
    per horizon so BMC and every k-induction step reuse the same unrolling
    nodes (structural hashing makes re-encoding at a new horizon touch only
    the new frames).

    With ``simplify`` (the default) each query target passes through an
    :class:`~.aig.Sweeper` before clausification: constant sweeping,
    two-level strash rewriting and constants implied by the other
    assumption literals shrink the Tseitin delta the writer streams
    (docs/engine.md, "AIG sweeping").
    """

    def __init__(self, design: Design, free_init: bool,
                 simplify: bool = True, profile: dict | None = None):
        self.design = design
        self.aig = AIG()
        self.source = UnrolledSource(self.aig, design, free_init=free_init,
                                     profile=profile)
        self.solver = Solver()
        self.writer = CnfWriter(self.aig, self.solver)
        self.simplify = simplify
        self.profile = profile
        #: wall-clock deadline (absolute ``time.monotonic()``) the owning
        #: prover propagates per :meth:`Prover.prove` call; forwarded to
        #: the solver so long solves stop with ``limit='deadline'``
        self.deadline_at: float | None = None
        self._encoders: dict[int, PropertyEncoder] = {}
        self._sweepers: dict[tuple, object] = {}

    def encoder(self, horizon: int) -> PropertyEncoder:
        enc = self._encoders.get(horizon)
        if enc is None:
            enc = PropertyEncoder(self.aig, self.source, horizon,
                                  self.design.params)
            self._encoders[horizon] = enc
        return enc

    def _sweeper(self, context: tuple):
        sweeper = self._sweepers.get(context)
        if sweeper is None:
            from .aig import Sweeper, implied_constants
            known = implied_constants(self.aig, context) if context else None
            sweeper = Sweeper(self.aig, known)
            self._sweepers[context] = sweeper
        return sweeper

    def _simplify_lits(self, live: list[int]) -> list[int] | None:
        """Sweep the query literals; None signals unsat, an empty tail means
        the whole query reduced away.

        Context literals (all but the last) are swept without extra
        knowledge and must stay asserted; the last literal -- the query
        target -- is additionally swept under the constants the context
        implies (each assumption holds, so its positive AND decomposition
        is free knowledge for the target's cone).  A target that sweeps to
        constant TRUE keeps its original literal: the solver model must
        still witness it for counterexample extraction.
        """
        pure = self._sweeper(())
        out: list[int] = []
        for lit in live[:-1]:
            swept = pure.lit(lit)
            if swept == FALSE:
                return None
            if swept != TRUE:
                out.append(swept)
        target = live[-1]
        swept = self._sweeper(tuple(out)).lit(pure.lit(target))
        if swept == FALSE:
            return None
        out.append(target if swept == TRUE else swept)
        return out

    def solve(self, lits: list[int], max_conflicts: int | None = None,
              conflict_budget: int | None = None):
        """Solve the conjunction of AIG literals *lits* via assumptions.

        Encodes the not-yet-clausified part of each literal's cone, then
        solves with the literals as assumptions, so nothing query-specific
        is ever asserted permanently and learned clauses stay reusable.
        Returns a :class:`~.sat.SatResult`; constant-FALSE literals
        short-circuit to unsat.

        ``conflict_budget`` bounds this call's conflicts like
        ``max_conflicts`` does (the tighter of the two applies); the
        portfolio scheduler re-issues the same query with a growing budget
        (restart-and-deepen), which is cheap here because the solver keeps
        its learned clauses between calls.
        """
        from .sat import SatResult
        delay = _faults().inject("slow_solve")
        if delay is not None:  # chaos harness: a pathologically slow solve
            time.sleep(delay or 0.05)
        self.solver.deadline_at = self.deadline_at
        if (self.deadline_at is not None
                and time.monotonic() >= self.deadline_at):
            # encoding below can be arbitrarily long; honour an already
            # expired deadline before starting it
            return SatResult("unknown", limit="deadline")
        live = [lit for lit in lits if lit != TRUE]
        if any(lit == FALSE for lit in live):
            return SatResult("unsat")
        if self.simplify and live:
            swept = self._simplify_lits(live)
            if swept is None:
                return SatResult("unsat")
            live = swept
        profile = self.profile
        t0 = time.perf_counter() if profile is not None else 0.0
        self.writer.encode(live)
        t1 = time.perf_counter() if profile is not None else 0.0
        result = self.solver.solve([self.writer.lit(lit) for lit in live],
                                   max_conflicts,
                                   conflict_budget=conflict_budget)
        if profile is not None:
            t2 = time.perf_counter()
            bump(profile, "encode_s", t1 - t0)
            bump(profile, "sat_s", t2 - t1)
            for key in ("conflicts", "decisions", "propagations"):
                bump(profile, key, getattr(result, key))
            bump_max(profile, "learned_db", result.learned_db)
        return result

    def extract_cex(self, model, max_t: int | None = None
                    ) -> dict[str, list[int]]:
        """Read back input valuations from a sat model (missing vars are
        don't-cares, reported 0)."""
        node2var = self.writer.node2var
        frames: dict[str, dict[int, int]] = {}
        for (name, t), bits in self.source.input_vars.items():
            if max_t is not None and t > max_t:
                continue
            value = 0
            for i, lit in enumerate(bits):
                var = node2var.get(lit >> 1)
                if var is not None and model.get(var, False):
                    value |= 1 << i
            frames.setdefault(name, {})[t] = value
        return {name: [by_t.get(t, 0) for t in range(max(by_t) + 1)]
                for name, by_t in frames.items()}


class TraceChecker:
    """Evaluate one assertion against many concrete traces.

    Encodes the assertion once per (assertion, trace length) and replays
    each trace through the precomputed AIG cone -- the simulation-first
    falsifier calls this once per random trace, so re-encoding per trace
    was pure waste (ISSUE 1 satellite).
    """

    def __init__(self, assertion: Assertion, length: int,
                 widths: dict[str, int], params: dict[str, int] | None = None,
                 first_attempt: int = 0, last_attempt: int | None = None,
                 prehistory: int = 0):
        from .bitvec import FreeSignalSource
        self.length = length
        self.prehistory = prehistory
        self.aig = AIG()
        self.source = FreeSignalSource(self.aig, dict(widths),
                                       default_width=1)
        encoder = PropertyEncoder(self.aig, self.source, length, params)
        window = max(1, horizon_of(assertion) + 1)
        stop = last_attempt if last_attempt is not None else length - window
        self.attempts: dict[int, int] = {}
        for t in range(first_attempt, max(first_attempt, stop) + 1):
            self.attempts[t] = encoder.encode_assertion(assertion, t)
        self._lits = list(self.attempts.values())
        self._order = self.aig.cone(self._lits)

    def first_violation(self, trace: dict[str, list[int]]) -> int | None:
        """First violated attempt cycle on *trace*, or None."""
        fanins = self.aig._fanins
        values: dict[int, bool] = {0: True}
        for (name, t), bits in self.source._cache.items():
            idx = t + self.prehistory
            series = trace.get(name, ())
            value = series[idx] if 0 <= idx < len(series) else 0
            for i, lit in enumerate(bits):
                values[lit >> 1] = bool((value >> i) & 1)
        for n in self._order:
            if n in values:
                continue
            fi = fanins[n]
            if fi is None:
                values[n] = False  # unconstrained input defaults to 0
                continue
            a, b = fi
            if (values[a >> 1] ^ bool(a & 1)) and (values[b >> 1]
                                                   ^ bool(b & 1)):
                values[n] = True
            else:
                values[n] = False
        for t, lit in self.attempts.items():
            if not (values[lit >> 1] ^ bool(lit & 1)):
                return t
        return None


class Prover:
    """Proof orchestrator for one design.

    A single instance may prove many assertions against its design; the
    COI-reduced cone and the incremental proof sessions (shared unrolling +
    solver) are cached across :meth:`prove` calls, keyed by the assertion's
    cone of influence.
    """

    #: recognized values of the ``strategy`` configuration
    STRATEGIES = ("auto", "bmc", "kind", "portfolio")

    def __init__(self, design: Design, max_bmc: int = 12, max_k: int = 6,
                 max_conflicts: int = 300_000, sim_traces: int = 24,
                 sim_cycles: int = 40, use_coi: bool = True,
                 use_simulation: bool = True, use_incremental: bool = True,
                 use_packed_sim: bool = True, simplify: bool = True,
                 packed_max_nodes: int | None = None,
                 strategy: str = "auto",
                 portfolio_ladder: tuple[int, ...] | None = None,
                 profile: dict | None = None):
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"expected one of {self.STRATEGIES}")
        if strategy in ("kind", "portfolio") and not use_incremental:
            raise ValueError(f"strategy {strategy!r} requires the "
                             "incremental engine (use_incremental=True)")
        self.design = design
        self.max_bmc = max_bmc
        self.max_k = max_k
        self.max_conflicts = max_conflicts
        self.sim_traces = sim_traces
        self.sim_cycles = sim_cycles
        self.use_coi = use_coi
        self.use_simulation = use_simulation
        self.use_incremental = use_incremental
        self.use_packed_sim = use_packed_sim
        self.simplify = simplify
        #: engine scheduling policy: 'auto' (sequential sim -> BMC ->
        #: k-induction, the reference behaviour), 'bmc' / 'kind' (single
        #: bounded strategy), or 'portfolio' (race BMC depth probes against
        #: k-induction steps under a conflict-budget ladder,
        #: :mod:`repro.formal.portfolio`)
        self.strategy = strategy
        #: conflict-budget rungs for the portfolio scheduler (None: the
        #: module default, 1k -> 8k -> 64k -> ``max_conflicts``)
        self.portfolio_ladder = portfolio_ladder
        #: step-AIG node budget for packed simulation; above it the cone is
        #: datapath-dominated and the scalar compiled simulator is faster
        #: (the budget scales with the lane count the bit-parallel pass
        #: amortizes over; 16 nodes/lane measured best on the bench suite)
        self.packed_max_nodes = (packed_max_nodes if packed_max_nodes
                                 is not None else 16 * sim_traces)
        #: per-stage wall-clock and solver totals, accumulated across
        #: prove() calls; pass a shared dict to aggregate over provers
        self.profile: dict = profile if profile is not None else {}
        self._assumes: tuple[Assertion, ...] = ()
        #: absolute wall-clock deadline of the in-flight prove() (None
        #: off-deadline); propagated to every session and one-shot solve
        self._deadline_at: float | None = None
        #: FaultEvent accumulator of the in-flight prove() -- the
        #: degradation ladder and the simulation fallbacks append here
        self._fault_events: list | None = None
        self._coi_cache: dict[frozenset, Design] = {}
        self._sessions: dict[tuple[frozenset, bool], ProofSession] = {}
        self._trace_cache: dict[frozenset, list[dict[str, list[int]]]] = {}
        #: cone -> PackedTraces, or None where the design is outside the
        #: packed subset (those cones fall back to the scalar replay)
        self._packed_cache: dict[frozenset, object] = {}
        #: (cone key, unparsed assertion) -> (violation lane mask, packed
        #: traces), seeded by the service's cross-sample batch pass
        #: (:func:`repro.service.batch.presimulate`); entries are
        #: deterministic, so serving them is verdict-identical to running
        #: the per-sample falsification pass below
        self._batch_sim: dict[tuple, tuple] = {}
        if not design.init and design.state:
            from ..rtl.simulator import derive_init
            derive_init(design)

    # -- public API -------------------------------------------------------------

    def prove(self, assertion: Assertion,
              assumes: tuple[Assertion, ...] = (),
              deadline_s: float | None = None) -> ProofResult:
        """Prove *assertion*, optionally under environment *assumes*
        (input constraints, as a formal tool's assume directives).

        ``deadline_s`` bounds this call's wall clock: the deadline is
        propagated to every proof session's solver (polled at every
        conflict, propagation boundary and restart), and a call that
        exhausts it without a sound verdict returns status ``timeout``
        -- a measured outcome carrying whatever partial stats the
        engines accumulated, never an exception.  Resource faults
        (``MemoryError`` / ``RecursionError``) degrade to the one-shot
        non-incremental oracle (retried once); every degradation step is
        recorded in ``ProofResult.degraded`` (docs/robustness.md).
        """
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        deadline_at = (time.monotonic() + max(0.0, float(deadline_s))
                       if deadline_s is not None else None)
        events: list = []
        self._deadline_at = deadline_at
        self._fault_events = events
        self._set_session_deadlines(deadline_at)
        try:
            design = self.design
            cone_key = frozenset(self.design.widths)
            if self.use_coi:
                roots = assertion_roots(assertion)
                for a in assumes:
                    roots |= assertion_roots(a)
                design, cone_key = self._reduced_design(roots)
            self._assumes = tuple(assumes)
            if (deadline_at is not None
                    and time.monotonic() >= deadline_at):
                result = ProofResult("undetermined", engine="none",
                                     detail="deadline expired before "
                                            "dispatch")
            else:
                try:
                    result = self._dispatch(design, cone_key, assertion)
                except (EncodingError, EvalError) as exc:
                    result = ProofResult("error", detail=str(exc))
                except (MemoryError, RecursionError) as exc:
                    result = self._retry_oneshot(design, assertion, exc,
                                                 events)
        finally:
            self._deadline_at = None
            self._fault_events = None
            self._set_session_deadlines(None)
        if (deadline_at is not None and result.status == "undetermined"
                and time.monotonic() >= deadline_at):
            # the engines stopped on the wall clock, not on their
            # conflict budgets: surface the structured timeout verdict
            # (partial stats retained) instead of plain undetermined
            events.append(_faults().FaultEvent(
                "timeout", stage=result.engine or "prover",
                detail=f"wall-clock deadline of {deadline_s:g}s expired"))
            result = ProofResult("timeout", engine=result.engine,
                                 depth=result.depth,
                                 detail=f"deadline exceeded "
                                        f"({deadline_s:g}s)",
                                 stats=result.stats)
        if events:
            result.degraded = [*result.degraded,
                               *(e.as_dict() for e in events)]
        # per-strategy win accounting: which engine produced the verdict
        # (surfaced by reports.run_summary)
        win = (result.status if result.status == "timeout"
               else result.engine or result.status)
        bump(self.profile, f"win_{win}", 1)
        return result

    def _set_session_deadlines(self, deadline_at: float | None) -> None:
        for session in self._sessions.values():
            session.deadline_at = deadline_at
            session.solver.deadline_at = deadline_at

    def _retry_oneshot(self, design: Design, assertion: Assertion,
                       exc: BaseException, events: list) -> ProofResult:
        """Degradation rung for resource faults: the incremental sessions
        (possibly corrupted mid-mutation) are dropped and the proof is
        retried once on the one-shot non-incremental oracle.  A second
        resource fault becomes an error result -- never a raised
        exception."""
        faults = _faults()
        events.append(faults.classify(exc, stage="prover", attempt=0))
        self._sessions.clear()
        self._trace_cache.clear()
        self._packed_cache.clear()
        try:
            with self._stage("bmc_s"):
                bmc = self._bmc_oneshot(design, assertion)
            if bmc is not None:
                return bmc
            with self._stage("kind_s"):
                return self._k_induction_oneshot(design, assertion)
        except (MemoryError, RecursionError) as exc2:
            event = faults.classify(exc2, stage="prover", attempt=1)
            event.retryable = False  # the ladder has no lower rung
            events.append(event)
            return ProofResult(
                "error",
                detail=f"{type(exc2).__name__} persisted after one-shot "
                       f"retry")

    def _dispatch(self, design: Design, cone_key: frozenset,
                  assertion: Assertion) -> ProofResult:
        """Run the configured strategy after the shared cheap gates."""
        if has_unbounded_strong(assertion.prop):
            # a finite window can neither witness nor soundly refute an
            # unbounded strong obligation; report undetermined as the
            # documented substitution for liveness engines (docs/engine.md)
            return ProofResult(
                "undetermined", engine="none",
                detail="liveness obligation; bounded engines only")
        if self.use_simulation:
            with self._stage("sim_s"):
                cex = self._simulate_falsify(design, cone_key, assertion)
            if cex is not None:
                return ProofResult("cex", engine="simulation",
                                   counterexample=cex)
        if self.strategy == "portfolio":
            from .portfolio import PortfolioScheduler
            return PortfolioScheduler(self, design, cone_key,
                                      assertion).run()
        if self.strategy == "kind":
            return self._kind_first(design, cone_key, assertion)
        with self._stage("bmc_s"):
            if self.use_incremental:
                bmc = self._bmc(design, cone_key, assertion)
            else:
                bmc = self._bmc_oneshot(design, assertion)
        if bmc is not None:
            return bmc
        if self.strategy == "bmc":
            return ProofResult(
                "undetermined", engine="bmc", depth=self.max_bmc,
                detail=f"no counterexample within bound {self.max_bmc}")
        with self._stage("kind_s"):
            if self.use_incremental:
                return self._k_induction(design, cone_key, assertion)
            return self._k_induction_oneshot(design, assertion)

    def prove_all(self, assertions, assumes: tuple[Assertion, ...] = ()
                  ) -> list[ProofResult]:
        """Prove several assertions on this design, sharing cone sessions."""
        return [self.prove(a, assumes=assumes) for a in assertions]

    # -- shared infrastructure ---------------------------------------------------

    @contextmanager
    def _stage(self, key: str):
        """Accumulate a stage's wall-clock into the profile dict."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            bump(self.profile, key, time.perf_counter() - t0)

    def _reduced_design(self, roots: set[str]) -> tuple[Design, frozenset]:
        """COI-reduce the design, caching per cone signal set.

        Two assertions with different roots but the same transitive cone
        share one reduced design (and hence one proof session).
        """
        key = frozenset(r for r in roots if r in self.design.widths)
        cached = self._coi_cache.get(key)
        if cached is not None:
            return cached, frozenset(cached.widths)
        reduced = cone_of_influence(self.design, roots)
        cone = frozenset(reduced.widths)
        # alias by the cone itself so root sets converging to one cone share
        existing = self._coi_cache.get(cone)
        if existing is not None:
            self._coi_cache[key] = existing
            return existing, cone
        self._coi_cache[key] = reduced
        self._coi_cache[cone] = reduced
        return reduced, cone

    def _session(self, design: Design, cone_key: frozenset,
                 free_init: bool) -> ProofSession:
        key = (cone_key, free_init)
        session = self._sessions.get(key)
        if session is None:
            session = ProofSession(design, free_init=free_init,
                                   simplify=self.simplify,
                                   profile=self.profile)
            # a session born mid-prove inherits the in-flight deadline
            session.deadline_at = self._deadline_at
            self._sessions[key] = session
        return session

    def _record_fault(self, code: str, stage: str, detail: str = "",
                      retryable: bool = False) -> None:
        """Append a FaultEvent to the in-flight prove()'s accumulator
        (no-op outside a prove call: the fallbacks below also run from
        the batch scheduler's presimulate pass)."""
        events = self._fault_events
        if events is not None:
            events.append(_faults().FaultEvent(
                code, stage=stage, retryable=retryable, detail=detail))

    # -- simulation falsifier --------------------------------------------------------

    def _sim_trace(self, design: Design, cone_key: frozenset,
                   trial: int) -> dict[str, list[int]]:
        """Random simulation trace *trial* of the reduced design, cached
        per cone and materialized lazily.

        Simulation is seeded, so trace ``trial`` of a cone is identical on
        every prove() call; re-running the simulator per assertion (the
        pre-refactor behaviour) recomputed exactly these values.  Laziness
        keeps the easy-counterexample path (violation on the first trace)
        as cheap as it was.
        """
        traces = self._trace_cache.setdefault(cone_key, [])
        while len(traces) <= trial:
            from ..rtl.simulator import Simulator
            sim = Simulator(design, seed=0xF5E0A1 + len(traces))
            sim.reset()
            sim.run_random(self.sim_cycles)
            traces.append(sim.trace())
        return traces[trial]

    def _packed_traces(self, design: Design, cone_key: frozenset):
        """Packed random traces of the reduced design (None: unsupported).

        One bit-parallel run replaces ``sim_traces`` scalar simulations;
        the per-lane RNG streams match :meth:`_sim_trace` exactly, so the
        packed and scalar paths see bit-identical stimulus.
        """
        from .bitsim import MAX_LANES, PackedSimulator, PackedUnsupported
        cached = self._packed_cache.get(cone_key, False)
        if cached is not False:
            return cached
        packed = None
        if self.sim_traces <= MAX_LANES:
            try:
                with self._stage("sim_gen_s"):
                    sim = PackedSimulator(
                        design, max_nodes=self.packed_max_nodes)
                    packed = sim.run(lanes=self.sim_traces,
                                     seed_base=0xF5E0A1,
                                     cycles=self.sim_cycles)
            except PackedUnsupported as exc:
                # the documented word-level fallback (AIG over budget /
                # outside the packed subset) -- recorded, not fatal
                self._record_fault("aig_overflow", stage="simulation",
                                   detail=str(exc)[:200])
                packed = None
            except Exception as exc:
                # unexpected packed-sim failure: the scalar oracle
                # computes the same verdicts (degradation ladder rung)
                self._record_fault("packed_sim", stage="simulation",
                                   detail=f"{type(exc).__name__}: "
                                          f"{exc}"[:200])
                packed = None
        self._packed_cache[cone_key] = packed
        return packed

    def _packed_scalar(self, design: Design, cone_key: frozenset):
        """Scalar-generated traces of a cone in packed (lane) form.

        The fallback for datapath-heavy cones: the compiled word-level
        simulator generates the traces (cheaper than bit-blasting a wide
        cone), then one transpose packs them so the property check still
        runs bit-parallel.
        """
        key = (cone_key, "scalar")
        packed = self._packed_cache.get(key)
        if packed is None:
            with self._stage("sim_gen_s"):
                traces = [self._sim_trace(design, cone_key, trial)
                          for trial in range(self.sim_traces)]
                from .bitsim import pack_traces
                packed = pack_traces(traces, design.widths)
            self._packed_cache[key] = packed
        return packed

    def _simulate_falsify(self, design: Design, cone_key: frozenset,
                          assertion: Assertion) -> dict | None:
        bump(self.profile, "sim_candidates", 1)
        if not self._assumes:
            # batch-scheduled verdict: one packed pass per cone already
            # scored this candidate across the whole request batch
            from ..sva.unparse import unparse
            hit = self._batch_sim.get((cone_key, unparse(assertion)))
            if hit is not None:
                viol, packed = hit
                if not viol:
                    return None
                # lowest violating lane == the scalar loop's first trial
                return packed.lane_trace((viol & -viol).bit_length() - 1)
        bump(self.profile, "sim_passes", 1)
        window = max(1, horizon_of(assertion) + 1)
        start = 2  # skip the reset phase
        length = self.sim_cycles + 2  # reset() contributes two frames
        last = length - window
        with self._stage("sim_build_s"):
            checker = TraceChecker(assertion, length, design.widths,
                                   design.params, first_attempt=start,
                                   last_attempt=last)
            assume_checkers = [
                TraceChecker(a, length, design.widths, design.params,
                             first_attempt=start, last_attempt=last)
                for a in self._assumes]
        from .bitsim import MAX_LANES
        if self.use_packed_sim and 0 < self.sim_traces <= MAX_LANES:
            packed = self._packed_traces(design, cone_key)
            if packed is None:
                # hybrid: the lazy scalar front kills most flawed samples
                # on trial 0; survivors get one bit-parallel pass over the
                # scalar traces instead of a per-trace replay loop
                with self._stage("sim_gen_s"):
                    trace = self._sim_trace(design, cone_key, 0)
                with self._stage("sim_check_s"):
                    ok0 = not any(c.first_violation(trace) is not None
                                  for c in assume_checkers)
                    bad0 = ok0 and checker.first_violation(trace) is not None
                if bad0:
                    return {name: values for name, values in trace.items()}
                if self.sim_traces == 1:
                    return None
                packed = self._packed_scalar(design, cone_key)
            from .bitsim import packed_violation_lanes
            with self._stage("sim_check_s"):
                eligible = packed.mask
                for c in assume_checkers:
                    eligible &= ~packed_violation_lanes(c, packed)
                viol = packed_violation_lanes(checker, packed) & eligible
            if not viol:
                return None
            # lowest violating lane == the scalar loop's first trial
            return packed.lane_trace((viol & -viol).bit_length() - 1)
        for trial in range(self.sim_traces):
            if (self._deadline_at is not None
                    and time.monotonic() >= self._deadline_at):
                return None  # prove() converts the verdict to timeout
            with self._stage("sim_gen_s"):
                trace = self._sim_trace(design, cone_key, trial)
            with self._stage("sim_check_s"):
                skip = any(c.first_violation(trace) is not None
                           for c in assume_checkers)
                bad = (not skip
                       and checker.first_violation(trace) is not None)
            if skip:
                continue  # random stimulus broke an assumption; discard
            if bad:
                return {name: values for name, values in trace.items()}
        return None

    def _environment(self, encoder: PropertyEncoder, attempts: int) -> int:
        """Conjunction of all assume attempts over the unrolled window."""
        lits = []
        for a in self._assumes:
            for t in range(attempts + 1):
                lits.append(encoder.encode_assertion(a, t))
        return encoder.aig.and_many(lits)

    # -- BMC -------------------------------------------------------------

    def _bmc_obligations(self, design: Design, cone_key: frozenset,
                         assertion: Assertion):
        """The shared BMC encoding of *assertion* on its cone session.

        Returns ``(session, env, violations, any_violation)``: the
        reachable-init :class:`ProofSession`, the environment literal over
        the full ``max_bmc`` window, one violation literal per depth
        ``0..max_bmc``, and their structural disjunction.  Every strategy
        (sequential BMC, kind-first base discharge, the portfolio
        scheduler) builds its probes from this one encoding, so their
        verdicts can only agree.
        """
        window = max(1, horizon_of(assertion) + 1)
        session = self._session(design, cone_key, free_init=False)
        encoder = session.encoder(self.max_bmc + window)
        aig = session.aig
        env = self._environment(encoder, self.max_bmc)
        violations = [neg(encoder.encode_assertion(assertion, t))
                      for t in range(self.max_bmc + 1)]
        return session, env, violations, aig.and_(env,
                                                  aig.or_many(violations))

    def _bmc(self, design: Design, cone_key: frozenset,
             assertion: Assertion,
             max_depth: int | None = None) -> ProofResult | None:
        """Incremental BMC: one shared unrolling, one persistent solver,
        one assumption-activated violation target per depth.

        ``max_depth`` restricts the violation probes to depths ``0..d``
        (the kind-first strategy discharges only the base cases its
        inductive step actually needs); the unrolling and environment stay
        at the full ``max_bmc`` horizon so the session is shared with
        every other strategy on the same cone.
        """
        session, env, violations, any_violation = self._bmc_obligations(
            design, cone_key, assertion)
        if any_violation == FALSE:
            return None  # structurally true at this bound; go prove
        if any_violation == TRUE:
            return ProofResult("cex", engine="bmc", depth=0,
                               detail="assertion constant-false")
        aig = session.aig
        depth = (self.max_bmc if max_depth is None
                 else min(max_depth, self.max_bmc))
        conflicts = 0
        for t, viol in enumerate(violations[:depth + 1]):
            if aig.and_(env, viol) == FALSE:
                continue
            result = session.solve([env, viol],
                                   max_conflicts=self.max_conflicts)
            conflicts += result.conflicts
            if result.is_sat:
                window = max(1, horizon_of(assertion) + 1)
                cex = session.extract_cex(result.model,
                                          max_t=self.max_bmc + window - 1)
                return ProofResult("cex", engine="bmc", depth=self.max_bmc,
                                   counterexample=cex,
                                   stats={"conflicts": conflicts,
                                          "cex_depth": t})
            if result.status == "unknown":
                return ProofResult("undetermined", engine="bmc",
                                   detail="conflict budget exhausted",
                                   stats={"conflicts": conflicts})
        return None

    def _bmc_oneshot(self, design: Design,
                     assertion: Assertion) -> ProofResult | None:
        """Pre-incremental reference path: fresh AIG + monolithic solve."""
        window = max(1, horizon_of(assertion) + 1)
        K = self.max_bmc + window
        aig = AIG()
        source = UnrolledSource(aig, design, free_init=False)
        encoder = PropertyEncoder(aig, source, K, design.params)
        violations = []
        for t in range(self.max_bmc + 1):
            violations.append(neg(encoder.encode_assertion(assertion, t)))
        any_violation = aig.and_(self._environment(encoder, self.max_bmc),
                                 aig.or_many(violations))
        if any_violation == FALSE:
            return None  # structurally true at this bound; go prove
        if any_violation == TRUE:
            return ProofResult("cex", engine="bmc", depth=0,
                               detail="assertion constant-false")
        clauses, node2var, nv = aig.to_cnf([any_violation])
        clauses.append([aig.cnf_literal(any_violation, node2var)])
        result = solve_cnf(nv, clauses, max_conflicts=self.max_conflicts,
                           deadline_at=self._deadline_at)
        if result.is_sat:
            cex = self._extract_cex(source, result.model, node2var)
            return ProofResult("cex", engine="bmc", depth=self.max_bmc,
                               counterexample=cex,
                               stats={"conflicts": result.conflicts})
        if result.status == "unknown":
            return ProofResult("undetermined", engine="bmc",
                               detail="conflict budget exhausted",
                               stats={"conflicts": result.conflicts})
        return None

    # -- k-induction -------------------------------------------------------------

    def _kind_step_obligation(self, design: Design, cone_key: frozenset,
                              assertion: Assertion, k: int):
        """The shared induction-step encoding at depth *k*.

        Returns ``(session, lits, query)``: the free-init
        :class:`ProofSession`, the assumption literals (environment, base
        obligations ``holds(0..k-1)``, negated target at ``k``) and their
        structural conjunction (``FALSE`` means the step case holds
        structurally).  As with :meth:`_bmc_obligations`, every strategy
        attempts induction steps through this one encoding.
        """
        window = max(1, horizon_of(assertion) + 1)
        session = self._session(design, cone_key, free_init=True)
        encoder = session.encoder(k + window + 1)
        aig = session.aig
        holds = [encoder.encode_assertion(assertion, t) for t in range(k)]
        target = encoder.encode_assertion(assertion, k)
        env = self._environment(encoder, k)
        query = aig.and_(env, aig.and_(aig.and_many(holds), neg(target)))
        return session, [env, *holds, neg(target)], query

    def _k_induction(self, design: Design, cone_key: frozenset,
                     assertion: Assertion) -> ProofResult:
        """Incremental k-induction: the free-init unrolling grows step by
        step in one shared session; base obligations and the negated target
        are passed as assumptions, never asserted, so every learned clause
        carries over to the next k (and the next assertion)."""
        total_conflicts = 0
        for k in range(1, self.max_k + 1):
            session, lits, query = self._kind_step_obligation(
                design, cone_key, assertion, k)
            if query == FALSE:
                return ProofResult("proven", engine="k-induction", depth=k,
                                   stats={"conflicts": total_conflicts})
            result = session.solve(lits, max_conflicts=self.max_conflicts)
            total_conflicts += result.conflicts
            if result.is_unsat:
                return ProofResult("proven", engine="k-induction", depth=k,
                                   vacuous=self._is_vacuous(design, cone_key,
                                                            assertion),
                                   stats={"conflicts": total_conflicts})
            if result.status == "unknown":
                return ProofResult("undetermined", engine="k-induction",
                                   detail="conflict budget exhausted",
                                   stats={"conflicts": total_conflicts})
        return ProofResult("undetermined", engine="k-induction",
                           depth=self.max_k,
                           detail=f"not inductive up to k={self.max_k}",
                           stats={"conflicts": total_conflicts})

    def _kind_first(self, design: Design, cone_key: frozenset,
                    assertion: Assertion) -> ProofResult:
        """k-induction-first strategy: find an inductive step depth before
        touching BMC, then discharge only the base cases that proof needs.

        Sound because a ``proven`` verdict still requires both halves: the
        step case (``_k_induction``'s free-init obligation, unsat at k) and
        the base cases (no violation reachable at depths ``0..k-1``,
        checked via :meth:`_bmc` with ``max_depth=k-1``).  Cheaper than
        ``auto`` whenever the property is inductive at a small k, because
        the remaining ``k..max_bmc`` BMC depths are never solved.
        """
        total_conflicts = 0
        proven_k = None
        structural = False
        for k in range(1, self.max_k + 1):
            session, lits, query = self._kind_step_obligation(
                design, cone_key, assertion, k)
            if query == FALSE:
                proven_k, structural = k, True
                break
            with self._stage("kind_s"):
                result = session.solve(lits,
                                       max_conflicts=self.max_conflicts)
            total_conflicts += result.conflicts
            if result.is_unsat:
                proven_k = k
                break
            if result.status == "unknown":
                return ProofResult("undetermined", engine="k-induction",
                                   detail="conflict budget exhausted",
                                   stats={"conflicts": total_conflicts})
        if proven_k is None:
            return ProofResult("undetermined", engine="k-induction",
                               depth=self.max_k,
                               detail=f"not inductive up to k={self.max_k}",
                               stats={"conflicts": total_conflicts})
        with self._stage("bmc_s"):
            base = self._bmc(design, cone_key, assertion,
                             max_depth=proven_k - 1)
        if base is not None:
            return base  # base case refuted (cex) or budget-exhausted
        with self._stage("kind_s"):
            vacuous = (False if structural
                       else self._is_vacuous(design, cone_key, assertion))
        return ProofResult("proven", engine="k-induction", depth=proven_k,
                           vacuous=vacuous,
                           stats={"conflicts": total_conflicts})

    def _k_induction_oneshot(self, design: Design,
                             assertion: Assertion) -> ProofResult:
        """Pre-incremental reference path: fresh AIG + solver per step."""
        window = max(1, horizon_of(assertion) + 1)
        total_conflicts = 0
        for k in range(1, self.max_k + 1):
            K = k + window + 1
            aig = AIG()
            source = UnrolledSource(aig, design, free_init=True)
            encoder = PropertyEncoder(aig, source, K, design.params)
            holds = [encoder.encode_assertion(assertion, t) for t in range(k)]
            target = encoder.encode_assertion(assertion, k)
            env = self._environment(encoder, k)
            query = aig.and_(env, aig.and_(aig.and_many(holds), neg(target)))
            if query == FALSE:
                return ProofResult("proven", engine="k-induction", depth=k,
                                   stats={"conflicts": total_conflicts})
            clauses, node2var, nv = aig.to_cnf([query])
            clauses.append([aig.cnf_literal(query, node2var)])
            result = solve_cnf(nv, clauses, max_conflicts=self.max_conflicts,
                               deadline_at=self._deadline_at)
            total_conflicts += result.conflicts
            if result.is_unsat:
                return ProofResult("proven", engine="k-induction", depth=k,
                                   vacuous=self._is_vacuous_oneshot(design,
                                                                    assertion),
                                   stats={"conflicts": total_conflicts})
            if result.status == "unknown":
                return ProofResult("undetermined", engine="k-induction",
                                   detail="conflict budget exhausted",
                                   stats={"conflicts": total_conflicts})
        return ProofResult("undetermined", engine="k-induction",
                           depth=self.max_k,
                           detail=f"not inductive up to k={self.max_k}",
                           stats={"conflicts": total_conflicts})

    # -- diagnostics -------------------------------------------------------------

    def _is_vacuous(self, design: Design, cone_key: frozenset,
                    assertion: Assertion) -> bool:
        """An implication whose antecedent can never match is vacuously true
        (reported as a flag, as commercial tools do).  Runs on the shared
        reachable-init session."""
        from ..sva.ast_nodes import Implication
        if not isinstance(assertion.prop, Implication):
            return False
        K = self.max_bmc + max(1, horizon_of(assertion) + 1)
        session = self._session(design, cone_key, free_init=False)
        encoder = session.encoder(K)
        aig = session.aig
        fire = []
        for t in range(self.max_bmc + 1):
            ends, _ = encoder.seq(assertion.prop.antecedent, t)
            fire.append(aig.or_many(ends.values()))
        any_fire = aig.or_many(fire)
        if any_fire == FALSE:
            return True
        if any_fire == TRUE:
            return False
        return session.solve([any_fire],
                             max_conflicts=self.max_conflicts).is_unsat

    def _is_vacuous_oneshot(self, design: Design,
                            assertion: Assertion) -> bool:
        from ..sva.ast_nodes import Implication
        if not isinstance(assertion.prop, Implication):
            return False
        K = self.max_bmc + max(1, horizon_of(assertion) + 1)
        aig = AIG()
        source = UnrolledSource(aig, design, free_init=False)
        encoder = PropertyEncoder(aig, source, K, design.params)
        fire = []
        for t in range(self.max_bmc + 1):
            ends, _ = encoder.seq(assertion.prop.antecedent, t)
            fire.append(aig.or_many(ends.values()))
        any_fire = aig.or_many(fire)
        if any_fire == FALSE:
            return True
        if any_fire == TRUE:
            return False
        clauses, node2var, nv = aig.to_cnf([any_fire])
        clauses.append([aig.cnf_literal(any_fire, node2var)])
        return solve_cnf(nv, clauses, max_conflicts=self.max_conflicts,
                         deadline_at=self._deadline_at).is_unsat

    def _extract_cex(self, source: UnrolledSource, model,
                     node2var) -> dict[str, list[int]]:
        frames: dict[str, dict[int, int]] = {}
        for (name, t), bits in source.input_vars.items():
            value = 0
            for i, lit in enumerate(bits):
                var = node2var.get(lit >> 1)
                if var is not None and model.get(var, False):
                    value |= 1 << i
            frames.setdefault(name, {})[t] = value
        return {name: [by_t.get(t, 0) for t in range(max(by_t) + 1)]
                for name, by_t in frames.items()}


def check_trace(assertion: Assertion, trace: dict[str, list[int]],
                widths: dict[str, int], params: dict[str, int] | None = None,
                first_attempt: int = 0,
                last_attempt: int | None = None,
                prehistory: int = 0) -> int | None:
    """Evaluate an assertion on a concrete trace.

    Returns the first attempt cycle that is violated, or None.  Attempts
    whose window would be truncated are skipped (their verdict is unknown).
    ``prehistory`` is the index of cycle 0 within the series (earlier
    entries supply $past/$rose values before the first attempt).

    One-shot wrapper around :class:`TraceChecker`; callers replaying many
    traces against one assertion should hold a ``TraceChecker`` instead.
    """
    length = min((len(v) for v in trace.values()), default=0) - prehistory
    if length <= 0:
        return None
    checker = TraceChecker(assertion, length, widths, params,
                           first_attempt=first_attempt,
                           last_attempt=last_attempt, prehistory=prehistory)
    return checker.first_violation(trace)


def prove_assertion(design: Design, assertion: Assertion,
                    **kwargs) -> ProofResult:
    """One-shot convenience wrapper around :class:`Prover`."""
    return Prover(design, **kwargs).prove(assertion)
