"""Model checking: prove or refute an assertion on an elaborated design.

Replaces JasperGold's proof engines in the Design2SVA evaluation flow.
The public entry point is :class:`Prover` (or the
:func:`prove_assertion` convenience wrapper)::

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
retained between queries instead of being recomputed.  There is no
second implementation to compare against: the reference for every verdict
is the exhaustive soundness oracle under ``tests/oracle/`` (explicit-state
reachability over small designs and a concrete SVA evaluator, sharing no
code with this package; docs/engine.md, "The soundness oracle").

One loop, :meth:`Prover._schedule`, issues the two bounded obligations
-- BMC depth probes and k-induction steps -- and the ``strategy``
configuration is only the order it issues them in: ``auto`` (every
depth, then the steps; the reference), ``bmc`` (depths only), ``kind``
(steps first, then the base cases the proof needs) or ``portfolio``
(one depth and one step per turn under a conflict-budget ladder,
record-identical to ``auto`` but cheaper whenever one side decides
early).  Steps stop at ``min(max_k, max_bmc + 1)``: a step proof at
``k`` stands only once BMC depths ``0..k-1`` are unsat.

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
from .bitsim import (
    MAX_LANES, PackedSimulator, PackedUnsupported, pack_traces,
    packed_violation_lanes,
)
from .bitvec import AigBackend, EvalError, ExprEvaluator, SignalSource
from .coi import assertion_roots, cone_of_influence
from .sat import Solver
from .semantics import EncodingError, PropertyEncoder, horizon_of, reads_to_end

#: the portfolio's default conflict-budget rungs; ``Prover.max_conflicts``
#: is always the last rung, so the ladder's ceiling equals the other
#: strategies' per-query budget
DEFAULT_LADDER = (1_000, 8_000, 64_000)

#: step-AIG node budget per lane of the packed simulator: above
#: ``PACKED_NODES_PER_LANE * sim_traces`` nodes a cone is
#: datapath-dominated and word-level trace generation is faster (16
#: measured best on the bench suite)
PACKED_NODES_PER_LANE = 16

#: RNG seed of the falsifier's trace 0; trace ``l`` is seeded ``+ l``
SIM_SEED = 0xF5E0A1

#: the prover's int options with a range: ``name -> highest`` (None:
#: unbounded), every one at least 0; ``sim_traces`` fits one pack
OPTION_RANGES = {"max_bmc": None, "max_k": None, "sim_cycles": None,
                 "sim_traces": MAX_LANES}


def option_error(options: dict) -> str | None:
    """Why an int in *options* is outside its :data:`OPTION_RANGES`
    range, or None.  Only ints are judged (a bool is not one here); a
    value of another type fails where the engines first use it."""
    for name, high in OPTION_RANGES.items():
        value = options.get(name)
        if type(value) is int and (value < 0
                                   or high is not None and value > high):
            span = ">= 0" if high is None else f"in 0..{high}"
            return f"engine option {name} must be an int {span}, " \
                   f"got {value!r}"
    return None


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
    #: memory-pressure retry, packed-sim fallback...), in the
    #: order the ladder took them.  Empty on the clean path.
    degraded: list = field(default_factory=list)

    @property
    def is_proven(self) -> bool:
        return self.status == "proven"


def _constant_false() -> ProofResult:
    return ProofResult("cex", engine="bmc", depth=0,
                       detail="assertion constant-false")


def _liveness_gate(assertion: Assertion) -> ProofResult | None:
    """A finite window can neither witness nor soundly refute an
    unbounded strong obligation: such an assertion is reported
    undetermined, the documented substitution for liveness engines
    (docs/engine.md); None for every other assertion."""
    if has_unbounded_strong(assertion.prop):
        return ProofResult("undetermined", engine="none",
                           detail="liveness obligation; bounded engines only")
    return None


def _budget_exhausted(engine: str, conflicts: int) -> ProofResult:
    return ProofResult("undetermined", engine=engine,
                       detail="conflict budget exhausted",
                       stats={"conflicts": conflicts})


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

    def solve(self, lits: list[int], max_conflicts: int | None = None):
        """Solve the conjunction of AIG literals *lits* via assumptions.

        Encodes the not-yet-clausified part of each literal's cone, then
        solves with the literals as assumptions, so nothing query-specific
        is ever asserted permanently and learned clauses stay reusable.
        Returns a :class:`~.sat.SatResult`; constant-FALSE literals
        short-circuit to unsat.

        The portfolio re-issues a query that exhausted ``max_conflicts``
        with the next, larger budget (restart-and-deepen), which is cheap
        here because the solver keeps its learned clauses between calls.
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
                                   max_conflicts)
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

    Attempts ``first_attempt .. last_attempt`` (default: the last whose
    window fits in the trace) share one **attempt template**
    (docs/engine.md, "Bit-parallel simulation"), except where the
    property :func:`reads_to_end` or the window does not fit: those keep
    one encoding each over the whole trace (``attempts``).
    """

    def __init__(self, assertion: Assertion, length: int,
                 widths: dict[str, int], params: dict[str, int] | None = None,
                 first_attempt: int = 0, last_attempt: int | None = None,
                 prehistory: int = 0):
        self.length = length
        self.prehistory = prehistory
        self.widths = dict(widths)
        window = max(1, horizon_of(assertion) + 1)
        stop = last_attempt if last_attempt is not None else length - window
        fit = (first_attempt - 1 if reads_to_end(assertion.prop)
               else length - window)
        self.templated = range(first_attempt, min(stop, fit) + 1)
        self.attempts = range(max(first_attempt, fit + 1), stop + 1)
        self.template = self.exact = None
        disable = assertion.disable
        if self.templated:
            self.template = self._cone(window, params, lambda enc: [
                enc.sat(assertion.prop, 0),
                FALSE if disable is None else enc.expr_bool(disable, 0)])
        if self.attempts:
            self.exact = self._cone(length, params, lambda enc: [
                enc.encode_assertion(assertion, t) for t in self.attempts])

    def _cone(self, horizon: int, params, outputs_of) -> tuple:
        """``(aig, inputs, order, outputs)`` of a fresh encoding."""
        from .bitvec import FreeSignalSource
        aig = AIG()
        source = FreeSignalSource(aig, self.widths, default_width=1)
        outputs = outputs_of(PropertyEncoder(aig, source, horizon, params))
        return aig, source._cache, aig.cone(outputs), outputs

    def violations(self, packed):
        """``(attempt, violating lanes)`` of *packed*, in attempt order.
        A disable anywhere from an attempt's start to the trace end
        aborts it."""
        from .bitsim import block_values
        lanes, mask = packed.lanes, packed.mask
        if self.template is not None:
            first = self.templated.start
            blocks = self.length - first  # the abort reads to the end
            sat, aborted = block_values(self.template, packed,
                                        first + self.prehistory, blocks)
            shift = lanes
            while shift < blocks * lanes:  # suffix OR over the blocks
                aborted |= aborted >> shift
                shift *= 2
            bad = ~(sat | aborted)
            for j, t in enumerate(self.templated):
                viol = (bad >> (j * lanes)) & mask
                if viol:
                    yield t, viol
        if self.exact is not None:
            values = block_values(self.exact, packed, self.prehistory, 1)
            for t, value in zip(self.attempts, values):
                if value != mask:
                    yield t, value ^ mask

    def first_violation(self, trace: dict[str, list[int]]) -> int | None:
        """First violated attempt cycle on *trace*, or None."""
        from .bitsim import pack_traces
        packed = pack_traces([trace], self.widths)
        return next((t for t, _lanes in self.violations(packed)), None)


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
                 use_simulation: bool = True,
                 use_packed_sim: bool = True, simplify: bool = True,
                 strategy: str = "auto",
                 portfolio_ladder: tuple[int, ...] | None = None,
                 profile: dict | None = None):
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"expected one of {self.STRATEGIES}")
        bad = option_error({"max_bmc": max_bmc, "max_k": max_k,
                            "sim_cycles": sim_cycles,
                            "sim_traces": sim_traces})
        if bad:
            raise ValueError(bad)
        self.design = design
        self.max_bmc = max_bmc
        self.max_k = max_k
        self.max_conflicts = max_conflicts
        self.sim_traces = sim_traces
        self.sim_cycles = sim_cycles
        self.use_coi = use_coi
        self.use_simulation = use_simulation
        #: False forces word-level trace generation on every cone (the
        #: falsifier's reference); the check is the same either way
        self.use_packed_sim = use_packed_sim
        self.simplify = simplify
        #: the order :meth:`_schedule` issues BMC depth probes and
        #: k-induction steps in: 'auto' (every depth, then the steps --
        #: the reference), 'bmc' (depths only), 'kind' (steps first) or
        #: 'portfolio' (one of each per turn under a conflict-budget
        #: ladder)
        self.strategy = strategy
        #: conflict-budget rungs of the portfolio (None: the module
        #: default, 1k -> 8k -> 64k -> ``max_conflicts``)
        self.portfolio_ladder = portfolio_ladder
        #: per-stage wall-clock and solver totals, accumulated across
        #: prove() calls; pass a shared dict to aggregate over provers
        self.profile: dict = profile if profile is not None else {}
        self._assumes: tuple[Assertion, ...] = ()
        #: absolute wall-clock deadline of the in-flight prove() (None
        #: off-deadline); propagated to every session's solver
        self._deadline_at: float | None = None
        #: FaultEvent accumulator of the in-flight prove() -- the
        #: degradation ladder and the simulation fallbacks append here
        self._fault_events: list | None = None
        self._coi_cache: dict[frozenset, Design] = {}
        self._sessions: dict[tuple[frozenset, bool], ProofSession] = {}
        self._trace_cache: dict[frozenset, list[dict[str, list[int]]]] = {}
        #: cone -> its PackedSimulator pack (None: word-level traces), and
        #: (cone, lanes) -> a pack of its first word-level traces
        self._packed_cache: dict = {}
        #: why the design's reset state cannot be simulated (an
        #: :class:`EvalError`, e.g. an unsupported system function in
        #: its logic), or None: every prove() then answers ``error``
        #: with it, as for an assertion the engines cannot evaluate
        self._init_error: str | None = None
        if not design.init and design.state:
            from ..rtl.simulator import derive_init
            try:
                derive_init(design)
            except EvalError as exc:
                self._init_error = str(exc)

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
        (``MemoryError`` / ``RecursionError``) are retried once on fresh
        incremental sessions; every degradation step is recorded in
        ``ProofResult.degraded`` (docs/robustness.md).
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
                    if self._init_error is not None:
                        raise EvalError(self._init_error)
                    result = self._dispatch(design, cone_key, assertion)
                except (EncodingError, EvalError) as exc:
                    result = ProofResult("error", detail=str(exc))
                except (MemoryError, RecursionError) as exc:
                    result = self._retry_fresh(design, cone_key,
                                               assertion, exc, events)
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

    def _retry_fresh(self, design: Design, cone_key: frozenset,
                     assertion: Assertion, exc: BaseException,
                     events: list) -> ProofResult:
        """Degradation rung for resource faults: the incremental sessions
        (possibly corrupted mid-mutation) and the simulation caches are
        dropped, releasing their memory, and the obligation loop runs
        once more, without the simulation pass, on fresh sessions (which
        inherit the in-flight deadline through :meth:`_session`).  A
        second resource fault becomes an error result -- never a raised
        exception."""
        faults = _faults()
        events.append(faults.classify(exc, stage="prover", attempt=0))
        self._sessions.clear()
        self._trace_cache.clear()
        self._packed_cache.clear()
        try:
            gated = _liveness_gate(assertion)
            if gated is not None:
                return gated
            return self._schedule(design, cone_key, assertion)
        except (MemoryError, RecursionError) as exc2:
            event = faults.classify(exc2, stage="prover", attempt=1)
            event.retryable = False  # the ladder has no lower rung
            events.append(event)
            return ProofResult(
                "error",
                detail=f"{type(exc2).__name__} persisted after a retry "
                       f"on fresh sessions")

    def _dispatch(self, design: Design, cone_key: frozenset,
                  assertion: Assertion) -> ProofResult:
        """Run the configured strategy after the shared cheap gates."""
        gated = _liveness_gate(assertion)
        if gated is not None:
            return gated
        if self.use_simulation:
            with self._stage("sim_s"):
                cex = self._simulate_falsify(design, cone_key, assertion)
            if cex is not None:
                return ProofResult("cex", engine="simulation",
                                   counterexample=cex)
        return self._schedule(design, cone_key, assertion)

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
        (no-op outside a prove call)."""
        events = self._fault_events
        if events is not None:
            events.append(_faults().FaultEvent(
                code, stage=stage, retryable=retryable, detail=detail))

    # -- simulation falsifier --------------------------------------------------------

    def _packs(self, design: Design, cone_key: frozenset):
        """The cone's random traces as packs, in check order, each built
        on first use and cached per cone (simulation is seeded, so trace
        ``l`` of a cone is the same on every prove() call).

        A cone that bit-blasts within :data:`PACKED_NODES_PER_LANE` per
        lane yields one :class:`~.bitsim.PackedSimulator` pack.  Any
        other cone, and every cone under ``use_packed_sim=False``, gets
        word-level :class:`~repro.rtl.simulator.Simulator` traces: trace
        0 alone first -- most flawed samples die on it, before the other
        traces are generated -- then all of them.  Lane ``l`` is the same
        trace on both generators.
        """
        packed = (self._packed_sim(design, cone_key)
                  if self.use_packed_sim else None)
        if packed is not None:
            yield packed
            return
        yield self._word_pack(design, cone_key, 1)
        if self.sim_traces > 1:
            yield self._word_pack(design, cone_key, self.sim_traces)

    def _packed_sim(self, design: Design, cone_key: frozenset):
        """The cone's bit-parallel pack, or None where the step AIG is
        over budget or outside the packed subset (recorded, not fatal)."""
        cached = self._packed_cache.get(cone_key, False)
        if cached is not False:
            return cached
        packed = None
        try:
            with self._stage("sim_gen_s"):
                sim = PackedSimulator(
                    design, max_nodes=PACKED_NODES_PER_LANE * self.sim_traces)
                packed = sim.run(lanes=self.sim_traces, seed_base=SIM_SEED,
                                 cycles=self.sim_cycles)
        except PackedUnsupported as exc:
            self._record_fault("aig_overflow", stage="simulation",
                               detail=str(exc)[:200])
        except Exception as exc:
            # unexpected packed-sim failure: the word-level generator
            # yields the same traces (degradation ladder rung)
            self._record_fault("packed_sim", stage="simulation",
                               detail=f"{type(exc).__name__}: {exc}"[:200])
        self._packed_cache[cone_key] = packed
        return packed

    def _word_pack(self, design: Design, cone_key: frozenset, lanes: int):
        """The cone's first *lanes* word-level traces as a lazily
        transposing pack (a wide datapath is one opcode here, hundreds
        of ANDs bit-blasted)."""
        key = (cone_key, lanes)
        packed = self._packed_cache.get(key)
        if packed is None:
            from ..rtl.simulator import Simulator
            with self._stage("sim_gen_s"):
                traces = self._trace_cache.setdefault(cone_key, [])
                while len(traces) < lanes:
                    sim = Simulator(design, seed=SIM_SEED + len(traces))
                    sim.reset()
                    sim.run_random(self.sim_cycles)
                    traces.append(sim.trace())
                packed = pack_traces(traces[:lanes], design.widths)
            self._packed_cache[key] = packed
        return packed

    def _simulate_falsify(self, design: Design, cone_key: frozenset,
                          assertion: Assertion) -> dict | None:
        """The first random trace that violates *assertion* and no
        assume, or None: per pack, one check of every lane."""
        bump(self.profile, "sim_candidates", 1)
        bump(self.profile, "sim_passes", 1)
        window = max(1, horizon_of(assertion) + 1)
        start = 2  # skip the reset phase
        length = self.sim_cycles + 2  # reset() contributes two frames
        last = length - window
        if last < start or not self.sim_traces:
            return None  # no trace, or no attempt's window fits in one
        with self._stage("sim_build_s"):
            checker = TraceChecker(assertion, length, design.widths,
                                   design.params, first_attempt=start,
                                   last_attempt=last)
            assume_checkers = [
                TraceChecker(a, length, design.widths, design.params,
                             first_attempt=start, last_attempt=last)
                for a in self._assumes]
        for c in (checker, *assume_checkers):
            bump(self.profile, "sim_templates", int(c.template is not None))
            bump(self.profile, "sim_attempt_encodings", len(c.attempts))
        for packed in self._packs(design, cone_key):
            with self._stage("sim_check_s"):
                eligible = packed.mask
                for c in assume_checkers:
                    eligible &= ~packed_violation_lanes(c, packed)
                viol = packed_violation_lanes(checker, packed) & eligible
            if viol:
                return packed.lane_trace((viol & -viol).bit_length() - 1)
        return None

    def _environment(self, encoder: PropertyEncoder, attempts: int) -> int:
        """Conjunction of all assume attempts over the unrolled window."""
        lits = []
        for a in self._assumes:
            for t in range(attempts + 1):
                lits.append(encoder.encode_assertion(a, t))
        return encoder.aig.and_many(lits)

    # -- the obligation loop -------------------------------------------------

    def _last_step(self) -> int:
        """The deepest k-induction step worth attempting.

        A step proof at ``k`` stands only with its base cases, BMC depths
        ``0..k-1``, and the BMC window holds depths ``0..max_bmc``; a
        step beyond ``max_bmc + 1`` would be a proof without base."""
        return min(self.max_k, self.max_bmc + 1)

    def _rungs(self) -> list[int]:
        """The portfolio's conflict budgets: the ladder's rungs below
        ``max_conflicts`` in ascending order, then ``max_conflicts``."""
        ladder = (DEFAULT_LADDER if self.portfolio_ladder is None
                  else self.portfolio_ladder)
        cap = self.max_conflicts
        return sorted({r for r in ladder if 0 < r < cap}) + [cap]

    def _exhausted(self, stats: dict) -> ProofResult:
        """The verdict when every obligation ran and none decided."""
        if self.strategy == "bmc":
            return ProofResult(
                "undetermined", engine="bmc", depth=self.max_bmc,
                detail=f"no counterexample within bound {self.max_bmc}",
                stats=stats)
        last = self._last_step()
        return ProofResult("undetermined", engine="k-induction", depth=last,
                           detail=f"not inductive up to k={last}",
                           stats=stats)

    def _bmc_obligations(self, design: Design, cone_key: frozenset,
                         assertion: Assertion):
        """The BMC side of *assertion* on its cone session.

        Returns ``(session, env, violations, depths)``: the reachable-init
        :class:`ProofSession`, the environment literal over the full
        ``max_bmc`` window, one violation literal per depth
        ``0..max_bmc``, and the depths worth a solve -- those whose
        ``env & violation`` does not fold to FALSE.  ``depths`` is None
        when ``env & (any violation)`` folds to TRUE: the assertion is
        constant-false.
        """
        window = max(1, horizon_of(assertion) + 1)
        session = self._session(design, cone_key, free_init=False)
        encoder = session.encoder(self.max_bmc + window)
        aig = session.aig
        env = self._environment(encoder, self.max_bmc)
        violations = [neg(encoder.encode_assertion(assertion, t))
                      for t in range(self.max_bmc + 1)]
        any_violation = aig.and_(env, aig.or_many(violations))
        if any_violation == TRUE:
            return session, env, violations, None
        depths = ([] if any_violation == FALSE else
                  [t for t, v in enumerate(violations)
                   if aig.and_(env, v) != FALSE])
        return session, env, violations, depths

    def _kind_step_obligation(self, design: Design, cone_key: frozenset,
                              assertion: Assertion, k: int):
        """The induction-step encoding at depth *k*.

        Returns ``(session, lits, query)``: the free-init
        :class:`ProofSession`, the assumption literals (environment, base
        obligations ``holds(0..k-1)``, negated target at ``k``) and their
        structural conjunction (``FALSE`` means the step case holds
        structurally).
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

    def _schedule(self, design: Design, cone_key: frozenset,
                  assertion: Assertion) -> ProofResult:
        """The one obligation loop behind every incremental strategy.

        Two obligations exist: a BMC *depth probe* ``t`` (a violation
        reachable ``t`` cycles after reset) and a k-induction *step*
        ``k`` (``k`` satisfied attempts from a free state force the
        next).  Both live in one persistent session per cone and init
        mode, and a strategy is only the order they are issued in:

        * ``auto`` -- every depth, then steps ``1, 2, ...``;
        * ``bmc`` -- the depths only;
        * ``kind`` -- steps first; a step proof at ``k`` then encodes the
          BMC side and probes depths ``0..k-1``;
        * ``portfolio`` -- one depth and one step per turn, over the
          rungs of :meth:`_rungs`: a query that exhausts its rung is
          requeued for the next, and a step proof at ``k`` cancels the
          depths ``>= k``.

        A step proof at ``k`` counts once depths ``0..k-1`` are unsat,
        and steps stop at :meth:`_last_step`, so a ``proven`` always has
        its base cases.  ``auto``, ``bmc`` and ``kind`` stop at the first
        query that exhausts ``max_conflicts``; the portfolio ends
        ``undetermined`` on the budget only when nothing else decides
        (docs/engine.md, "Strategies").
        """
        strategy = self.strategy
        portfolio = strategy == "portfolio"
        last_k = 0 if strategy == "bmc" else self._last_step()
        window = max(1, horizon_of(assertion) + 1)
        bmc = None  # (session, env, violations) once the side is encoded
        depths: list[int] = []
        if strategy != "kind":
            with self._stage("bmc_s"):
                *bmc, depths = self._bmc_obligations(design, cone_key,
                                                     assertion)
            if depths is None:
                return _constant_false()
        k, proven, structural = 1, None, False
        conflicts = solves = requeues = cancelled = 0
        try:
            for rung in self._rungs() if portfolio else [self.max_conflicts]:
                requeued: list[int] = []
                stalled = False  # the step at k exhausted this rung
                while True:
                    step = (proven is None and k <= last_k and not stalled
                            and (strategy != "auto" or not depths))
                    if not depths and not step:
                        break
                    if depths:
                        t = depths.pop(0)
                        session, env, violations = bmc
                        with self._stage("bmc_s"):
                            result = session.solve([env, violations[t]],
                                                   max_conflicts=rung)
                        solves += 1
                        conflicts += result.conflicts
                        if result.is_sat:
                            cex = session.extract_cex(
                                result.model, max_t=self.max_bmc + window - 1)
                            return ProofResult(
                                "cex", engine="bmc", depth=self.max_bmc,
                                counterexample=cex,
                                stats={"conflicts": conflicts,
                                       "cex_depth": t})
                        if result.status == "unknown":
                            if not portfolio:
                                return _budget_exhausted("bmc", conflicts)
                            requeued.append(t)
                            requeues += 1
                    if not step:
                        continue
                    with self._stage("kind_s"):
                        session, lits, query = self._kind_step_obligation(
                            design, cone_key, assertion, k)
                        result = (None if query == FALSE else
                                  session.solve(lits, max_conflicts=rung))
                    if result is not None:
                        solves += 1
                        conflicts += result.conflicts
                        if result.is_sat:
                            k += 1
                            continue
                        if result.status == "unknown":
                            if not portfolio:
                                return _budget_exhausted("k-induction",
                                                         conflicts)
                            stalled = True
                            requeues += 1
                            continue
                    proven, structural = k, result is None
                    if bmc is None:
                        with self._stage("bmc_s"):
                            *bmc, depths = self._bmc_obligations(
                                design, cone_key, assertion)
                        if depths is None:
                            return _constant_false()
                    # the proof needs base depths 0..k-1 only
                    before = len(depths) + len(requeued)
                    depths = [t for t in depths if t < k]
                    requeued = [t for t in requeued if t < k]
                    cancelled += before - len(depths) - len(requeued)
                depths = requeued
                if depths:
                    continue
                if proven is not None:
                    with self._stage("kind_s"):
                        vacuous = not structural and self._is_vacuous(
                            design, cone_key, assertion)
                    return ProofResult("proven", engine="k-induction",
                                       depth=proven, vacuous=vacuous,
                                       stats={"conflicts": conflicts})
                if k > last_k:
                    return self._exhausted({"conflicts": conflicts})
            # every rung spent, the last one at the full max_conflicts
            return _budget_exhausted("bmc" if depths else "k-induction",
                                     conflicts)
        finally:
            if portfolio:
                bump(self.profile, "portfolio_solves", solves)
                bump(self.profile, "portfolio_requeues", requeues)
                bump(self.profile, "portfolio_cancelled", cancelled)

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


def check_trace(assertion: Assertion, trace: dict[str, list[int]],
                widths: dict[str, int], params: dict[str, int] | None = None,
                first_attempt: int = 0,
                last_attempt: int | None = None,
                prehistory: int = 0) -> int | None:
    """Evaluate an assertion on a concrete trace.

    Returns the first attempt cycle that is violated, or None.  Attempts
    whose ``horizon_of + 1``-frame window the trace would truncate are
    skipped (their verdict is unknown; a trace shorter than the window
    has none) unless an explicit ``last_attempt`` asks for them.
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
