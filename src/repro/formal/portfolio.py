"""Portfolio proving under a conflict-budget ladder.

A proof obligation rarely announces which engine will decide it cheaply:
flawed assertions die on a shallow BMC depth, most correct ones are
inductive at small k, and a hard one can sink either engine for the whole
conflict budget.  ``auto`` runs the engines in sequence (every BMC depth,
then every induction step); the portfolio *races* them instead:

* **BMC depth probes** -- one assumption-activated violation target per
  depth ``0..max_bmc`` on the reachable-init :class:`~.prover.ProofSession`;
* **k-induction steps** -- the free-init step obligations ``k=1..max_k``,
  attempted strictly in order (step ``k+1`` only after step ``k`` is known
  non-inductive, so a ``proven`` depth matches the sequential engine's);
* the **packed-lane simulation falsifier** opens every strategy from
  :meth:`~.prover.Prover.prove` before the scheduler starts -- concrete
  counterexamples are the cheapest verdict of all.

Obligations are attempted round-robin under a growing conflict budget
(default rungs ``1k -> 8k -> 64k -> max_conflicts``): an attempt that
exhausts the rung's budget is requeued for the next rung
(*restart-and-deepen*), which costs little because the incremental
solver keeps its learned clauses between attempts.  The first sound
verdict wins and the remaining obligations are cancelled:

* a **sat** BMC probe is a counterexample, immediately;
* an **unsat** k-induction step at ``k`` proves the property once the
  base cases are discharged -- i.e. once BMC depths ``0..k-1`` are unsat
  -- at which point the deeper BMC probes are dropped unsolved;
* all steps non-inductive + all depths unsat reproduces ``auto``'s
  ``not inductive up to k=max_k`` verdict.

Soundness: every accepted verdict is backed by the same queries the
sequential engines issue -- budgets only ever turn a decided answer into
``unknown`` (retry), never the reverse, and a step-case proof is withheld
until its base cases are complete.  Verdicts are record-identical to
``strategy="auto"`` whenever no query exhausts the full
``max_conflicts`` budget (``tests/test_formal_portfolio.py``).  The one
documented divergence window is full budget exhaustion: a query that
``auto`` gives up on (reporting ``undetermined``) may be unnecessary to
the portfolio -- e.g. a hard BMC depth ``>= k`` cancelled by an
induction proof at ``k`` -- letting the portfolio soundly return
``proven`` or ``cex`` where ``auto`` stopped early.  The portfolio's
verdict is never *less* decided than ``auto``'s on the same budget.

The race runs on one thread, as the rung-requeue interleaving of
:class:`PortfolioScheduler`.  Parallelism lives at the layers above:
the verification service's process executor spreads independent design
cones over worker processes (:mod:`repro.service.procpool`),
:mod:`repro.core.runner` fans independent problems across
``FVEVAL_JOBS`` workers, and the verdict cache
(:mod:`repro.core.cache`) arbitrates duplicate obligations between
them.
"""

from __future__ import annotations

from .aig import FALSE, TRUE
from .prover import ProofResult, bump
from .semantics import horizon_of

#: default conflict-budget rungs; ``Prover.max_conflicts`` is always
#: appended as the final rung so the ladder's ceiling equals the
#: sequential engines' per-query budget
DEFAULT_LADDER = (1_000, 8_000, 64_000)


class PortfolioScheduler:
    """Races BMC depth probes against k-induction steps for one assertion.

    Built by :meth:`~.prover.Prover.prove` when ``strategy="portfolio"``;
    reuses the prover's cached :class:`~.prover.ProofSession` pair (so the
    unrolling, CNF and learned clauses are shared with any other strategy
    run on the same cone) and accumulates its scheduling counters into
    ``prover.profile`` (``portfolio_solves`` / ``portfolio_requeues`` /
    ``portfolio_cancelled``).
    """

    def __init__(self, prover, design, cone_key, assertion,
                 ladder: tuple[int, ...] | None = None):
        self.prover = prover
        self.design = design
        self.cone_key = cone_key
        self.assertion = assertion
        if ladder is None:
            ladder = (prover.portfolio_ladder
                      if prover.portfolio_ladder is not None
                      else DEFAULT_LADDER)
        raw = tuple(ladder)
        cap = prover.max_conflicts
        rungs = sorted({r for r in raw if 0 < r < cap})
        self.rungs: list[int] = rungs + [cap]
        self.solves = 0
        self.requeues = 0
        self.cancelled = 0

    # -- main loop -----------------------------------------------------------

    def run(self) -> ProofResult:
        prover, assertion = self.prover, self.assertion
        window = max(1, horizon_of(assertion) + 1)
        K = prover.max_bmc + window

        # BMC side: the same encoding Prover._bmc probes, built once
        bmc_session, env, violations, any_violation = \
            prover._bmc_obligations(self.design, self.cone_key, assertion)
        aig = bmc_session.aig
        if any_violation == TRUE:
            return ProofResult("cex", engine="bmc", depth=0,
                               detail="assertion constant-false")
        if any_violation == FALSE:
            bmc_pending: list[int] = []  # structurally violation-free
        else:
            bmc_pending = [t for t, v in enumerate(violations)
                           if aig.and_(env, v) != FALSE]

        # k-induction side: strictly sequential step attempts
        kind_next = 1
        kind_exhausted = prover.max_k < 1
        proven_k: int | None = None
        proven_structurally = False
        conflicts = 0

        for rung in self.rungs:
            requeued: list[int] = []
            kind_stalled = False
            while True:
                progressed = False
                # one BMC depth probe
                if bmc_pending:
                    t = bmc_pending.pop(0)
                    with prover._stage("bmc_s"):
                        result = bmc_session.solve([env, violations[t]],
                                                   conflict_budget=rung)
                    self.solves += 1
                    conflicts += result.conflicts
                    if result.is_sat:
                        self._flush_stats()
                        cex = bmc_session.extract_cex(result.model,
                                                      max_t=K - 1)
                        return ProofResult(
                            "cex", engine="bmc", depth=prover.max_bmc,
                            counterexample=cex,
                            stats={"conflicts": conflicts, "cex_depth": t})
                    if result.status == "unknown":
                        requeued.append(t)
                        self.requeues += 1
                    progressed = True
                # one k-induction step (until the step case is discharged)
                if (proven_k is None and not kind_exhausted
                        and not kind_stalled):
                    k = kind_next
                    session, lits, query = prover._kind_step_obligation(
                        self.design, self.cone_key, assertion, k)
                    if query == FALSE:
                        proven_k, proven_structurally = k, True
                    else:
                        with prover._stage("kind_s"):
                            result = session.solve(lits,
                                                   conflict_budget=rung)
                        self.solves += 1
                        conflicts += result.conflicts
                        if result.is_unsat:
                            proven_k = k
                        elif result.is_sat:
                            kind_next = k + 1
                            kind_exhausted = kind_next > prover.max_k
                        else:
                            kind_stalled = True
                            self.requeues += 1
                    if proven_k is not None:
                        # the proof only needs base depths 0..k-1: cancel
                        # every deeper BMC probe unsolved
                        before = len(bmc_pending) + len(requeued)
                        bmc_pending = [t for t in bmc_pending
                                       if t < proven_k]
                        requeued = [t for t in requeued if t < proven_k]
                        self.cancelled += (before - len(bmc_pending)
                                           - len(requeued))
                    progressed = True
                if not progressed:
                    break
            bmc_pending = requeued
            if not bmc_pending:
                if proven_k is not None:
                    self._flush_stats()
                    vacuous = (False if proven_structurally
                               else prover._is_vacuous(
                                   self.design, self.cone_key, assertion))
                    return ProofResult("proven", engine="k-induction",
                                       depth=proven_k, vacuous=vacuous,
                                       stats={"conflicts": conflicts})
                if kind_exhausted:
                    self._flush_stats()
                    return ProofResult(
                        "undetermined", engine="k-induction",
                        depth=prover.max_k,
                        detail=f"not inductive up to k={prover.max_k}",
                        stats={"conflicts": conflicts})
        # ladder exhausted at the full per-query budget: same verdict the
        # sequential engines map a budget-exhausted solve to
        self._flush_stats()
        engine = "bmc" if bmc_pending else "k-induction"
        return ProofResult("undetermined", engine=engine,
                           detail="conflict budget exhausted",
                           stats={"conflicts": conflicts})

    def _flush_stats(self) -> None:
        profile = self.prover.profile
        for key, value in (("portfolio_solves", self.solves),
                           ("portfolio_requeues", self.requeues),
                           ("portfolio_cancelled", self.cancelled)):
            bump(profile, key, value)
