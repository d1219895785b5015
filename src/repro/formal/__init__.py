"""Formal engine: SAT-based equivalence checking and model checking.

This package replaces JasperGold in the FVEval evaluation flow:

* :mod:`~repro.formal.equivalence` -- assertion-to-assertion equivalence and
  implication (the paper's custom Jasper app),
* :mod:`~repro.formal.prover` -- BMC + k-induction proofs of assertions on
  elaborated designs (Design2SVA's "is it proven?" verdict); one
  obligation loop serves every ``strategy``, the conflict-budget ladder
  of ``Prover(strategy="portfolio")`` included,
* supporting layers: AIG (:mod:`~repro.formal.aig`), CDCL SAT
  (:mod:`~repro.formal.sat`), bit-blasting (:mod:`~repro.formal.bitvec`),
  bounded SVA trace semantics (:mod:`~repro.formal.semantics`), and
  cone-of-influence reduction (:mod:`~repro.formal.coi`).
"""

from .aig import AIG, FALSE, TRUE, CnfWriter, neg
from .bitvec import (
    AigBackend,
    EvalError,
    ExprEvaluator,
    FixedTraceSource,
    FreeSignalSource,
    IntBackend,
    SignalSource,
)
from .coi import assertion_roots, coi_stats, cone_of_influence
from .equivalence import (
    EquivChecker,
    EquivSession,
    EquivalenceResult,
    Verdict,
    check_equivalence,
    is_tautology,
)
from .prover import (
    DEFAULT_LADDER,
    ProofResult,
    ProofSession,
    Prover,
    TraceChecker,
    UnrolledSource,
    check_trace,
    has_unbounded_strong,
    prove_assertion,
)
from .sat import SatResult, Solver, solve_cnf
from .semantics import EncodingError, PropertyEncoder, horizon_of

__all__ = [
    "AIG", "AigBackend", "CnfWriter", "DEFAULT_LADDER", "EncodingError",
    "EquivChecker", "EquivSession",
    "EquivalenceResult", "EvalError", "ExprEvaluator", "FALSE",
    "FixedTraceSource", "FreeSignalSource", "IntBackend", "ProofResult",
    "ProofSession", "PropertyEncoder", "Prover",
    "SatResult", "SignalSource", "Solver", "TRUE", "TraceChecker",
    "UnrolledSource", "Verdict", "assertion_roots", "check_equivalence",
    "check_trace", "coi_stats", "cone_of_influence",
    "has_unbounded_strong", "horizon_of", "is_tautology", "neg",
    "prove_assertion", "solve_cnf",
]
