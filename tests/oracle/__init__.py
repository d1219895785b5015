"""The soundness oracle: exhaustive ground truth for the prover's verdicts.

* :mod:`oracle.sva_eval` -- a concrete evaluator of one parsed assertion
  on one finite trace (nothing from ``repro.formal``);
* :mod:`oracle.reach` -- explicit-state reachability of small designs
  from reset, and the judge that holds every strategy's ``proven``,
  ``cex`` and ``vacuous`` against it.

``tests/test_formal_oracle.py`` runs it (docs/engine.md, "The soundness
oracle").
"""
