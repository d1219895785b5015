"""Exhaustive ground truth for the engines' verdicts.

* :mod:`oracle.sva_eval` -- a concrete evaluator of one parsed assertion
  on one finite trace (nothing from ``repro.formal``);
* :mod:`oracle.reach` -- the soundness oracle: explicit-state
  reachability of small designs from reset, and the judge that holds
  every strategy's ``proven``, ``cex`` and ``vacuous`` against it;
  :mod:`oracle.cases` draws its designs and assertions;
* :mod:`oracle.equiv` -- the equivalence oracle: every trace of a
  pair's free 1-bit signals, and the judge that holds the equivalence
  checker's four NL2SVA verdicts and counterexamples against it
  (nothing from ``repro.formal``); :mod:`oracle.pairs` draws the
  NL2SVA pairs.

``tests/test_formal_oracle.py`` and ``tests/test_equiv_oracle.py`` run
them (docs/engine.md, "The soundness oracle" and "The equivalence
oracle").
"""
