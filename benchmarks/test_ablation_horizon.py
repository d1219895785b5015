"""Ablation: one equivalence horizon against two.

docs/architecture.md decision 1: a verdict is computed at one horizon,
``default_horizon`` of the pair.  The checker used to solve every
candidate at a second, longer one (``base + 3``) as well.  This bench
holds the one against the two over the equivalence oracle's pairs
(``tests/oracle/pairs.py``: the NL2SVA-Human corpus and NL2SVA-Machine
references against simulated responses and single mutants, every signal
1 bit): the checker's verdict at ``(base,)`` must be its verdict at
``(base, base + 3)`` on every pair, and the bench measures what the
second horizon costs.  The oracle itself (``tests/test_equiv_oracle.py``)
enumerates the unbounded pairs at both lengths.
"""

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracle.pairs import human_pairs, machine_pairs  # noqa: E402

from repro.formal.equivalence import (  # noqa: E402
    check_equivalence,
    default_horizon,
)


@functools.cache
def _pairs():
    return tuple(human_pairs() + machine_pairs(12, 0))


def _results(longer):
    out = []
    for pair in _pairs():
        base = default_horizon(pair.reference, pair.candidate)
        out.append(check_equivalence(
            pair.reference, pair.candidate, params=pair.params,
            horizons=(base, base + 3) if longer else (base,)))
    return out


def test_horizon_stability(benchmark):
    one = benchmark.pedantic(_results, args=(False,), iterations=1,
                             rounds=1)
    two = _results(True)
    moved = [(pair.name, a.verdict.value, b.verdict.value)
             for pair, a, b in zip(_pairs(), one, two)
             if a.verdict != b.verdict]
    print(f"\none horizon vs two: {len(one) - len(moved)}/{len(one)} "
          f"verdicts agree")
    assert moved == []


def test_horizon_cost_scaling(benchmark):
    one = _results(False)
    two = benchmark.pedantic(_results, args=(True,), iterations=1,
                             rounds=1)
    cost = {name: [sum(r.stats.get(name, 0) for r in results)
                   for results in (one, two)]
            for name in ("sessions", "decisions", "propagations")}
    print(f"\nsolver work, one horizon vs two: {cost}")
    # the second horizon is a second session and more search per check
    for fewer, more in cost.values():
        assert fewer < more
