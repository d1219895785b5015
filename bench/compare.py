#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py`` metric by metric.

::

    python3 bench/compare.py A.json B.json    # is B worse than A?
    python3 bench/compare.py A.json           # medians and spreads of A

A result set is what the human form of ``run.py`` writes (``--out``,
``--repeats N`` for runs at N consecutive seeds).  For every workload and
end-to-end metric:

* both sets ran exactly the same seeds -- the runs are *paired* by seed,
  so input variation cancels: B is worse by the median of the per-seed
  relative differences, the noise is their inter-quartile distance, and
  the bound is the tighter same-seed bound of ``bench/metrics.py``;
* otherwise the medians of the two sets are compared, the noise is the
  larger of the sets' own quartile spreads, and the bound is the one in
  ``BENCHMARK.json``.

``ok``          B is not worse than A by more than the bound
``worse``       it is (exit status 1)
``unresolved``  the noise exceeds the bound -- or there are fewer than
                three runs to measure it and the difference exceeds the
                bound -- so the sets cannot tell (reported, not failed)

Per-layer counts marked exact in ``bench/metrics.py`` must be identical
between traced runs of the same in-process workload and seed (exit
status 1).  Over HTTP the interleaving of two connections or replicas
decides pool reuse, so counts there are reported, not required.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import harness, metrics  # noqa: E402


def load(path) -> dict:
    """``{(workload, traced): {seed: metrics}}`` of a result-set file."""
    by_key: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by_key.setdefault((run["workload"], run["traced"]), {})[
            run["seed"]] = {name: metric["value"]
                            for name, metric in run["metrics"].items()}
    return by_key


def bound_for(metric: str, workload: str, same_seeds: bool) -> float:
    if not same_seeds:
        return metrics.END_TO_END[metric][2]
    if metric in ("wall_s", "verdicts_per_s") \
            and workload not in metrics.IN_PROCESS:
        return metrics.HTTP_WALL_BOUND
    return metrics.SAME_SEED_BOUNDS[metric]


def worsening(metric: str, a: float, b: float) -> float:
    """By what share of A's median B is worse (negative: better)."""
    better = metrics.END_TO_END[metric][1]
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(worse: float, noise: float, runs: int, bound: float) -> str:
    if runs < 3:
        return "ok" if worse <= bound else "unresolved"
    if noise > bound:
        return "unresolved"
    return "worse" if worse > bound else "ok"


def compare(a: dict, b: dict | None) -> int:
    status = 0
    for workload in metrics.WORKLOADS:
        runs_a = a.get((workload, False), {})
        runs_b = (b or {}).get((workload, False), {})
        if not runs_a or (b is not None and not runs_b):
            continue
        paired = b is not None and sorted(runs_a) == sorted(runs_b)
        print(f"{workload}  (seeds {sorted(runs_a)}"
              + (", paired by seed" if paired else "") + ")")
        for metric in metrics.END_TO_END:
            values_a = [run[metric] for run in runs_a.values()]
            bound = bound_for(metric, workload, paired)
            line = (f"  {metric:16s} A {statistics.median(values_a):12.5g} "
                    f"spread {harness.spread(values_a):6.1%}")
            if b is None:
                print(f"{line}  bound {bound:.0%}")
                continue
            values_b = [run[metric] for run in runs_b.values()]
            if paired:
                differences = [worsening(metric, runs_a[seed][metric],
                                         runs_b[seed][metric])
                               for seed in runs_a]
                worse = statistics.median(differences)
                noise = (harness.spread([1 + d for d in differences])
                         if len(differences) > 1 else 0.0)
            else:
                worse = worsening(metric, statistics.median(values_a),
                                  statistics.median(values_b))
                noise = max(harness.spread(values_a),
                            harness.spread(values_b))
            verdict = judge(worse, noise, min(len(values_a), len(values_b)),
                            bound)
            status |= verdict == "worse"
            print(f"{line}  B {statistics.median(values_b):12.5g}  "
                  f"worse by {worse:+6.1%}  noise {noise:6.1%}  "
                  f"bound {bound:.0%}  {verdict}")
        if workload in metrics.IN_PROCESS:
            status |= compare_counts(a.get((workload, True), {}),
                                     (b or {}).get((workload, True), {}))
    return int(status)


def compare_counts(traced_a: dict, traced_b: dict) -> int:
    status = 0
    exact = [name for name, row in metrics.PER_LAYER.items() if row[2]]
    for seed in sorted(set(traced_a) & set(traced_b)):
        differing = [name for name in exact
                     if traced_a[seed][name] != traced_b[seed][name]]
        for name in differing:
            status = 1
            print(f"  count {name} differs at seed {seed}: "
                  f"{traced_a[seed][name]} vs {traced_b[seed][name]}")
        if not differing:
            print(f"  {len(exact)} exact counts identical at seed {seed}")
    return status


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]) if len(argv) == 2 else None)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
