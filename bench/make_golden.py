#!/usr/bin/env python3
"""Write the known answers ``bench/golden/<stream>.seed<N>.json``.

::

    python3 bench/make_golden.py [--seeds 0,1]

Each file maps request id -> ``[verdict, func, partial]`` for one
operation stream at one seed, produced with every differential-oracle
path engaged (isolated equivalence checks, no cross-sample batching,
scalar simulation, no AIG simplification, cache off, serial -- see
``harness.oracle_service``).  ``run.py`` checks the default fast path
against them on every run; seeds without a file get the same oracle
pass at run time.  Seed 1 is the held-out seed: do not tune against it.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import harness, runners, workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1")
    args = parser.parse_args(argv)
    harness.GOLDEN.mkdir(exist_ok=True)
    for stream in sorted(set(workloads.STREAM.values())):
        for seed in map(int, args.seeds.split(",")):
            runner = runners.RUNNERS[stream](seed, workloads.SCALE, False)
            runner.ops = workloads.build_ops(stream, seed)
            answers = runner.golden()
            path = harness.golden_path(stream, seed)
            head = json.dumps(
                {"stream": stream, "seed": seed, "scale": workloads.SCALE,
                 "counts": workloads.counts_for(stream)})
            rows = ",\n".join(f"{json.dumps(rid)}: {json.dumps(answer)}"
                              for rid, answer in sorted(answers.items()))
            # one answer per line, so a changed verdict is a one-line diff
            path.write_text(f'{head[:-1]}, "answers": {{\n{rows}\n}}}}\n')
            print(f"{path.relative_to(ROOT)}: {len(answers)} answers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
