#!/usr/bin/env python3
"""The benchmark of record.

One workload, the driver's form -- runs in this process and prints the
result object as the last line of standard output::

    python3 bench/run.py --workload d2s_prove_cold --seed 3 \\
        --seconds 10 --trace 0

Every workload, the human form -- one fresh child interpreter per
workload with tracing off, a second traced child each with ``--trace``,
every metric printed by name with its unit::

    python3 bench/run.py [--seed N] [--trace] [--smoke]

Results go to ``bench/out/``; ``bench/README.md`` says how to read them.
"""

import time

_STARTED = time.perf_counter()  # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# the script directory leaves the path (bench/trace.py would shadow the
# standard library's ``trace``); the repo root and src/ take its place
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

#: ``--smoke``: every workload at tiny counts
SMOKE_SCALE = 0.03
SMOKE_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process and print "
                             "the result object (default: all, one child "
                             "each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: record spans and report the per-layer "
                             "metrics")
    parser.add_argument("--scale", type=float, default=None,
                        help="factor on the full-size counts (default: "
                             "workloads.SCALE)")
    parser.add_argument("--smoke", action="store_true",
                        help="all five workloads at tiny counts")
    parser.add_argument("--repeats", type=int, default=1,
                        help="human form: runs per workload, at seeds "
                             "SEED, SEED+1, ... (compare.py reads the "
                             "spread off them)")
    parser.add_argument("--out", default=None,
                        help="human form: result-set file (default "
                             "bench/out/results.json)")
    return parser.parse_args(argv)


def run_one(args) -> int:
    """The driver's form: one workload, result object on the last line."""
    from bench import harness, metrics, runners, workloads
    if args.workload not in runners.RUNNERS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(runners.RUNNERS)}", file=sys.stderr)
        return 2
    seconds = metrics.RUN_SECONDS if args.seconds is None else args.seconds
    scale = workloads.SCALE if args.scale is None else args.scale
    traced = bool(args.trace)
    record = runners.run_workload(
        args.workload, args.seed, seconds, traced, scale,
        import_s=time.perf_counter() - _STARTED)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}" + (".traced" if traced else "")
    (harness.OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if traced:
        from bench import trace
        trace.write_spans(harness.OUT / f"{args.workload}.spans.jsonl")
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"golden={record['golden']} git_rev={record['git_rev']} "
          f"git_dirty={record['git_dirty']} scale={scale} "
          f"n={json.dumps(record['n'])}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """The human form: every run in a child interpreter of its own."""
    from bench import harness, metrics, workloads
    harness.OUT.mkdir(parents=True, exist_ok=True)
    common = []
    if args.smoke:
        common += ["--scale", str(SMOKE_SCALE),
                   "--seconds", str(SMOKE_SECONDS)]
    else:
        if args.seconds is not None:
            common += ["--seconds", str(args.seconds)]
        if args.scale is not None:
            common += ["--scale", str(args.scale)]
    runs, status = [], 0
    for workload in metrics.WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeats):
            for traced in ([0, 1] if args.trace else [0]):
                print(f"== {workload} seed {seed} trace {traced}", flush=True)
                child = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed),
                     "--trace", str(traced), *common],
                    cwd=ROOT, env=harness.clean_env(), capture_output=True,
                    text=True, timeout=900)
                lines = child.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if child.returncode != 0:
                    status = 1
                    print(child.stderr[-2000:], file=sys.stderr)
                if lines and lines[-1].startswith("{"):
                    runs.append({"workload": workload, "seed": seed,
                                 "traced": bool(traced),
                                 **json.loads(lines[-1])})
    scale = SMOKE_SCALE if args.smoke else args.scale or workloads.SCALE
    record = {**harness.provenance(args.seed, scale), "runs": runs}
    out = Path(args.out) if args.out else harness.OUT / (
        "smoke.json" if args.smoke else "results.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}" + ("" if record["git_dirty"] is False else
                            "  (tree not clean: not a citable record)"))
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro next to bench/ -- nothing to "
              "measure", file=sys.stderr)
        return 2
    args = parse_args(argv)
    for knob in [k for k in os.environ if k.startswith("FVEVAL_")]:
        del os.environ[knob]  # no engine knob leaks into a measurement
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
