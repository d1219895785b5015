"""Running operations, checking answers, summarising timings.

The pieces every workload shares: building the services and task
adapters an operation runs on, timing one pass over an operation
stream, the known-answer check (golden file or differential-oracle
pass), and the statistics the benchmark reports.

Timing statistic.  The bench box is a shared VM whose speed drifts by
10-15 % over seconds (a 5 s window of a pure-Python loop has an
inter-quartile spread of 11 % of its median; the *fastest* 30 ms chunk
of each window spreads 4.6 %).  The disturbance is one-sided -- a noisy
neighbour only ever adds time -- so the benchmark repeats the whole
operation stream for ``--seconds`` and keeps, per operation, the
fastest of its repeats.  On a same-seed repeat of ``d2s_prove_cold``
the sum of per-operation bests spreads 1.8 % where the median pass wall
spreads 6.2 % and the best pass wall 4.6 %.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

from repro.core.tasks import Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask
from repro.service import VerificationService, request_from_json

from . import trace, workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
GOLDEN = ROOT / "bench" / "golden"

#: an answer is the verdict triple a record or response carries
Answer = tuple  # (verdict, func, partial)


# -- services and task adapters -----------------------------------------------


def oracle_service():
    """Every differential-oracle path engaged: isolated equivalence
    checks, no cross-sample batching, serial in-thread execution (the
    engine half -- scalar simulation, no AIG simplification -- is
    :data:`workloads.ORACLE_ENGINE`; the verdict cache is off per
    request)."""
    return VerificationService(batching=False, share_equiv=False, workers=1,
                               executor="thread")


def tasks_for(service, use_cache: bool = False,
              engine: dict | None = None) -> dict:
    """The task adapter of every operation family, all on *service*."""
    prover = {**workloads.DESIGN_PROVER, **(engine or {})}
    tasks = {category: Design2SvaTask(category, prover_kwargs=dict(prover),
                                      use_cache=use_cache, service=service)
             for category in ("fsm", "pipeline", "arbiter")}
    tasks["machine"] = Nl2SvaMachineTask(use_cache=use_cache, service=service)
    tasks["human"] = Nl2SvaHumanTask(use_cache=use_cache, service=service)
    return tasks


def run_op(tasks: dict, op: workloads.Op) -> list[Answer]:
    records = tasks[op.family].evaluate_batch(op.problem, op.responses)
    return [(r.verdict, r.func, r.partial) for r in records]


def run_pass(ops, tasks: dict, traced: bool = False, phase: str = ""):
    """One closed-loop, single-thread pass: per-operation latencies and
    the answers by request id.  An operation that raises is recorded as
    answer-less (it fails the check) with its latency so far."""
    latencies: list[float] = []
    answers: dict[str, Answer] = {}
    for op in ops:
        started = time.perf_counter()
        try:
            if traced:
                with trace.request(phase + op.op_id):
                    result = run_op(tasks, op)
            else:
                result = run_op(tasks, op)
        except Exception as exc:  # an operation failing is a result
            print(f"operation {op.op_id} raised {exc!r}", flush=True)
            result = []
        latencies.append(time.perf_counter() - started)
        answers.update(zip(op.answer_ids(), result))
    return latencies, answers


def oracle_answers(ops) -> dict[str, Answer]:
    service = oracle_service()
    try:
        tasks = tasks_for(service, engine=workloads.ORACLE_ENGINE)
        return run_pass(ops, tasks)[1]
    finally:
        service.close()


def oracle_wire_answers(ops) -> dict[str, Answer]:
    """The oracle's answers to the wire form of *ops*, run in process
    (the text path a server takes)."""
    service = oracle_service()
    answers = {}
    try:
        for op in ops:
            batch = workloads.wire_batch(op, workloads.ORACLE_ENGINE)
            for item, response in zip(batch, service.run(
                    [request_from_json(item) for item in batch])):
                answers[item["request_id"]] = (
                    response.verdict, response.func, response.partial)
    finally:
        service.close()
    return answers


# -- known answers ------------------------------------------------------------


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN / f"{workloads.STREAM[workload]}.seed{seed}.json"


def load_golden(workload: str, seed: int, scale: float):
    """The committed answers of (*workload*, *seed*), or None when there
    is no file for this seed at this scale."""
    path = golden_path(workload, seed)
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    if stored["scale"] != scale:
        return None
    return {rid: tuple(answer) for rid, answer in stored["answers"].items()}


def count_failed(ops, passes_answers, golden: dict) -> int:
    """Operations (over all passes) with a missing or wrong answer."""
    failed = 0
    for answers in passes_answers:
        for op in ops:
            if any(answers.get(rid) != golden.get(rid, ())
                   for rid in op.answer_ids()):
                failed += 1
    return failed


# -- statistics ---------------------------------------------------------------

_LADDER = (50, 75, 90, 95, 99, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """The rule for tails: the highest percentile of the ladder that
    still has at least ten samples beyond it (the median when even that
    has fewer) -- returns ``(p, value)``."""
    n = len(values)
    supported = [p for p in _LADDER if n * (100 - p) / 100 >= 10]
    p = max(supported, default=50)
    return p, percentile(values, p)


def best_of(passes: list[list[float]]) -> list[float]:
    """Per operation, the fastest of its repeats."""
    return [min(repeats) for repeats in zip(*passes)]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# -- provenance ---------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clean_env() -> dict:
    """The environment of every child: no ``FVEVAL_*`` knob leaks in."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FVEVAL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_state() -> tuple[str, bool | None]:
    """``(rev, dirty)``; dirty ignores ``bench/out/``.  Outside a git
    checkout the revision is ``"unknown"`` and dirty is None."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    try:
        rev = git("rev-parse", "HEAD")
        if rev.returncode != 0:
            return "unknown", None
        status = git("status", "--porcelain", "--", ".", ":!bench/out")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def provenance(seed: int, scale: float) -> dict:
    rev, dirty = git_state()
    return {"git_rev": rev, "git_dirty": dirty,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "scale": scale}
