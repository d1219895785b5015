"""Benchmark orchestration: model x task x samples -> evaluation records.

The public entry point every table reduces to is
:func:`run_model_on_task` (and the :func:`run_suite` convenience over
several models)::

    from repro.core import Nl2SvaHumanTask, RunConfig, run_model_on_task

    result = run_model_on_task("gpt-4o", Nl2SvaHumanTask(),
                               RunConfig(n_samples=5, temperature=0.8))
    result.func_at(5)       # unbiased pass@5 over the run's records

It generates ``n_samples`` responses per problem and scores them through
``task.evaluate_batch`` -- one verification-service batch per problem,
so the service can deduplicate and batch-schedule the samples together
(docs/service.md) -- returning a :class:`RunResult` carrying the raw
:class:`~repro.core.tasks.EvalRecord` rows plus the aggregate metrics
(greedy rates, unbiased pass@k) and engine observability
(``result.stats``; rendered by :func:`repro.core.reports.run_summary`).
:func:`iter_run_model_on_task` is the incremental form: it yields each
record as its problem completes, for callers that stream results.

Independent problems evaluate in parallel when the ``FVEVAL_JOBS``
environment variable asks for more than one worker (``FVEVAL_JOBS=0`` or
``auto`` uses every core; :class:`repro.options.Options`, read once as
each run starts).  Each worker process receives the (model, task,
config) triple once at pool start-up and evaluates whole problems, so
records stay deterministic and identical to a serial run -- the pool only
changes wall-clock, never results.  Each worker's verification service
runs its batches inline unless ``FVEVAL_EXECUTOR=process`` asks for
crash-isolated worker processes (docs/service.md, "Execution
strategies").  Workers report their cache/profile counters back with
each result; the merged totals land in ``RunResult.stats`` just as a
serial run's do.  The default is serial, which keeps CI runs
reproducible under tools that dislike forks.  Workers share formal
verdicts through the on-disk verdict cache when
``FVEVAL_CACHE`` is set (docs/engine.md, "Options") -- with
an engine strategy like ``portfolio`` this is the fleet-level layer of
the portfolio: problems race across processes while strategies race
within each prover.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .. import counters
from ..eval.metrics import corpus_bleu, mean, pass_at_k
from ..models.base import GenerationRequest, SimulatedModel
from ..options import Options
from .tasks import Design2SvaTask, EvalRecord


@dataclass
class RunConfig:
    """Decoding + subset settings for one benchmark run."""

    n_samples: int = 1
    temperature: float = 0.0
    shots: int = 0
    limit: int | None = None  # evaluate only the first N problems


@dataclass
class RunResult:
    """All records of one (model, task) run plus aggregate metrics."""

    model: str
    task: str
    records: list[EvalRecord] = field(default_factory=list)
    #: run observability: verdict-cache hit rates, prover stage/solver
    #: totals and service scheduling counters -- what *this run* added,
    #: serial or pooled (parallel runs merge the per-worker deltas;
    #: cache "entries" then counts per-worker memory entries, which may
    #: overlap across workers, and the process-wide ``frontend`` memos
    #: count each worker's own lookups)
    stats: dict = field(default_factory=dict)

    # -- aggregates ------------------------------------------------------------

    def _by_problem(self) -> dict[str, list[EvalRecord]]:
        grouped: dict[str, list[EvalRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.problem_id, []).append(r)
        return grouped

    def rate(self, predicate) -> float:
        """Mean of a per-record predicate over first samples (greedy rate)."""
        firsts = [r for r in self.records if r.sample_idx == 0]
        return mean(1.0 if predicate(r) else 0.0 for r in firsts)

    @property
    def syntax_rate(self) -> float:
        return self.rate(lambda r: r.syntax_ok)

    @property
    def func_rate(self) -> float:
        return self.rate(lambda r: r.func)

    @property
    def partial_rate(self) -> float:
        return self.rate(lambda r: r.partial)

    @property
    def bleu(self) -> float:
        pairs = [(r.response, r.meta.get("reference", ""))
                 for r in self.records if r.sample_idx == 0
                 and r.meta.get("reference")]
        if pairs:
            return corpus_bleu(pairs)
        return mean(r.bleu for r in self.records if r.sample_idx == 0)

    def pass_at(self, k: int, predicate) -> float:
        """Mean unbiased pass@k of a per-record predicate."""
        values = []
        for _pid, records in sorted(self._by_problem().items()):
            n = len(records)
            c = sum(1 for r in records if predicate(r))
            values.append(pass_at_k(n, c, k))
        return mean(values)

    def syntax_at(self, k: int) -> float:
        return self.pass_at(k, lambda r: r.syntax_ok)

    def func_at(self, k: int) -> float:
        return self.pass_at(k, lambda r: r.func)

    def partial_at(self, k: int) -> float:
        return self.pass_at(k, lambda r: r.partial)


def _problem_list(task, config: RunConfig) -> list:
    problems = task.problems()
    if config.limit is not None:
        problems = problems[:config.limit]
    return problems


def _evaluate_problem(model: SimulatedModel, task, config: RunConfig,
                      problem, index: int, total: int) -> list[EvalRecord]:
    """Generate and score every sample of one problem (the unit of work).

    Samples are scored through ``task.evaluate_batch`` when the task has
    one -- a whole problem is one verification-service batch -- with the
    per-sample ``evaluate`` loop as the fallback protocol.  Both paths
    produce field-identical records (``tests/test_service_parity.py``).
    """
    context = (task.context(problem)
               if hasattr(task, "context") else {})
    request = GenerationRequest(
        task=_request_task(task), problem=problem,
        n_samples=config.n_samples, temperature=config.temperature,
        shots=config.shots, params=dict(context.get("params", {})),
        widths=dict(context.get("widths", {})),
        quantile=(index + 0.5) / total)
    responses = model.generate(request)
    evaluate_batch = getattr(task, "evaluate_batch", None)
    if callable(evaluate_batch):
        records = evaluate_batch(problem, responses, model=model.name)
    else:
        records = [task.evaluate(problem, response, model=model.name,
                                 sample_idx=i)
                   for i, response in enumerate(responses)]
    for record in records:
        record.meta.setdefault("reference", _reference_of(problem))
        record.meta["shots"] = config.shots
    return records


#: per-worker evaluation context, installed once at pool start-up
_POOL_CTX: dict = {}


def _pool_init(model: SimulatedModel, task, config: RunConfig) -> None:
    _POOL_CTX["model"] = model
    _POOL_CTX["task"] = task
    _POOL_CTX["config"] = config
    # the unpickled task (and the forked memos) arrive with counters the
    # parent already accumulated before the pool started; remember them
    # so snapshots report only this worker's own work
    _POOL_CTX["baseline"] = _collect_stats(task)


def _pool_eval(index: int) -> tuple[list[EvalRecord], int, dict]:
    """One problem's records plus what the worker has counted so far.

    The snapshot travels with every result because workers cannot be
    interrogated after the pool drains; counters only ever grow, so the
    parent keeps the latest snapshot per worker pid and merges across
    workers.
    """
    model = _POOL_CTX["model"]
    task = _POOL_CTX["task"]
    config = _POOL_CTX["config"]
    problems = _problem_list(task, config)
    records = _evaluate_problem(model, task, config, problems[index], index,
                                len(problems))
    snapshot = _stats_since(task, _POOL_CTX["baseline"])
    return records, os.getpid(), snapshot


def _collect_stats(task) -> dict:
    """Cumulative observability counters of a task: cache hit rates,
    prover profile, service scheduling counters.  Every section the task
    has is present, so any two snapshots diff cleanly."""
    stats: dict = {}
    cache_stats = getattr(task, "cache_stats", None)
    if callable(cache_stats):
        stats["cache"] = cache_stats()
    profile = getattr(task, "profile", None)
    if isinstance(profile, dict) and profile:
        stats["prover"] = {k: (round(v, 6) if isinstance(v, float) else v)
                           for k, v in profile.items()}
    service = getattr(task, "service", None)
    if service is not None:
        stats["service"] = service.stats()
        stats["service"].pop("cache", None)  # already reported above
    return stats


def _stats_since(task, baseline: dict) -> dict:
    """What the task's counters gained since the :func:`_collect_stats`
    snapshot *baseline* (a service that took no requests is left out)."""
    stats = counters.diff(_collect_stats(task), baseline)
    if not stats.get("service", {}).get("requests"):
        stats.pop("service", None)
    return stats


class _PoolUnavailable(Exception):
    """Pool infrastructure failed; carries whether records already left."""

    def __init__(self, cause: BaseException, partial: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.partial = partial


def _iter_parallel(model: SimulatedModel, task, config: RunConfig,
                   total: int, jobs: int, stats: dict | None):
    """Yield per-problem record lists from a process pool, in order.

    Only pool-infrastructure failures (unpicklable payload, broken or
    unavailable process pool) raise :class:`_PoolUnavailable` (the caller
    degrades to serial); a genuine evaluation error in a worker
    propagates like a serial run's would.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    infra = (pickle.PicklingError, BrokenProcessPool, OSError, ImportError)
    worker_stats: dict[int, dict] = {}
    yielded = False
    try:
        with ProcessPoolExecutor(
                max_workers=min(jobs, total),
                initializer=_pool_init,
                initargs=(model, task, config)) as pool:
            results = pool.map(_pool_eval, range(total),
                               chunksize=max(1, total // (4 * jobs)))
            while True:
                try:
                    records, pid, snapshot = next(results)
                except StopIteration:
                    break
                except infra as exc:
                    raise _PoolUnavailable(exc, yielded) from exc
                # a worker's chunks arrive in the order it processed
                # them, so the last snapshot per pid is its final state
                worker_stats[pid] = snapshot
                yielded = True
                yield records
    except _PoolUnavailable:
        raise
    except infra as exc:
        raise _PoolUnavailable(exc, yielded) from exc
    if stats is not None:
        merged: dict = {}
        for snapshot in worker_stats.values():
            counters.merge(merged, snapshot)
        stats.update(merged)


def _iter_records(model: SimulatedModel, task, config: RunConfig,
                  stats: dict | None, buffered: bool):
    """The one run loop: yield every record, problem by problem.

    With ``FVEVAL_JOBS`` above one, problems evaluate on a process pool.
    A pool that is unavailable before any record left degrades to the
    serial loop below.  *buffered* holds the pool's output back until
    the pool is done, so a pool that breaks mid-run degrades too;
    otherwise records stream out as they arrive, and a break after the
    first one re-raises its cause (restarting would duplicate them).
    """
    problems = _problem_list(task, config)
    total = len(problems)
    jobs = Options.from_env().jobs
    baseline = _collect_stats(task)
    if jobs > 1 and total > 1:
        pooled = _iter_parallel(model, task, config, total, jobs, stats)
        try:
            for records in (list(pooled) if buffered else pooled):
                yield from records
            return
        except _PoolUnavailable as exc:
            if exc.partial and not buffered:
                raise exc.cause
    for index, problem in enumerate(problems):
        yield from _evaluate_problem(model, task, config, problem, index,
                                     total)
    if stats is not None:
        stats.update(_stats_since(task, baseline))


def iter_run_model_on_task(model: SimulatedModel | str, task,
                           config: RunConfig | None = None,
                           stats: dict | None = None):
    """Incremental form of :func:`run_model_on_task`: yield each
    :class:`EvalRecord` as its problem completes.

    Records arrive in problem order (identical to the eventual
    ``RunResult.records``), serial or pooled alike.  Pass a dict as
    *stats* to receive the run's merged observability counters once the
    iterator is exhausted.
    """
    if isinstance(model, str):
        model = SimulatedModel(model)
    yield from _iter_records(model, task, config or RunConfig(), stats,
                             buffered=False)


def run_model_on_task(model: SimulatedModel | str, task,
                      config: RunConfig | None = None) -> RunResult:
    """Evaluate one model on one task under the given decoding config.

    Unlike the streaming iterator, this buffers internally, so a pool
    that breaks mid-run (worker OOM-killed, executor torn down) costs
    nothing: the partial pool output is discarded and the whole run
    degrades to the serial path, exactly as it did before the service
    redesign.
    """
    if isinstance(model, str):
        model = SimulatedModel(model)
    result = RunResult(model=model.name, task=task.name)
    result.records = list(_iter_records(model, task, config or RunConfig(),
                                        result.stats, buffered=True))
    return result


def _request_task(task) -> str:
    if isinstance(task, Design2SvaTask):
        return "design2sva"
    return task.name


def _reference_of(problem) -> str:
    for attr in ("reference", "sva"):
        value = getattr(problem, attr, None)
        if value:
            return value
    return ""


def run_suite(model_names: list[str], task,
              config: RunConfig | None = None) -> dict[str, RunResult]:
    """Run several models on a task; returns name -> result."""
    return {name: run_model_on_task(name, task, config)
            for name in model_names}
