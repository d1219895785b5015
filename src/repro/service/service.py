"""The verification service: the single choke point for formal verdicts.

:class:`VerificationService` executes :class:`~repro.service.api.
VerifyRequest` batches through one pipeline::

    validate -> semantic key -> in-flight dedup -> verdict cache
             -> group `prove` work by design signature
             -> one packed falsification pass per cone (batch scheduler)
             -> compute -> cache put

Three call shapes, all over the same scheduler:

* ``submit(request)`` returns a future-like :class:`Handle`; submitted
  requests accumulate and are flushed as one batch when any handle's
  ``result()`` is demanded (or ``flush()`` is called);
* ``run(requests)`` schedules one explicit batch and returns responses
  aligned with the inputs;
* ``stream(requests)`` yields responses one by one as they complete.

A batch is *planned* serially (validation, semantic keys, in-flight
dedup, cache, grouping) into :class:`PlanEntry` rows, cut into typed
:class:`Unit` s -- one per work group (a design cone's prove requests,
or the candidates of one shared equivalence reference) and one per
remaining computed request -- and executed by one loop
(:meth:`VerificationService._execute`).  The loop owns everything but
the computing: answers found while planning, ``index`` stamping, the
dedup fold, cache puts and the ``config`` fault event.  A strategy only
produces the primaries' responses:

* **inline** (``executor="thread"``, the default) computes in the
  calling thread -- one packed pre-pass per group, then every entry in
  request order -- so responses stream out in request order, and the
  same-prover call order keeps the engines' counts reproducible;
* **process** (``executor="process"``) ships the units to
  crash-isolated worker processes (:mod:`repro.service.procpool`);
  with more than one worker, completions stream out of order, each
  carrying its request ``index``.

``run()``/``flush()`` re-align responses with the inputs.
``submit``/``flush`` are safe to call from multiple threads (the HTTP
frontend flushes from its executor threads): batch *planning* is
serialized per service (and a handle whose batch another thread is
flushing blocks in ``result()`` until that flush resolves it), while
executions may overlap -- a batch whose design cone another in-flight
batch still owns computes on a private prover, so overlapping batches
never share mutable engine state.

Scheduling only ever changes *how much work* runs, never what a verdict
means: deduplicated, cached and batch-scheduled responses carry exactly
the verdict fields direct computation would produce (the provenance
fields ``cache_hit`` / ``dedup_of`` / ``batch_id`` record which shortcut
was taken), which is what the task-parity suite pins
(``tests/test_service_parity.py``).

The verdict cache (:class:`repro.core.cache.VerdictCache`) lives here --
one namespace per task family -- using the same semantic keys the tasks
computed before the service existed, so ``FVEVAL_CACHE`` directories
written by either side of the redesign stay mutually readable.

Configuration is one :class:`repro.options.Options`, read when the
service is constructed: the environment supplies every setting a
constructor keyword leaves at None, and changing it afterwards changes
nothing for this service.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import memo
from ..counters import bump, merge
from ..options import Options
from ..sva.canonical import CanonicalizationError, canonical_key
from ..sva.syntax import check_assertion_syntax
from .api import RequestError, VerifyRequest, VerifyResponse
from .signature import design_signature  # noqa: F401  (re-exported; the
# canonical definition moved to repro.service.signature so the routing
# tier computes the same key without importing the whole service)

if TYPE_CHECKING:  # the runtime import is deferred (see _cache_module)
    from ..core.cache import VerdictCache


def _cache_module():
    """:mod:`repro.core.cache`, imported on first use.

    ``repro.core`` imports the tasks, which import this package;
    deferring the reverse edge keeps ``python -m repro serve`` (which
    enters through ``repro.service``) free of the import cycle.
    """
    from ..core import cache
    return cache


def _faults():
    """:mod:`repro.core.faults`, imported on first use (same cycle as
    :func:`_cache_module`: ``repro.core.__init__`` imports the tasks)."""
    from ..core import faults
    return faults


#: request kinds whose verdicts are cached.  A syntax gate is not: it
#: is memoised in process instead (``repro.sva.syntax``), where a hit is
#: a lookup.  A gate that misses that memo costs about 0.15 ms against
#: about 6 us for a memory-tier get, but persisting gates would raise a
#: cold fill's disk puts from 220 to 693 per bench pass at about 0.6 ms
#: per atomic file write -- more than the fill ever wins back.  Trace
#: checks were never cached.
_CACHED_KINDS = ("equivalence", "prove")

#: cached verdict fields per kind -- the exact pre-service protocol, so
#: existing FVEVAL_CACHE entries keep hitting
_CACHED_FIELDS = {
    "equivalence": ("verdict", "func", "partial", "detail"),
    "prove": ("verdict", "func", "partial", "detail", "meta"),
}


#: equivalence engine options; ``strategy`` is accepted for interface
#: symmetry with ``prove`` but is scheduling-neutral (the bounded
#: two-horizon equivalence pipeline has a single strategy)
_EQUIV_ENGINE_OPTS = {"default_width", "horizons", "max_conflicts",
                      "strategy"}


@functools.cache
def _prover_engine_opts() -> frozenset[str]:
    """Legal ``engine`` keys of a prove request: Prover's configuration
    surface minus what the service owns (the design and the shared
    profile dict).  Read once per process."""
    import inspect
    from ..formal.prover import Prover
    return frozenset(set(inspect.signature(Prover.__init__).parameters)
                     - {"self", "design", "profile"})


class _EquivSlot:
    """One pooled shared-equivalence slot: the lazily-built
    :class:`~repro.formal.equivalence.EquivChecker` of one
    (reference, widths, params, engine) routing signature.

    Lazy because the reference may not even parse -- that failure must
    surface as this request's error response at compute time (inside
    ``_compute_guarded``'s classification), never abort pinning for the
    whole batch.
    """

    __slots__ = ("checker",)

    def __init__(self):
        self.checker = None


@dataclass(slots=True)
class PlanEntry:
    """One request's row in a flush's plan.

    Planning fills ``response`` for requests it answers itself (errors,
    cache hits, measured syntax failures), ``dup_of`` for an in-flight
    duplicate, and ``group`` / ``pool_key`` for work that shares a
    prover or equivalence checker; ``prover`` is that pinned engine.
    ``design`` / ``assertion`` / ``assumes`` are a prove request's
    resolved inputs and ``key_parts`` its lazily built semantic key.
    """

    request: VerifyRequest
    index: int
    deadline_s: float | None = None
    response: VerifyResponse | None = None
    key: str | None = None
    cache: "VerdictCache | None" = None
    dup_of: int | None = None
    group: tuple | None = None
    prover: object = None
    faults: list = field(default_factory=list)
    design: object = None
    assertion: object = None
    assumes: tuple = ()
    key_parts: object = None
    pool_key: tuple | None = None
    batch_id: str | None = None


@dataclass(slots=True)
class Unit:
    """One independently executable slice of a plan.

    A work group (``group`` set: one design cone's prove requests, or
    the candidates of one shared equivalence reference, all on one
    ``prover``) or one ungrouped computed request.  Units hold primaries
    only: in-flight duplicates are folded by the execution loop.
    ``affinity`` is the stable hash the process executor places a group
    by (:func:`repro.service.batch.group_affinity`).
    """

    indices: list[int]
    group: tuple | None = None
    batch_id: str | None = None
    prover: object = None
    affinity: int | None = None


class Handle:
    """Future-like handle for one submitted request.

    Thread-safe: ``result()`` flushes the owning service's pending batch
    on demand, and -- when a *different* thread's flush already claimed
    this handle's batch -- blocks until that flush resolves it.
    """

    def __init__(self, service: "VerificationService",
                 request: VerifyRequest):
        self._service = service
        self.request = request
        self._response: VerifyResponse | None = None
        self._event = threading.Event()

    def _resolve(self, response: VerifyResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._response is not None

    def result(self) -> VerifyResponse:
        """The response; flushes the service's pending batch on demand."""
        if self._response is None:
            self._service.flush()
        if self._response is None:
            # another thread's flush owns this handle's batch
            self._event.wait()
        assert self._response is not None
        return self._response


class VerificationService:
    """Request/response front of the formal engine.

    Every configuration keyword left at None takes its
    :class:`~repro.options.Options` field from the environment, once,
    here: ``batching`` the cross-sample packed-lane scheduler,
    ``share_equiv`` shared-reference equivalence sessions (``False`` is
    the isolated per-candidate oracle the parity suite pins against),
    ``executor`` the execution strategy -- ``"thread"`` computes inline
    in the calling thread, ``"process"`` in crash-isolated worker
    processes -- ``workers`` the size of only that process pool,
    ``deadline_s`` the default per-request deadline (a request's own
    wins; a non-positive value raises), ``cache_tiers`` the
    verdict-cache tier stack (docs/cache.md) and ``max_cache_entries`` /
    ``max_cache_bytes`` the caps on its memory tier.  ``profile`` is the
    prover-profile dict shared by every prover the service builds
    (stage timings, win counters, ``sim_batch_passes``).  Inline
    responses arrive in request order; the strategy never changes
    verdicts.
    """

    def __init__(self, batching: bool | None = None,
                 profile: dict | None = None, max_provers: int = 8,
                 max_cache_entries: int | None = None,
                 workers: int | None = None,
                 deadline_s: float | None = None,
                 executor: str | None = None,
                 max_cache_bytes: int | None = None,
                 admission=None, cache_tiers: str | None = None,
                 share_equiv: bool | None = None):
        self.options = Options.from_env(
            batching=batching, share_equiv=share_equiv, workers=workers,
            deadline_s=deadline_s, executor=executor,
            cache_tiers=cache_tiers, max_cache_entries=max_cache_entries,
            max_cache_bytes=max_cache_bytes)
        #: an ``FVEVAL_EXECUTOR`` typo not yet reported: the first
        #: response of the next flush carries it as a ``config`` event
        self._executor_error = self.options.executor_error
        self.profile: dict = {} if profile is None else profile
        self.max_provers = max_provers
        #: shared :class:`~repro.service.admission.AdmissionController`
        #: (None outside `serve`): clamps request deadlines to the
        #: server ceiling and receives per-unit latency observations
        #: for its Retry-After estimate.  Admission itself -- shedding
        #: at the bounded queue -- happens in the frontends, before
        #: requests ever reach the scheduler.
        self.admission = admission
        from collections import OrderedDict
        self._caches: dict[str, VerdictCache] = {}
        #: (design signature, engine fingerprint) -> Prover, LRU-ordered
        self._provers: OrderedDict[tuple, object] = OrderedDict()
        #: equivalence pool-key -> _EquivSlot, LRU-ordered: the shared
        #: EquivChecker of every reference the service has seen recently
        self._equiv: OrderedDict[tuple, _EquivSlot] = OrderedDict()
        self.max_equiv = 16
        #: pool keys of the batch currently executing -- pinned against
        #: eviction so presimulated batch state survives its own flush
        self._active: set[tuple] = set()
        self._pending: list[Handle] = []
        self._seq = 0
        self._batch_seq = 0
        #: scheduling counters, updated with :func:`repro.counters.bump`
        #: (a process worker's deltas merge in with the same lock).
        #: ``prover_hits`` reuse a pooled prover (sessions, unrolled
        #: AIGs, sim traces and all) and ``prover_builds`` construct a
        #: fresh one -- the signature-affinity layers exist to raise the
        #: hit share (docs/router.md); the ``equiv_*`` analogues count
        #: pooled shared checkers (reference cone, learned clauses)
        self.counters: dict = dict.fromkeys((
            "requests", "dedup_hits", "batch_groups", "batch_members",
            "prover_hits", "prover_builds", "equiv_hits", "equiv_builds"),
            0)
        self._init_runtime()

    def _init_runtime(self) -> None:
        """Unpicklable per-process state (locks, the process pool)."""
        #: serializes batch planning: one batch plans at a time per
        #: service (reentrant so one thread may interleave two of its
        #: own stream() generators without deadlocking)
        self._sched_lock = threading.RLock()
        #: guards the short mutations shared by concurrently executing
        #: flushes (pending swap, pins, pools)
        self._state_lock = threading.Lock()
        self._procpool = None

    def __getstate__(self):
        # picklable across FVEVAL_JOBS workers: proof sessions, the
        # process pool and in-flight handles are process-local, verdict
        # memory travels
        from collections import OrderedDict
        state = dict(self.__dict__)
        state["_provers"] = OrderedDict()
        state["_equiv"] = OrderedDict()
        state["_active"] = set()
        state["_pending"] = []
        # the admission controller (locks, per-connection state) belongs
        # to the serving process; a forked worker schedules unguarded
        state["admission"] = None
        for name in ("_sched_lock", "_state_lock", "_procpool"):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_runtime()

    # -- public API ---------------------------------------------------------

    def close(self) -> None:
        """Tear down the process pool (idempotent; the service stays
        usable -- the pool respawns on the next flush that needs it)."""
        procpool, self._procpool = self._procpool, None
        if procpool is not None:
            procpool.shutdown()

    def submit(self, request: VerifyRequest) -> Handle:
        """Queue one request; it computes at the next :meth:`flush`."""
        handle = Handle(self, request)
        with self._state_lock:
            self._pending.append(handle)
        return handle

    def flush(self) -> None:
        """Schedule every pending submitted request as one batch.

        Per-request failures (bad input, an engine crash on that
        request) resolve the request's handle with an ``ok=False`` error
        response and never abort the batch.  Only an infrastructure
        failure of the scheduling pass itself propagates -- and even
        then every unanswered handle is first resolved with an error
        response, so a later ``result()`` reports what happened instead
        of failing on an unresolved handle.
        """
        with self._state_lock:
            pending, self._pending = self._pending, []
        if not pending:
            return
        try:
            for index, response in self._process(
                    [h.request for h in pending]):
                pending[index]._resolve(response)
        except BaseException as exc:
            detail = f"{type(exc).__name__}: {exc}"[:200]
            for handle in pending:
                if handle._response is None:
                    handle._resolve(self._error(handle.request, detail))
            raise

    def run(self, requests) -> list[VerifyResponse]:
        """Schedule *requests* as one batch; responses align with inputs.

        :meth:`_process` guarantees exactly one response per input index
        (an ``ok=False`` error response when that request failed), so
        the re-alignment below is total even when worker processes
        complete out of order.
        """
        requests = list(requests)
        responses: dict[int, VerifyResponse] = {}
        for index, response in self._process(requests):
            responses[index] = response
        return [responses[index] for index in range(len(requests))]

    def stream(self, requests):
        """Yield responses one by one as the batch executes.

        Inline (and on a one-worker process pool) responses arrive in
        request order, duplicates at their own positions; on a process
        pool of several workers they arrive in *completion* order, each
        carrying its request position in ``VerifyResponse.index`` so
        consumers can correlate.
        """
        for _index, response in self._process(list(requests)):
            yield response

    # -- observability ------------------------------------------------------

    def cache_stats(self) -> dict:
        """Aggregate verdict-cache counters over all namespaces.

        Per-tier counters (``stats()["tiers"]``) are nested dicts and
        merge recursively, so two namespaces sharing a tier layout sum
        tier by tier.
        """
        totals: dict = {"hits": 0, "misses": 0, "puts": 0, "entries": 0,
                        "corrupt": 0}
        for cache in self._caches.values():
            merge(totals, cache.stats())
        return totals

    def stats(self) -> dict:
        stats = {
            **self.counters,
            "cache": self.cache_stats(),
            # process-wide, not per service: the text -> design memos
            # (docs/architecture.md, "Front end: text -> design once")
            "frontend": memo.stats(),
        }
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        return stats

    # -- scheduling ---------------------------------------------------------

    def _cache(self, namespace: str) -> "VerdictCache":
        cache = self._caches.get(namespace)
        if cache is None:
            cache = self._caches[namespace] = _cache_module().VerdictCache(
                namespace, tiers=self.options.cache_tiers,
                max_mem_entries=self.options.max_cache_entries,
                max_mem_bytes=self.options.max_cache_bytes)
        return cache

    def _response(self, request: VerifyRequest) -> VerifyResponse:
        return VerifyResponse(request_id=request.request_id,
                              kind=request.kind)

    def _process(self, requests: list[VerifyRequest]):
        """Yield ``(index, response)`` as the batch executes.

        Planning (serial, under the scheduling lock) resolves ids,
        semantic keys, cache hits and in-flight dedup, buckets the
        remaining work into groups -- prove requests by (design
        signature, engine), equivalence requests by reference -- and
        cuts the plan into :class:`Unit` s; :meth:`_execute` then runs
        them on the inline or the process strategy.

        Guarantee: exactly one response is yielded per input index, with
        per-request failures mapped to ``ok=False`` error responses
        (never a skipped index), and ``VerifyResponse.index`` set on
        every response.
        """
        options = self.options
        requests = list(requests)
        # planning is serialized, but the lock is RELEASED before any
        # response is yielded: a partially consumed stream() must never
        # block another thread's flush.  Safe overlap rests on prover
        # pinning (_pin_provers): a pool key an in-flight batch owns is
        # answered by a private prover instead of the shared one.
        owned: set[tuple] = set()
        with self._sched_lock:
            plan, groups = self._plan(requests, options.share_equiv)
            units = self._units(plan, groups)
            if options.executor == "process" and not _daemonic():
                # the parent keeps planning/cache/dedup; provers live in
                # the workers, so nothing is pinned here
                strategy = self._run_process(
                    plan, units, options.batching, options.share_equiv,
                    owned, self._process_pool(options.workers))
                ordered = options.workers == 1
            else:
                self._pin_provers(plan, units, owned)
                strategy = self._run_inline(plan, units, options.batching)
                ordered = True
            config_event, self._executor_error = self._executor_error, None
        try:
            stream = self._execute(plan, strategy, ordered)
            if config_event is not None:
                # an env typo silently changed the execution strategy:
                # the first response carries the `config` event so the
                # fallback is observable on the wire (docs/robustness.md)
                stream = _degrade_first(stream, _faults().FaultEvent(
                    "config", stage="config",
                    detail=config_event).as_dict())
            yield from stream
        finally:
            # the batch memo is per-flush state: entries persist while
            # the flush's textual duplicates read them, then go, so a
            # long-running serve session cannot accumulate them.  Clear
            # BEFORE unpinning: once a key leaves _active another flush
            # may pin the shared prover and seed its own masks, which
            # this cleanup must not wipe.
            seen: set[int] = set()
            for unit in units:
                prover = unit.prover
                if prover is not None and id(prover) not in seen:
                    seen.add(id(prover))
                    # equivalence slots carry no batch memo
                    memo = getattr(prover, "_batch_sim", None)
                    if memo is not None:
                        memo.clear()
            with self._state_lock:
                self._active.difference_update(owned)

    def _execute(self, plan: list[PlanEntry], strategy, ordered: bool):
        """The one execution loop: yield ``(index, response)`` per entry.

        *strategy* yields ``(entry, response)`` for the units' primaries
        (:meth:`_run_inline` / :meth:`_run_process`); everything else
        happens here -- ``index`` stamping, the cache put, the fold of a
        primary's in-flight duplicates, and the answers planning already
        found.  *ordered* yields in request order, each response as soon
        as every earlier one is ready (so an inline stream keeps pace
        with the computation); otherwise planning's answers come first
        and the rest in completion order, each primary followed by its
        duplicates.
        """
        dups: dict[int, list[PlanEntry]] = {}
        for entry in plan:
            if entry.dup_of is not None:
                dups.setdefault(entry.dup_of, []).append(entry)
            elif entry.response is not None:
                entry.response.index = entry.index

        def finish(entry: PlanEntry, response: VerifyResponse) -> None:
            """Resolve one primary and fold its in-flight duplicates."""
            response.index = entry.index
            entry.response = response
            self._cache_put(entry, response)
            for dup in dups.get(entry.index, ()):
                bump(self.counters, "dedup_hits", 1)
                dup.response = self._duplicate(dup.request, response)
                dup.response.index = dup.index

        if not ordered:
            # a dedup primary is by construction a computed entry, so
            # planning's answers never have duplicates
            for entry in plan:
                if entry.dup_of is None and entry.response is not None:
                    yield entry.index, entry.response
            for entry, response in strategy:
                finish(entry, response)
                yield entry.index, response
                for dup in dups.get(entry.index, ()):
                    yield dup.index, dup.response
            return
        cursor = 0
        while True:
            while cursor < len(plan) and plan[cursor].response is not None:
                yield cursor, plan[cursor].response
                cursor += 1
            step = next(strategy, None)
            if step is None:
                return
            finish(*step)

    def _run_inline(self, plan: list[PlanEntry], units: list[Unit],
                    batching: bool):
        """The inline strategy: compute *units* in the calling thread.

        With batching on, each group first gets its packed pre-pass;
        then every entry computes in request order.  That order is a
        contract, not a detail: a pooled prover's incremental sessions
        carry learned clauses from one proof to the next, so the engine
        counts of each verdict depend on the call order on its prover.
        """
        if batching:
            for unit in units:
                if unit.group is not None:
                    self._presimulate_group(plan, unit)
        for index in sorted(i for unit in units for i in unit.indices):
            entry = plan[index]
            yield entry, self._compute_guarded(entry)

    def _run_process(self, plan: list[PlanEntry], units: list[Unit],
                     batching: bool, share_equiv: bool, owned: set,
                     pool):
        """The process strategy: ship *units* to the worker processes.

        Each unit crosses the process boundary as pickled wire requests
        (``use_cache=False`` so the worker neither reads nor writes
        verdict caches, with the resolved per-request deadline baked in)
        and comes back as streamed responses.  :class:`~repro.service.
        procpool.ProcessExecutor` resolves every dispatched position
        exactly once -- as a response, a ``timeout``, a crash error after
        one retry, or an ``unpicklable`` report -- which carries
        :meth:`_process`'s one-response-per-index invariant across
        worker death.  Units that could not be pickled run on the inline
        strategy once the pool is released, on engines pinned by
        :meth:`_pin_provers` (their keys join *owned*).
        """
        if not units:
            return
        wires = []
        for unit in units:
            wires.append({
                "id": len(wires),
                "entries": [(i, dataclasses.replace(
                    plan[i].request, use_cache=False,
                    deadline_s=plan[i].deadline_s)) for i in unit.indices],
                "deadline_s": [plan[i].deadline_s for i in unit.indices],
                "batching": batching, "share_equiv": share_equiv,
                "batch_id": unit.batch_id, "affinity": unit.affinity})
        local: list[tuple[Unit, list[int]]] = []
        for event in pool.execute(wires):
            kind, wire = event[0], event[1]
            if kind == "unit_done":  # the unit's counter deltas
                merge(self.profile, event[2].get("profile", {}))
                merge(self.counters, event[2].get("counters", {}))
            elif kind == "response":
                _, _, position, response = event
                if wire["events"]:  # crash-retry provenance
                    response.degraded = [*wire["events"],
                                         *response.degraded]
                if response.batch_id is not None:
                    # worker-local batch id -> this flush's id
                    response.batch_id = wire["batch_id"]
                yield plan[wire["entries"][position][0]], response
            else:  # ("failed", unit, positions, cause)
                _, _, positions, cause = event
                entries = [plan[wire["entries"][p][0]] for p in positions]
                if cause == "unpicklable":
                    for entry in entries:
                        entry.faults.append(_faults().FaultEvent(
                            "unpicklable", stage="dispatch",
                            detail="request could not cross the process "
                                   "boundary; computed in-process"
                        ).as_dict())
                    local.append((units[wire["id"]],
                                  [entry.index for entry in entries]))
                    continue
                for entry in entries:
                    if cause == "timeout":
                        response = self._timeout_response(entry, wire)
                    else:  # crash: retried once already
                        response = self._error(
                            entry.request,
                            "worker process crashed while computing this "
                            "request (retried once on a fresh worker)",
                            faults=wire["events"])
                    yield entry, response
        if local:
            self._pin_provers(plan, [unit for unit, _ in local], owned)
            yield from self._run_inline(
                plan, [dataclasses.replace(unit, indices=indices)
                       for unit, indices in local], batching)

    def _plan(self, requests: list[VerifyRequest],
              share_equiv: bool = True):
        """Serial planning pass: ids, keys, cache, dedup, and work groups
        (prove requests by design cone; equivalence requests by routing
        signature when sharing is on)."""
        plan: list[PlanEntry] = []
        primaries: dict[tuple, int] = {}  # (ns, key) -> plan index
        groups: dict[tuple, list[int]] = {}  # prover pool key -> indices
        caching = self.options.caching
        deadline_s = self.options.deadline_s
        # once per flush: the canonical key of each distinct reference
        # (shared by every sample scored on it)
        reference_keys: dict[tuple, str] = {}
        bump(self.counters, "requests", len(requests))
        for index, request in enumerate(requests):
            if not request.request_id:
                self._seq += 1
                request.request_id = f"req{self._seq}"
            entry = PlanEntry(request, index,
                              deadline_s=(request.deadline_s
                                          if request.deadline_s is not None
                                          else deadline_s))
            if self.admission is not None:
                # mandatory effective deadline: the server ceiling wins
                # over whatever the request asked for (or didn't)
                entry.deadline_s = self.admission.effective_deadline(
                    entry.deadline_s)
            plan.append(entry)
            try:
                try:
                    request.validate()
                except RequestError as exc:
                    entry.response = self._error(request, str(exc))
                    continue
                prepared = self._prepare(request, entry, reference_keys)
            except Exception as exc:  # a planning crash costs one request
                event = _faults().classify(exc, stage="plan")
                entry.response = self._error(
                    request, event.detail, faults=[event.as_dict()])
                continue
            if prepared is not None:
                entry.response = prepared
                continue
            if (request.kind in _CACHED_KINDS and request.use_cache
                    and caching):
                cache = self._cache(request.namespace)
                try:
                    key = cache.key(*entry.key_parts)
                except CanonicalizationError:
                    key = None  # unparseable sample: just compute
                if key is not None:
                    # in-flight dedup first: a duplicate never touches the
                    # cache, so hit/miss/put counters describe distinct work
                    primary = primaries.get((request.namespace, key))
                    if primary is not None:
                        entry.dup_of = primary
                        continue
                    entry.cache, entry.key = cache, key
                    hit = cache.get(key)
                    # a degraded tier (dead cache-serve process, bad
                    # FVEVAL_CACHE_TIERS term) fails open: it surfaces
                    # as response provenance, never as an error
                    entry.faults.extend(cache.drain_faults())
                    if hit is not None:
                        response = self._from_entry(request, hit,
                                                    cache_hit=True)
                        if entry.faults:
                            response.degraded = [*entry.faults,
                                                 *response.degraded]
                        entry.response = response
                        continue
                    primaries[(request.namespace, key)] = index
            if request.kind == "prove" or (request.kind == "equivalence"
                                           and share_equiv):
                groups.setdefault(entry.pool_key, []).append(index)
                entry.group = entry.pool_key
        return plan, groups

    def _units(self, plan: list[PlanEntry], groups: dict) -> list[Unit]:
        """Cut a plan into units: one per work group, carrying this
        flush's batch id, then one per remaining computed request."""
        units = [Unit([entry.index]) for entry in plan
                 if entry.group is None and entry.dup_of is None
                 and entry.response is None]
        if not groups:  # a warm flush: skip the imports and the lock
            return units
        from .batch import group_affinity
        from .ring import stable_hash
        with self._state_lock:
            first = self._batch_seq + 1
            self._batch_seq += len(groups)
        return [Unit(members, pool_key, f"b{first + n}",
                     # affinity on the design/routing signature alone
                     # (not the engine fingerprint): every engine variant
                     # of one cone or reference prefers the same slot
                     affinity=stable_hash(group_affinity(pool_key)))
                for n, (pool_key, members)
                in enumerate(groups.items())] + units

    def _pin_provers(self, plan: list[PlanEntry], units: list[Unit],
                     owned: set) -> None:
        """Resolve one engine per group unit and pin it for the batch.

        The engine is a prover for a prove group, a shared-checker slot
        for an equivalence group.  A pool key no in-flight batch owns
        comes from (and is pinned in) the LRU pool; a key another batch
        is still executing gets a fresh *private* engine instead --
        overlapping batches then share no mutable engine state, at the
        cost of one session rebuild.  Pinned keys join *owned*, for the
        caller's ``finally`` to unpin.
        """
        from ..formal.prover import Prover
        with self._state_lock:
            for unit in units:
                pool_key = unit.group
                if pool_key is None:
                    continue
                private = pool_key in self._active
                if not private:
                    self._active.add(pool_key)
                    owned.add(pool_key)
                first = plan[unit.indices[0]]
                if first.request.kind == "equivalence":
                    if private:
                        bump(self.counters, "equiv_builds", 1)
                        engine = _EquivSlot()
                    else:
                        engine = self._equiv_slot_for(pool_key)
                elif private:
                    bump(self.counters, "prover_builds", 1)
                    engine = Prover(first.design, profile=self.profile,
                                    **dict(pool_key[1]))
                else:
                    engine = self._prover_for(first.design, pool_key)
                unit.prover = engine
                for index in unit.indices:
                    plan[index].prover = engine

    def _presimulate_group(self, plan: list[PlanEntry], unit: Unit) -> None:
        """Run the packed cross-sample pre-pass for one prove group.

        Assume-carrying requests are excluded: their falsifier runs
        under the environment constraints, which the unconstrained
        pre-pass masks would not reflect.  A pre-pass failure degrades
        to per-sample falsification (verdict-identical) rather than
        aborting the batch.
        """
        from .batch import presimulate
        if plan[unit.indices[0]].request.kind != "prove":
            return  # equivalence groups have no packed pre-pass
        members = [i for i in unit.indices if not plan[i].assumes]
        if len(members) < 2:
            return
        try:
            covered = presimulate(
                unit.prover, [plan[i].assertion for i in members])
        except Exception as exc:
            # per-sample path computes the same verdicts; record the
            # degradation on every member the pre-pass would have served
            event = _faults().FaultEvent(
                "packed_sim", stage="batch",
                detail=f"packed pre-pass failed "
                       f"({type(exc).__name__}: {exc})"[:200]).as_dict()
            for i in members:
                plan[i].faults.append(event)
            return
        n = sum(covered)
        if n:
            merge(self.counters, {"batch_groups": 1, "batch_members": n})
        for i, flag in zip(members, covered):
            if flag:
                plan[i].batch_id = unit.batch_id

    def _timeout_response(self, entry: PlanEntry,
                          wire: dict) -> VerifyResponse:
        """The deadline SIGKILL backstop fired: a structured ``timeout``
        verdict (``ok`` stays True -- expiry is a measured outcome)."""
        deadline = entry.deadline_s
        response = self._response(entry.request)
        response.verdict = "timeout"
        response.detail = (f"deadline exceeded ({deadline:g}s): worker "
                           f"killed past the grace period")
        response.degraded = [*wire["events"], *entry.faults,
                             _faults().FaultEvent(
                                 "timeout", stage="worker",
                                 attempt=wire.get("attempt", 0),
                                 detail="worker overran the unit deadline "
                                        "and was SIGKILLed").as_dict()]
        return response

    def _process_pool(self, workers: int):
        """The shared process pool, grown on demand (never torn down
        under an executing batch; ``ProcessExecutor.execute`` serializes
        batches internally)."""
        from .procpool import ProcessExecutor
        pool = self._procpool
        if pool is not None and pool.owner_pid != os.getpid():
            # inherited across a fork (FVEVAL_JOBS pool worker): the
            # worker processes belong to the original parent, so drop
            # the reference untouched and build our own pool
            pool = self._procpool = None
        if pool is None or (pool.workers < workers and not pool.busy):
            if pool is not None:
                pool.shutdown()
            pool = ProcessExecutor(workers)
            self._procpool = pool
        return pool

    # -- planning helpers ---------------------------------------------------

    def _error(self, request: VerifyRequest, detail: str,
               faults: list | None = None) -> VerifyResponse:
        """The *request itself* failed (bad input, unknown engine
        option): ``ok=False``, so `serve` callers can tell infrastructure
        failures from measured verdicts.  ``faults`` carries the
        FaultEvent dicts that led here (engine crashes, worker death)."""
        response = self._response(request)
        response.ok = False
        response.verdict = "error"
        response.detail = detail
        if faults:
            response.degraded = list(faults)
        return response

    def _measured(self, request: VerifyRequest, verdict: str,
                  detail: str) -> VerifyResponse:
        """A successfully *measured* negative verdict (e.g. a sample
        failing the syntax gate): ``ok`` stays True -- that is the
        request doing its job."""
        response = self._response(request)
        response.verdict = verdict
        response.detail = detail
        return response

    def _prepare(self, request: VerifyRequest, entry: PlanEntry,
                 reference_keys: dict) -> VerifyResponse | None:
        """Resolve key parts (and, for prove, the design/assertion).

        Returns an error response when preparation itself fails --
        elaboration errors and assertion-less responses map to the
        ``syntax_error`` verdict exactly as the tasks reported them
        before the service existed.  *reference_keys* is the flush's
        table of reference canonical keys (:func:`_reference_key`).
        """
        kind = request.kind
        if kind == "equivalence":
            from ..formal.equivalence import (
                DEFAULT_MAX_CONFLICTS, MAX_HORIZON,
            )
            unknown = set(request.engine) - _EQUIV_ENGINE_OPTS
            if unknown:
                return self._error(
                    request, f"unknown engine options: {sorted(unknown)}")
            engine_key = ("equiv-defaults", MAX_HORIZON,
                          DEFAULT_MAX_CONFLICTS)
            if request.engine:
                engine_key = (*engine_key, sorted(request.engine.items()))
            entry.key_parts = _LazyParts(lambda: (
                "equiv",
                _reference_key(request, reference_keys),
                canonical_key(request.candidate, request.params),
                sorted(request.widths.items()),
                sorted((request.params or {}).items()),
                engine_key))
            from .batch import equiv_group_key
            entry.pool_key = equiv_group_key(request,
                                             _freeze(request.engine))
            return None
        if kind == "prove":
            return self._prepare_prove(request, entry)
        return None  # syntax / trace: uncached, computed directly

    def _prepare_prove(self, request: VerifyRequest,
                       entry: PlanEntry) -> VerifyResponse | None:
        from ..formal.prover import Prover
        from ..rtl.elaborate import ElaborationError, elaborate
        from ..sva.parser import ParseError, parse_assertion
        unknown = set(request.engine) - _prover_engine_opts()
        if unknown:
            return self._error(
                request, f"unknown engine options: {sorted(unknown)}")
        strategy = request.engine.get("strategy")
        if strategy is not None and strategy not in Prover.STRATEGIES:
            return self._error(
                request, f"unknown strategy {strategy!r}; expected one of "
                         f"{Prover.STRATEGIES}")
        design = request.design
        if design is None:
            try:
                design = elaborate(request.source, top=request.top)
            except (ElaborationError, ValueError) as exc:
                return self._measured(request, "syntax_error",
                                      str(exc)[:160])
        assertion = request.assertion
        if assertion is None:
            if not design.assertions:
                return self._measured(
                    request, "syntax_error",
                    "response contains no concurrent assertion")
            assertion = design.assertions[-1]
        elif isinstance(assertion, str):
            try:
                assertion = parse_assertion(assertion, params=design.params)
            except ParseError as exc:
                return self._measured(request, "syntax_error",
                                      str(exc)[:160])
        try:
            assumes = tuple(
                a if not isinstance(a, str)
                else parse_assertion(a, params=design.params)
                for a in request.assumes)
        except ParseError as exc:
            return self._measured(request, "syntax_error",
                                  f"assume: {exc}"[:160])
        entry.design = design
        entry.assertion = assertion
        entry.assumes = assumes
        signature = design_signature(design)
        engine_key = sorted(request.engine.items())
        parts = ["prove", signature]
        entry.key_parts = _LazyParts(lambda: (
            *parts, canonical_key(assertion, design.params), engine_key,
            *((("assumes", tuple(canonical_key(a, design.params)
                                 for a in assumes)),) if assumes else ())))
        entry.pool_key = (signature, _freeze(request.engine))
        return None

    def _prover_for(self, design, pool_key: tuple):
        """The pooled prover of one pool key (LRU; caller holds
        _state_lock)."""
        from ..formal.prover import Prover
        prover = self._provers.get(pool_key)
        if prover is not None:
            self._provers.move_to_end(pool_key)
            bump(self.counters, "prover_hits", 1)
            return prover
        bump(self.counters, "prover_builds", 1)
        # evict least-recently-used provers to bound proof-session
        # memory, but never one the executing batch still needs -- its
        # presimulated packed masks must survive its own flush
        evictable = [key for key in self._provers
                     if key not in self._active]
        while len(self._provers) >= self.max_provers and evictable:
            del self._provers[evictable.pop(0)]
        engine = dict(pool_key[1])
        prover = Prover(design, profile=self.profile, **engine)
        self._provers[pool_key] = prover
        return prover

    def _equiv_slot_for(self, pool_key: tuple) -> _EquivSlot:
        """The pooled shared-equivalence slot of one routing signature
        (LRU, mirroring :meth:`_prover_for`; caller holds _state_lock)."""
        slot = self._equiv.get(pool_key)
        if slot is not None:
            self._equiv.move_to_end(pool_key)
            bump(self.counters, "equiv_hits", 1)
            return slot
        bump(self.counters, "equiv_builds", 1)
        evictable = [key for key in self._equiv
                     if key not in self._active]
        while len(self._equiv) >= self.max_equiv and evictable:
            del self._equiv[evictable.pop(0)]
        slot = _EquivSlot()
        self._equiv[pool_key] = slot
        return slot

    # -- execution ----------------------------------------------------------

    def _duplicate(self, request: VerifyRequest,
                   primary: VerifyResponse) -> VerifyResponse:
        response = self._response(request)
        response.ok = primary.ok
        response.verdict = primary.verdict
        response.func = primary.func
        response.partial = primary.partial
        response.detail = primary.detail
        response.meta = dict(primary.meta)
        response.degraded = list(primary.degraded)
        response.dedup_of = primary.request_id
        return response

    def _from_entry(self, request: VerifyRequest, hit: dict,
                    cache_hit: bool = False) -> VerifyResponse:
        response = self._response(request)
        fields = _CACHED_FIELDS[request.kind]
        for name in fields:
            value = hit.get(name)
            if name == "meta":
                response.meta = dict(value or {})
            elif value is not None:
                setattr(response, name, value)
        response.cache_hit = cache_hit
        return response

    def _compute_guarded(self, entry: PlanEntry) -> VerifyResponse:
        """Compute one verdict; an engine crash costs that request only.

        The per-index response guarantee of :meth:`_process` rests here:
        whatever the engines raise is classified into the FaultEvent
        taxonomy and becomes an ``ok=False`` error response for this
        entry instead of aborting the batch (callers like
        :meth:`repro.core.tasks._checked` still fail loudly on it).
        Resource faults (``MemoryError``/``RecursionError``) get one
        more attempt -- the degradation ladder's service rung, covering
        the kinds whose engines have no internal retry.
        (``KeyboardInterrupt``/``SystemExit`` are BaseExceptions and
        propagate: a user abort must never become an error verdict.)
        """
        faults = _faults()
        events: list[dict] = []
        for attempt in range(2):
            try:
                response = self._compute(entry)
            except Exception as exc:
                event = faults.classify(exc, stage=entry.request.kind,
                                        attempt=attempt)
                events.append(event.as_dict())
                if event.retryable and attempt == 0:
                    continue
                return self._error(entry.request, event.detail,
                                   faults=[*entry.faults, *events])
            if events:  # first attempt degraded, retry answered
                response.degraded = [*events, *response.degraded]
            return response

    def _compute(self, entry: PlanEntry) -> VerifyResponse:
        request = entry.request
        if _faults().inject("engine_error") is not None:
            raise _faults().InjectedFault(
                f"injected engine_error ({request.namespace})")
        t0 = time.perf_counter()
        response = getattr(self, f"_compute_{request.kind}")(request, entry)
        response.elapsed_s = time.perf_counter() - t0
        if self.admission is not None:
            # feed the Retry-After estimator with real unit latency
            self.admission.observe(response.elapsed_s)
        response.batch_id = entry.batch_id
        if entry.faults:  # planning/pre-pass degradations
            response.degraded = [*entry.faults, *response.degraded]
        return response

    def _cache_put(self, entry: PlanEntry,
                   response: VerifyResponse) -> None:
        """Memoize one computed verdict.  ``timeout`` verdicts are
        deliberately not cached: they describe this run's wall-clock
        budget, not the sample, and must not mask a future verdict
        computed under a longer (or no) deadline."""
        cache, key = entry.cache, entry.key
        if cache is None or key is None:
            return
        if not response.ok or response.verdict == "timeout":
            # the plan-time miss can never become a hit: flag it so
            # hit-rate denominators exclude it (/metrics)
            cache.note_uncacheable()
            return
        payload = {}
        for name in _CACHED_FIELDS[entry.request.kind]:
            value = getattr(response, name)
            payload[name] = dict(value) if isinstance(value, dict) \
                else value
        cache.put(key, payload)
        events = cache.drain_faults()
        if events:  # write-through tier failed open mid-put
            response.degraded = [*response.degraded, *events]

    def _compute_syntax(self, request: VerifyRequest,
                        entry: PlanEntry) -> VerifyResponse:
        report = check_assertion_syntax(
            request.candidate, signal_widths=dict(request.widths),
            params=request.params,
            extra_signals=set(request.extra_signals) or None)
        response = self._response(request)
        response.verdict = "ok" if report.ok else "syntax_error"
        if not report.ok:
            response.detail = "; ".join(report.errors[:2])
            response.meta = {"errors": list(report.errors)}
        return response

    def _compute_equivalence(self, request: VerifyRequest,
                             entry: PlanEntry) -> VerifyResponse:
        from ..formal.equivalence import EquivChecker, check_equivalence
        options = {k: v for k, v in request.engine.items()
                   if k != "strategy"}
        # shared-reference path: the pinned slot's checker serves every
        # candidate of this routing signature (entry.prover is None when
        # sharing is off -- the isolated oracle)
        slot = entry.prover
        checker = None
        if slot is not None:
            checker = slot.checker
            if checker is None:
                checker = slot.checker = EquivChecker(
                    request.reference_ast or request.reference,
                    dict(request.widths), request.params,
                    options.get("default_width", 1))
        result = check_equivalence(
            request.reference_ast or request.reference, request.candidate,
            signal_widths=dict(request.widths), params=request.params,
            checker=checker, **options)
        bump(self.profile, "equiv_candidates", 1)
        bump(self.profile, "equiv_conflicts",
             result.stats.get("conflicts", 0))
        bump(self.profile, "equiv_sessions",
             result.stats.get("sessions", 0))
        response = self._response(request)
        response.verdict = result.verdict.value
        response.func = result.is_full
        response.partial = result.is_partial
        response.detail = result.detail
        if result.counterexample is not None:
            # diagnostics for uncached CLI/serve callers; deliberately
            # outside the cached field set (pre-service protocol)
            response.meta = {"counterexample": result.counterexample,
                             "cex_offset": result.cex_offset}
        return response

    def _compute_prove(self, request: VerifyRequest,
                       entry: PlanEntry) -> VerifyResponse:
        # every prove entry computes on the prover _pin_provers pinned
        result = entry.prover.prove(entry.assertion, assumes=entry.assumes,
                                    deadline_s=entry.deadline_s)
        response = self._response(request)
        response.verdict = result.status
        response.func = result.is_proven
        response.partial = result.is_proven
        response.detail = result.detail
        response.meta = {"engine": result.engine, "depth": result.depth,
                         "vacuous": result.vacuous}
        if result.status == "timeout" and result.stats:
            # partial profile of the interrupted solve: what the engine
            # managed before the deadline (docs/robustness.md)
            response.meta["stats"] = dict(result.stats)
        response.degraded = list(result.degraded)
        return response

    def _compute_trace(self, request: VerifyRequest,
                       entry: PlanEntry) -> VerifyResponse:
        from ..formal.prover import check_trace
        from ..sva.parser import ParseError, parse_assertion
        assertion = request.assertion
        if assertion is None:
            try:
                assertion = parse_assertion(request.candidate,
                                            params=request.params)
            except ParseError as exc:
                return self._measured(request, "syntax_error",
                                      str(exc)[:160])
        options = {k: request.engine[k] for k in
                   ("first_attempt", "last_attempt", "prehistory")
                   if k in request.engine}
        violation = check_trace(assertion, dict(request.trace),
                                dict(request.widths), request.params,
                                **options)
        response = self._response(request)
        response.verdict = "pass" if violation is None else "violation"
        response.func = response.partial = violation is None
        if violation is not None:
            response.meta = {"violation_at": violation}
        return response


class _LazyParts:
    """Defer semantic-key construction until the cache asks for it.

    Canonicalization may raise :class:`CanonicalizationError`; computing
    the parts lazily keeps that control flow in one place (`_process`)
    exactly as the pre-service memo protocol had it.
    """

    def __init__(self, thunk):
        self._thunk = thunk

    def __iter__(self):
        return iter(self._thunk())


def _reference_key(request: VerifyRequest, keys: dict) -> str:
    """``canonical_key`` of an equivalence request's reference, computed
    once per flush per distinct reference.  *keys* is the flush's
    table; an AST reference is keyed by identity, which is sound while
    the flush's requests hold it.  A reference that does not parse
    raises on every call, as ``canonical_key`` does."""
    reference = request.reference_ast or request.reference
    slot = (reference if isinstance(reference, str) else id(reference),
            _freeze(request.params or {}))
    key = keys.get(slot)
    if key is None:
        key = keys[slot] = canonical_key(reference, request.params)
    return key


def _daemonic() -> bool:
    """True inside a daemonic process (a process-executor worker), which
    may not have children: there the process strategy computes inline."""
    import multiprocessing
    return multiprocessing.current_process().daemon


def _degrade_first(stream, event: dict):
    """*stream* with *event* prepended to its first response's
    ``degraded`` provenance."""
    for index, response in stream:
        if event is not None:
            response.degraded = [event, *response.degraded]
            event = None
        yield index, response


def _freeze(value):
    """Hashable fingerprint of an engine-options dict."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
