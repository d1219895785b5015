"""Process-pool execution tier: crash-isolated verification workers.

``VerificationService(executor="process")`` (or
``FVEVAL_EXECUTOR=process`` / ``serve --executor process``) moves a
batch's scheduled units out of the service process: each unit -- one
work group or one
remaining computed request (:class:`~repro.service.service.Unit`) --
is pickled to a persistent worker process that runs its own inline
:class:`~repro.service.service.VerificationService` and streams
responses back over a pipe.  The parent keeps planning, dedup, caching
and stats; workers only compute.  This is the crash-isolation tier, not
a speed tier: on one core its pickling and pipe hops cost more than
they win.

Why not :class:`concurrent.futures.ProcessPoolExecutor`: one SIGKILL'd
worker breaks that pool permanently (``BrokenProcessPool`` fails every
queued future).  Crash isolation is the whole point here, so the pool
is hand-rolled: one ``multiprocessing.Process`` + duplex pipe per slot,
multiplexed with :func:`multiprocessing.connection.wait` on the pipes
*and* the process sentinels, so a worker dying (segfault, OOM kill,
injected SIGKILL) is detected immediately and costs exactly its
in-flight unit:

* the unit's unanswered requests are retried **once** on a fresh worker
  (exponential backoff), then error-responded with a ``worker_crash``
  :class:`~repro.core.faults.FaultEvent` -- never a lost or duplicated
  ``VerifyResponse.index``;
* a worker that outlives its unit's wall-clock deadline by more than
  :data:`DEADLINE_GRACE_S` is SIGKILLed and respawned (the in-worker
  cooperative deadline normally answers first -- the kill is the
  backstop for a worker stuck outside the solver's poll sites); its
  unanswered requests become ``timeout`` verdicts, not retries;
* a unit that cannot be pickled at all is reported back, and the
  parent computes it with its inline strategy (``unpicklable`` fault
  event).

Workers are respawned lazily and die with the parent (daemon
processes).  Observability parity: each worker ships what one unit
added to its profile and scheduling counters (:func:`repro.counters.
diff`) back with its ``done`` message, and the parent folds it in
(:func:`repro.counters.merge`), so ``--profile`` output and ``stats()``
describe the same work under either executor.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import threading
import time

from ..counters import diff
from ..options import MAX_PROC_WORKERS

#: extra wall-clock seconds past a unit's deadline before the parent
#: SIGKILLs the worker (the cooperative in-worker deadline should have
#: answered by then); tests lower it to keep the backstop path fast
DEADLINE_GRACE_S = 1.0


def _worker_main(conn, slot: int) -> None:
    """Worker process body: a persistent service (inline, since a
    daemonic process may not fork workers of its own) answering one unit
    at a time over the pipe."""
    from .service import VerificationService
    service = VerificationService(executor="thread")
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away (or shut the pipe): exit quietly
        if message[0] == "stop":
            return
        _kind, unit_id, requests, share_equiv, crash = message
        if crash:
            # parent-drawn fault injection: die exactly like a
            # segfaulted/OOM-killed worker would
            os.kill(os.getpid(), signal.SIGKILL)
        service.options = dataclasses.replace(
            service.options, share_equiv=share_equiv)
        base = {"profile": dict(service.profile),
                "counters": dict(service.counters)}
        try:
            for response in service.stream(requests):
                response.worker_id = slot
                conn.send(("res", unit_id, response.index, response))
            delta = diff({"profile": service.profile,
                          "counters": service.counters}, base)
            # the parent counted these requests when it planned them
            del delta["counters"]["requests"]
            conn.send(("done", unit_id, delta))
        except (EOFError, OSError, BrokenPipeError):
            return


class _Worker:
    __slots__ = ("proc", "conn", "slot")

    def __init__(self, proc, conn, slot: int):
        self.proc = proc
        self.conn = conn
        self.slot = slot


class ProcessExecutor:
    """A crash-tolerant pool of verification worker processes.

    :meth:`execute` drives one batch's units and yields events the
    owning service interprets:

    * ``("response", unit, position, response)`` -- one request of
      *unit* answered (positions index ``unit["entries"]``);
    * ``("unit_done", unit, stats)`` -- a unit completed; ``stats``
      carries the worker's ``profile`` / ``counters`` deltas to merge
      (empty when the worker died after its last response);
    * ``("failed", unit, positions, cause)`` -- terminal failure of the
      listed (still unanswered) positions: ``crash`` (retry exhausted),
      ``timeout`` (deadline SIGKILL backstop) or ``unpicklable`` (the
      unit never crossed the process boundary -- the parent computes
      it inline).

    One execute() runs at a time per pool (guarded by a lock): the
    pipes are single-consumer.  Workers persist across batches.
    """

    def __init__(self, workers: int):
        import multiprocessing
        self.workers = max(1, min(int(workers), MAX_PROC_WORKERS))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._slots: list[_Worker | None] = [None] * self.workers
        self._lock = threading.Lock()
        #: units dispatched to their affinity slot / spilled off it
        #: (units without an affinity key count in neither); each slot's
        #: persistent single-worker service pools provers, so placement
        #: here is what keeps a design cone's prover warm across units
        self.affinity_hits = 0
        self.affinity_spills = 0
        #: pid the pool was built in -- a forked FVEVAL_JOBS child
        #: inherits the object but not the worker processes (they stay
        #: children of the original parent), so it must not touch them
        self.owner_pid = os.getpid()

    @property
    def busy(self) -> bool:
        """True while a batch is executing on this pool."""
        return self._lock.locked()

    def affinity_stats(self) -> dict[str, int]:
        return {"hits": self.affinity_hits,
                "spills": self.affinity_spills}

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, slot), daemon=True,
                                 name=f"fveval-procworker-{slot}")
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn, slot)
        self._slots[slot] = worker
        return worker

    def _discard(self, slot: int) -> None:
        worker = self._slots[slot]
        if worker is None:
            return
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5)
        self._slots[slot] = None

    def shutdown(self) -> None:
        """Stop every worker (best-effort; daemons die with the parent
        anyway)."""
        if os.getpid() != self.owner_pid:
            # forked child: the workers are the original parent's
            # children -- signalling or joining them from here raises,
            # so just drop the references
            self._slots = [None] * self.workers
            return
        for slot, worker in enumerate(self._slots):
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            self._discard(slot)

    # -- batch execution ----------------------------------------------------

    def execute(self, units: list[dict]):
        """Drive *units* to completion; see the class docstring for the
        yielded event protocol.  Each unit dict needs ``entries`` (a
        list of ``(plan_index, wire_request)``) and ``deadline_s``
        (per-request deadlines, None entries meaning unbounded); the
        executor adds runtime fields (``attempt``, ``answered``...).
        """
        from ..core.faults import inject
        with self._lock:
            yield from self._execute_locked(list(units), inject)

    def _execute_locked(self, pending: list[dict], inject):
        for unit in pending:
            unit["attempt"] = 0
            unit["answered"] = set()
            unit["events"] = []
        busy: dict[int, dict] = {}  # slot -> unit
        while pending or busy:
            # dispatch onto free slots, affinity first
            while pending and len(busy) < self.workers:
                index, slot = self._pick(pending, busy)
                unit = pending.pop(index)
                if self._dispatch(slot, unit):
                    busy[slot] = unit
                else:
                    yield ("failed", unit, self._unanswered(unit),
                           "unpicklable")
            if not busy:
                continue
            timeout = self._next_kill_in(busy)
            ready = self._wait(busy, timeout)
            # drain pipes first -- a worker may have streamed responses
            # before dying, and those verdicts are good
            for slot in list(busy):
                worker = self._slots[slot]
                for event in self._drain(worker, busy[slot]):
                    if event[0] == "unit_done":
                        del busy[slot]
                    yield event
            # then reap the dead
            for slot in list(busy):
                worker = self._slots[slot]
                if worker.proc.is_alive():
                    continue
                unit = busy.pop(slot)
                self._discard(slot)
                for event in self._casualty(unit, pending):
                    yield event
            # deadline backstop: SIGKILL workers stuck past the grace
            now = time.monotonic()
            for slot, unit in busy.items():
                kill_at = unit.get("kill_at")
                if (kill_at is not None and now >= kill_at
                        and not unit.get("timed_out")):
                    unit["timed_out"] = True
                    self._slots[slot].proc.kill()
            del ready

    def _pick(self, pending: list[dict], busy: dict) -> tuple[int, int]:
        """Choose ``(pending index, slot)`` for the next dispatch.

        Prefer the first pending unit whose affinity slot (stable
        signature hash mod worker count) is currently free; otherwise
        dispatch the head of the line to the lowest free slot.  Spilling beats idling: with
        every affinity slot busy the head unit still runs, it just pays
        a cold prover pool on the slot it lands on.
        """
        free = [s for s in range(self.workers) if s not in busy]
        if self.workers > 1:
            for index, unit in enumerate(pending):
                key = unit.get("affinity")
                if key is not None and key % self.workers in busy:
                    continue
                if key is not None:
                    self.affinity_hits += 1
                    return index, key % self.workers
        if self.workers > 1 and pending[0].get("affinity") is not None:
            self.affinity_spills += 1
        return 0, free[0]

    def _unanswered(self, unit: dict) -> list[int]:
        return [p for p in range(len(unit["entries"]))
                if p not in unit["answered"]]

    def _dispatch(self, slot: int, unit: dict) -> bool:
        """Send a unit's unanswered requests to the slot's worker.
        False when the unit cannot be pickled (worker left idle)."""
        from ..core.faults import inject
        worker = self._slots[slot]
        if worker is None or not worker.proc.is_alive():
            self._discard(slot)
            worker = self._spawn(slot)
        positions = self._unanswered(unit)
        unit["sent"] = positions
        unit["timed_out"] = False
        deadlines = [unit["deadline_s"][p] for p in positions]
        unit["kill_at"] = (time.monotonic() + sum(deadlines)
                           + DEADLINE_GRACE_S
                           if deadlines and all(d is not None
                                                for d in deadlines)
                           else None)
        # the crash draw happens in the PARENT, once per dispatch, so a
        # respawned worker cannot re-draw (and re-suffer) its
        # predecessor's injected fate
        crash = inject("worker_crash") is not None
        payload = [unit["entries"][p][1] for p in positions]
        try:
            worker.conn.send(("unit", unit["id"], payload,
                              unit.get("share_equiv"), crash))
        except (pickle.PicklingError, TypeError, AttributeError,
                ValueError):
            return False
        except OSError:
            # pipe died under us: treat like a crash-before-work
            self._discard(slot)
            return self._dispatch(slot, unit)
        return True

    def _wait(self, busy: dict, timeout: float | None):
        from multiprocessing.connection import wait as mp_wait
        objects = []
        for slot in busy:
            worker = self._slots[slot]
            objects.append(worker.conn)
            objects.append(worker.proc.sentinel)
        return mp_wait(objects, timeout=timeout)

    def _next_kill_in(self, busy: dict) -> float | None:
        now = time.monotonic()
        kills = [unit["kill_at"] for unit in busy.values()
                 if unit.get("kill_at") is not None
                 and not unit.get("timed_out")]
        if not kills:
            return None
        return max(0.0, min(kills) - now)

    def _drain(self, worker: _Worker, unit: dict):
        """Yield events for every message currently buffered on a
        worker's pipe (non-blocking)."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # dead worker: the sentinel pass handles it
            if message[0] == "res":
                _kind, _unit_id, pos, response = message
                position = unit["sent"][pos]
                unit["answered"].add(position)
                yield ("response", unit, position, response)
            elif message[0] == "done":
                yield ("unit_done", unit, message[2])

    def _casualty(self, unit: dict, pending: list[dict]):
        """A worker died with *unit* in flight: retry once, then fail."""
        from ..core.faults import FaultEvent
        positions = self._unanswered(unit)
        if not positions:
            # every request was answered before death; only the final
            # stats message was lost -- nothing to recover
            yield ("unit_done", unit, {})
            return
        if unit.get("timed_out"):
            yield ("failed", unit, positions, "timeout")
            return
        if unit["attempt"] >= 1:
            unit["events"].append(FaultEvent(
                "worker_crash", stage="worker", retryable=False,
                attempt=unit["attempt"],
                detail="worker died again on retry").as_dict())
            yield ("failed", unit, positions, "crash")
            return
        unit["events"].append(FaultEvent(
            "worker_crash", stage="worker", retryable=True,
            attempt=unit["attempt"],
            detail=f"worker died with {len(positions)} request(s) in "
                   f"flight; retrying on a fresh worker").as_dict())
        time.sleep(0.05 * (2 ** unit["attempt"]))
        unit["attempt"] += 1
        pending.append(unit)
