"""Admission control shared by the verification-service frontends.

A long-running verifier endpoint melts down in a characteristic way:
burst traffic queues without bound, every request's effective latency
grows past its caller's patience, and by the time the queue drains the
answers are owed to clients that hung up long ago.  The admission layer
bounds that failure mode for *both* frontends (the JSON-lines stdin
loop and the asyncio HTTP server, :mod:`repro.service.http`):

* a **bounded queue** with high/low watermarks: once queued units reach
  the high watermark the controller *sheds* -- structured
  ``overloaded`` responses, never silent buffering -- and keeps
  shedding until the queue drains below the low watermark (hysteresis,
  so a saturated server does not flap at the boundary);
* **Retry-After estimation** from an EWMA of observed per-unit service
  latency: the shed response tells the client when capacity is likely,
  not a made-up constant;
* a global and per-connection **in-flight unit cap** (one greedy
  client cannot occupy the whole execution width);
* **mandatory effective deadlines**: a request's ``deadline_s`` is
  clamped to the server's maximum, riding the existing three-layer
  deadline enforcement (docs/robustness.md);
* a **drain** state for graceful shutdown: stop admitting, let
  in-flight units finish or deadline out, report idle when every
  admitted unit has been answered.

Every shed is recorded as an ``overload`` :class:`~repro.core.faults.
FaultEvent` and counts in :meth:`AdmissionController.stats`; the
``overload`` injection site (``FVEVAL_FAULTS="overload:..."``) forces
sheds deterministically for chaos testing.

The controller counts *units* (one :class:`~repro.service.api.
VerifyRequest` = one unit), not connections or batches, so a batch POST
of n requests weighs the same as n single POSTs.
"""

from __future__ import annotations

import os
import threading

from ..options import Options

#: default bounded-queue size in units (FVEVAL_MAX_QUEUE overrides)
DEFAULT_MAX_QUEUE = 256

#: Retry-After floor/ceiling in seconds -- the estimate is advisory,
#: but a sub-second retry invites a thundering herd and anything past
#: two minutes means the client should fail over instead
MIN_RETRY_AFTER_S = 1.0
MAX_RETRY_AFTER_S = 120.0

#: Retry-After fallback before any unit latency has been observed
DEFAULT_RETRY_AFTER_S = 1.0

#: EWMA smoothing factor for observed unit latency
_LATENCY_ALPHA = 0.2


def _faults():
    """Deferred: ``repro.core.__init__`` imports the tasks, which import
    this package (same cycle note as :mod:`repro.service.service`)."""
    from ..core import faults
    return faults


def default_max_inflight() -> int:
    """In-flight default: enough width to keep the executor busy without
    letting a burst occupy every core with half-done batches."""
    return min(32, 4 * (os.cpu_count() or 1))


class Ticket:
    """One admitted batch of units, moving queued -> in-flight -> done.

    The owning frontend calls :meth:`start` when the batch begins
    executing and :meth:`finish` after its responses have been
    *written* -- finish-after-write is what lets drain equate "idle"
    with "every owed response emitted".  Both are idempotent.
    """

    __slots__ = ("controller", "units", "conn", "_started", "_finished")

    def __init__(self, controller: "AdmissionController", units: int,
                 conn: object = None):
        self.controller = controller
        self.units = units
        self.conn = conn
        self._started = False
        self._finished = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.controller._start(self)

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            self.controller._finish(self)


class AdmissionController:
    """Bounded admission with watermark hysteresis, caps and drain.

    Thread-safe: the HTTP frontend mutates it from the event-loop
    thread while ``observe()`` arrives from the executor threads that
    flush the service.
    ``max_queue`` / ``max_inflight`` left at None (or non-positive)
    take their :class:`~repro.options.Options` field, read from the
    environment once, here (``FVEVAL_MAX_QUEUE``,
    ``FVEVAL_MAX_INFLIGHT``), and then the built-in defaults.
    """

    def __init__(self, max_queue: int | None = None,
                 max_inflight: int | None = None,
                 low_watermark: int | None = None,
                 high_watermark: int | None = None,
                 max_deadline_s: float | None = None,
                 per_conn_units: int | None = None):
        options = Options.from_env()
        self.max_queue = (max_queue if max_queue and max_queue > 0
                          else options.max_queue or DEFAULT_MAX_QUEUE)
        self.max_inflight = (max_inflight
                             if max_inflight and max_inflight > 0
                             else options.max_inflight
                             or default_max_inflight())
        high = (high_watermark if high_watermark and high_watermark > 0
                else self.max_queue)
        self.high_watermark = min(high, self.max_queue)
        low = (low_watermark if low_watermark is not None
               else self.high_watermark // 2)
        self.low_watermark = max(0, min(low, self.high_watermark - 1))
        #: server-wide deadline ceiling; a request asking for more (or
        #: for none at all) is clamped down to it (None: no ceiling)
        self.max_deadline_s = (max_deadline_s
                               if max_deadline_s and max_deadline_s > 0
                               else None)
        #: per-connection outstanding-unit cap, never above the global
        #: in-flight cap (a single batch larger than the global cap
        #: could otherwise never be dispatched)
        self.per_conn_units = min(per_conn_units or self.max_inflight,
                                  self.max_inflight)
        self.queued = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.admitted_units = 0
        self.shed_units = 0
        self.completed_units = 0
        self._saturated = False
        self._draining = False
        self._last_shed_detail = ""
        self._unit_latency_s: float | None = None
        self._per_conn: dict[object, int] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    # -- admission -----------------------------------------------------------

    def try_admit(self, units: int = 1,
                  conn: object = None) -> Ticket | None:
        """Admit *units* as one ticket, or None when they must be shed.

        Sheds when draining, when the bounded queue is past its high
        watermark (and until it falls below the low watermark), when
        the connection's outstanding units would exceed its cap, or
        when the ``overload`` injection site fires.
        """
        units = max(1, int(units))
        injected = _faults().inject("overload") is not None
        with self._lock:
            if self._draining:
                return self._shed(units, "server is draining")
            if injected:
                return self._shed(units, "injected overload")
            depth = self.queued
            if self._saturated:
                if depth <= self.low_watermark:
                    self._saturated = False
                else:
                    return self._shed(
                        units, f"queue saturated ({depth} units queued, "
                               f"readmitting below {self.low_watermark})")
            if depth + units > self.high_watermark:
                self._saturated = True
                return self._shed(
                    units, f"queue full ({depth}+{units} units over the "
                           f"{self.high_watermark}-unit watermark)")
            if conn is not None:
                held = self._per_conn.get(conn, 0)
                if held + units > self.per_conn_units:
                    return self._shed(
                        units, f"connection unit cap ({held}+{units} over "
                               f"{self.per_conn_units})")
                self._per_conn[conn] = held + units
            self.queued += units
            self.admitted_units += units
            return Ticket(self, units, conn)

    def _shed(self, units: int, detail: str):
        self.shed_units += units
        self._last_shed_detail = detail
        return None

    def _start(self, ticket: Ticket) -> None:
        with self._lock:
            self.queued -= ticket.units
            self.inflight += ticket.units
            self.peak_inflight = max(self.peak_inflight, self.inflight)
            if self._saturated and self.queued <= self.low_watermark:
                self._saturated = False

    def _finish(self, ticket: Ticket) -> None:
        with self._lock:
            if ticket._started:
                self.inflight -= ticket.units
            else:  # admitted but never dispatched (e.g. aborted batch)
                self.queued -= ticket.units
            self.completed_units += ticket.units
            if ticket.conn is not None:
                held = self._per_conn.get(ticket.conn, 0) - ticket.units
                if held > 0:
                    self._per_conn[ticket.conn] = held
                else:
                    self._per_conn.pop(ticket.conn, None)
            if self._saturated and self.queued <= self.low_watermark:
                self._saturated = False
            self._idle.notify_all()

    # -- state ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def saturated(self) -> bool:
        with self._lock:
            return self._saturated

    def ready(self) -> bool:
        """Readiness-probe answer: admitting and below the watermark."""
        with self._lock:
            return not self._draining and not self._saturated

    def begin_drain(self) -> None:
        """Stop admitting; in-flight units run to completion."""
        with self._lock:
            self._draining = True
            self._idle.notify_all()

    def idle(self) -> bool:
        """No admitted unit is still owed a response."""
        with self._lock:
            return self.queued == 0 and self.inflight == 0

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until idle (drain barrier); returns the idle state."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self.queued == 0 and self.inflight == 0,
                timeout=timeout)

    # -- deadlines and latency -----------------------------------------------

    def effective_deadline(self, deadline_s: float | None) -> float | None:
        """Clamp a request deadline to the server ceiling (mandatory
        effective deadline when ``max_deadline_s`` is set)."""
        if self.max_deadline_s is None:
            return deadline_s
        if deadline_s is None or deadline_s > self.max_deadline_s:
            return self.max_deadline_s
        return deadline_s

    def observe(self, elapsed_s: float) -> None:
        """Feed one observed unit latency into the Retry-After EWMA."""
        if elapsed_s < 0:
            return
        with self._lock:
            if self._unit_latency_s is None:
                self._unit_latency_s = elapsed_s
            else:
                self._unit_latency_s += _LATENCY_ALPHA * (
                    elapsed_s - self._unit_latency_s)

    def retry_after_s(self) -> float:
        """Seconds until capacity is plausible: outstanding units times
        observed unit latency, spread over the execution width."""
        with self._lock:
            latency = self._unit_latency_s
            outstanding = self.queued + self.inflight
        if latency is None:
            latency = DEFAULT_RETRY_AFTER_S
        estimate = max(1, outstanding) * latency / max(1, self.max_inflight)
        return min(max(estimate, MIN_RETRY_AFTER_S), MAX_RETRY_AFTER_S)

    # -- shed responses ------------------------------------------------------

    def shed_event(self, detail: str = ""):
        """The ``overload`` FaultEvent a shed response carries."""
        with self._lock:
            detail = detail or self._last_shed_detail or "admission shed"
        return _faults().FaultEvent(
            "overload", stage="admission", retryable=True,
            detail=detail[:200])

    def shed_response(self, request_id: str = "", kind: str = "",
                      detail: str = ""):
        """Structured ``overloaded`` response for one shed request.

        ``ok=False`` (the request was not measured), ``verdict=
        "overloaded"``, the ``overload`` event as provenance, and the
        Retry-After estimate in ``meta`` so JSON-lines callers -- who
        have no status-code channel -- see the same information HTTP
        clients read from the 503 headers.
        """
        from .api import VerifyResponse
        retry_after = self.retry_after_s()
        response = VerifyResponse(request_id=request_id, kind=kind)
        response.ok = False
        response.verdict = "overloaded"
        event = self.shed_event(detail)
        response.detail = event.detail
        response.meta = {"retry_after_s": round(retry_after, 3)}
        response.degraded = [event.as_dict()]
        return response

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "queued": self.queued,
                "inflight": self.inflight,
                "peak_inflight": self.peak_inflight,
                "admitted_units": self.admitted_units,
                "shed_units": self.shed_units,
                "completed_units": self.completed_units,
                "max_queue": self.max_queue,
                "max_inflight": self.max_inflight,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "saturated": self._saturated,
                "draining": self._draining,
                "unit_latency_s": (round(self._unit_latency_s, 6)
                                   if self._unit_latency_s is not None
                                   else None),
            }
