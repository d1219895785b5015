"""JSON-lines frontend of the verification service (``python -m repro
serve``).

External harnesses drive the engine without importing Python APIs::

    printf '%s\n' \
      '{"kind": "syntax", "candidate": "assert property (@(posedge clk) a);", "widths": {"a": 1}}' \
      | PYTHONPATH=src python -m repro serve

Wire protocol (documented in docs/service.md):

* one :class:`~repro.service.api.VerifyRequest` JSON object per input
  line (the in-process object fields are not accepted);
* requests accumulate into a batch -- so in-flight dedup and prover
  grouping see them together -- and a **blank line or end of
  input flushes** the batch, emitting one response JSON object per
  request: in request order when the service runs batches inline (the
  default) or on a one-worker process pool, in *completion* order on
  a process pool of several workers (``--executor process --workers
  N``), each response carrying its zero-based position within the
  flushed batch as ``index``;
* a line that fails to decode or validate produces an immediate
  ``{"ok": false, "verdict": "error", ...}`` response for that line
  only; the batch keeps accumulating;
* with an admission controller attached (``serve --max-queue`` /
  ``FVEVAL_MAX_QUEUE``), a line arriving while the bounded queue is
  full produces an immediate ``{"ok": false, "verdict": "overloaded",
  ...}`` response -- carrying an ``overload`` fault event and a
  ``retry_after_s`` estimate in ``meta`` -- instead of buffering
  without bound (docs/robustness.md);
* a degraded verdict-cache tier (a dead ``cache-serve`` host in
  ``FVEVAL_CACHE_TIERS`` / ``serve --cache-tiers``) never fails a
  request: the response stays ``ok=true`` and carries a
  ``cache_remote`` fault event in ``degraded`` (docs/cache.md) -- the
  exit status is unaffected.

Responses echo ``request_id`` (assigned ``req<n>`` when the caller sent
none), so callers may correlate out-of-band; out-of-order consumers
should correlate by ``index``.
"""

from __future__ import annotations

import json

from .admission import AdmissionController
from .api import (
    RequestError, error_wire, request_from_json, response_to_json,
)
from .service import VerificationService


def serve_stream(in_stream, out_stream,
                 service: VerificationService | None = None,
                 admission: AdmissionController | None = None) -> int:
    """Run the request/response loop; returns a process exit status.

    The exit status is 0 when every line was schedulable, 1 when any
    request failed to decode/validate, was shed by admission control,
    or any verdict came back ``ok=false`` (engine-level errors still
    produce a response line -- the stream keeps going).
    """
    service = service or VerificationService()
    if admission is not None and service.admission is None:
        # deadline clamping + unit-latency observation ride the service
        service.admission = admission
    pending = []
    tickets = []
    failures = 0

    def emit(obj: dict) -> None:
        out_stream.write(json.dumps(obj) + "\n")
        out_stream.flush()

    def flush() -> int:
        nonlocal pending, tickets
        batch, pending = pending, []
        batch_tickets, tickets = tickets, []
        for ticket in batch_tickets:
            ticket.start()
        bad = 0
        answered: set[int] = set()
        try:
            for response in service.stream(batch):
                if not response.ok:
                    bad += 1
                emit(response_to_json(response))
                answered.add(response.index)
        except Exception as exc:  # infrastructure failure mid-batch
            # (per-request engine errors already came back as ok=false
            # response lines; KeyboardInterrupt/SystemExit are
            # BaseExceptions and propagate -- a user abort must not be
            # swallowed into error lines): every unanswered index --
            # responses may have completed out of order -- still owes a
            # response line, carrying the classified fault as provenance
            from ..core.faults import classify
            event = classify(exc, stage="service").as_dict()
            for position, request in enumerate(batch):
                if position in answered:
                    continue
                bad += 1
                emit(error_wire(request, event["detail"], index=position,
                                degraded=[event]))
        finally:
            # finish-after-write: the admission layer's "idle" then
            # means every owed response line has been emitted
            for ticket in batch_tickets:
                ticket.finish()
        return bad

    lineno = 0
    for raw in in_stream:
        lineno += 1
        line = raw.strip()
        if not line:
            failures += flush()
            continue
        obj = None
        try:
            obj = json.loads(line)
            request = request_from_json(obj)
        except (json.JSONDecodeError, RequestError, TypeError) as exc:
            failures += 1
            # echo the caller's id whenever the JSON decoded far enough
            # to carry one, so correlation survives validation failures
            wire = error_wire(obj, str(exc))
            wire["request_id"] = wire["request_id"] or f"line{lineno}"
            emit(wire)
            continue
        if admission is not None:
            ticket = admission.try_admit(1)
            if ticket is None:
                # bounded queue: shed now with a structured response
                # instead of accumulating without bound
                failures += 1
                emit(response_to_json(admission.shed_response(
                    request.request_id, request.kind)))
                continue
            tickets.append(ticket)
        pending.append(request)
    failures += flush()
    return 1 if failures else 0
