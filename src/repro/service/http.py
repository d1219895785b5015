"""Asyncio HTTP frontend of the verification service (``python -m repro
serve --http HOST:PORT``).

A route table over the shared server kernel
(:mod:`repro.service.aserver`: listener, keep-alive loop, framing
errors, drain, signals -- docs/service.md).  The frontend exposes:

``POST /v1/verify``
    One :class:`~repro.service.api.VerifyRequest` wire object -- or a
    JSON array of them, scheduled as one batch so in-flight dedup and
    prover grouping see them together.  The response
    body mirrors the input shape (object in, object out; array in,
    array out) using the exact JSON-lines wire form
    (:func:`~repro.service.api.response_to_json`), each response
    carrying its zero-based ``index`` within the POSTed batch.  Status
    codes: 200 (every index answered; individual responses may still be
    ``ok=false``), 400 (unparseable body, empty batch, or a single
    invalid request), 503 + ``Retry-After`` (admission shed the batch;
    body is one structured ``overloaded`` response), 500 (an
    infrastructure failure mid-batch; the body still answers every
    index with ``ok=false`` error responses).
``GET /healthz``
    Liveness: 200 always -- including under overload and during drain.
``GET /readyz``
    Readiness: 200 while admitting, 503 once saturated or draining.
``GET /metrics``
    JSON counters: admission state (queue depth, in-flight units,
    sheds), per-verdict totals, per-fault-code totals from the PR 6
    taxonomy (docs/robustness.md), retry/degraded/timeout counts,
    cache hit rates, HTTP status buckets.

Overload behaviour is the point (docs/robustness.md): admission happens
*before* scheduling, on the shared
:class:`~repro.service.admission.AdmissionController`, so a saturated
server answers 503 in microseconds instead of queuing minutes of work
it will answer too late.  Graceful drain on SIGTERM/SIGINT: stop
listening, stop admitting, let in-flight batches finish (or deadline
out through the existing three-layer enforcement), write every owed
response, then exit 0.  A second signal force-kills worker processes
via the procpool backstop and exits nonzero immediately.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .admission import AdmissionController
from .api import (
    RequestError, error_wire, requests_from_body, response_to_json,
)
# MAX_BODY_BYTES and parse_address stay importable from here: they are
# part of this module's public surface
from .aserver import (  # noqa: F401
    MAX_BODY_BYTES, AsyncJsonServer, BackgroundHarness, Connection,
    HttpError, HttpRequest, expect_route, parse_address, run,
)
from .service import VerificationService


class HttpVerificationServer(AsyncJsonServer):
    """The asyncio server: admission-gated verify plus health/metrics.

    One instance owns one listening socket, one shared
    :class:`~repro.service.service.VerificationService` and one
    :class:`~repro.service.admission.AdmissionController` (wired onto
    the service for deadline clamping and latency observation).
    Batches execute on a thread pool sized to the in-flight cap; the
    cap itself is enforced *before* dispatch, so the pool can never
    hold more than ``max_inflight`` units of admitted work.
    """

    def __init__(self, service: VerificationService | None = None,
                 admission: AdmissionController | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.service = service or VerificationService()
        self.admission = admission or AdmissionController()
        if self.service.admission is None:
            self.service.admission = self.admission
        # binds to the serving loop on first use, not here
        self._slots = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission.max_inflight,
            thread_name_prefix="fveval-http")
        # metrics counters -- mutated on the event-loop thread only
        self.verdict_totals: dict[str, int] = {}
        self.fault_totals: dict[str, int] = {}
        self.retried_faults = 0
        self.degraded_responses = 0
        self.shed_responses = 0

    # -- lifecycle hooks -----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting and stop listening; in-flight work finishes.
        Tickets finish only after their response bytes are flushed, so
        the kernel's wait for in-flight handlers is also the wait for
        every owed response index."""
        self.admission.begin_drain()
        super().begin_drain()

    def force_shutdown(self) -> None:
        """Second-signal path: kill worker processes via the procpool
        backstop and abandon the drain."""
        self.forced = True
        try:
            self.service.close()
        except Exception:
            pass
        asyncio.get_running_loop().create_task(self._notify_slots())

    async def on_drained(self) -> None:
        self._executor.shutdown(wait=False)

    async def _notify_slots(self) -> None:
        async with self._slots:
            self._slots.notify_all()

    def ready(self) -> tuple[bool, dict]:
        if self.admission.ready():
            return True, {"status": "ready"}
        return False, {"status": ("draining" if self.admission.draining
                                  else "saturated")}

    # -- the verify path -----------------------------------------------------

    async def handle(self, request: HttpRequest, conn: Connection) -> None:
        expect_route(request, "/v1/verify", "POST")
        try:
            single, _items, parsed = requests_from_body(request.body)
        except RequestError as exc:
            raise HttpError(400, str(exc))
        # invalid positions were answered at parse time and never cost
        # units; the rest are admitted as one ticket
        live = [(pos, req) for pos, req in enumerate(parsed)
                if not isinstance(req, dict)]

        if single and not live:
            self._fold(parsed[0])
            await conn.write(400, parsed[0])
            return

        ticket = None
        if live:
            ticket = self.admission.try_admit(len(live), conn=conn)
            if ticket is None:
                retry_after = self.admission.retry_after_s()
                rid = live[0][1].request_id if single else ""
                shed = self.admission.shed_response(
                    rid, live[0][1].kind if single else "")
                wire = response_to_json(shed)
                wire["meta"]["shed_units"] = len(live)
                self.shed_responses += 1
                self._fold(wire)
                await conn.write(
                    503, wire,
                    extra=(("Retry-After", str(math.ceil(retry_after))),))
                return

        status = 200
        try:
            if ticket is not None:
                async with self._slots:
                    # the in-flight cap: dispatch only when this
                    # batch's units fit under max_inflight
                    await self._slots.wait_for(
                        lambda: self.forced
                        or (self.admission.inflight + ticket.units
                            <= self.admission.max_inflight))
                    if self.forced:
                        conn.close = True
                        await conn.write(
                            503, {"ok": False, "error": "shutting down"})
                        return
                    ticket.start()
                loop = asyncio.get_running_loop()
                wires, status = await loop.run_in_executor(
                    self._executor, self._run_batch,
                    [req for _pos, req in live])
                for (pos, _req), wire in zip(live, wires):
                    wire["index"] = pos
                    parsed[pos] = wire
            for wire in parsed:
                self._fold(wire)
            await conn.write(status, parsed[0] if single else parsed)
        finally:
            if ticket is not None:
                # finish-after-write: drain's "idle" implies every owed
                # response index has been emitted
                ticket.finish()
                await self._notify_slots()

    def _run_batch(self, requests) -> tuple[list[dict], int]:
        """Execute one admitted batch on a pool thread: the wire
        objects in request order, and the HTTP status.

        Never raises: an infrastructure failure maps to one ``ok=False``
        error response per index (the JSON-lines frontend's mid-batch
        contract) under status 500.
        """
        try:
            return [response_to_json(response)
                    for response in self.service.run(requests)], 200
        except Exception as exc:
            from ..core.faults import classify
            event = classify(exc, stage="service").as_dict()
            return [error_wire(request, event["detail"], degraded=[event])
                    for request in requests], 500

    # -- metrics -------------------------------------------------------------

    def _fold(self, wire: dict | None) -> None:
        if not wire:
            return
        verdict = wire.get("verdict") or ""
        self.verdict_totals[verdict] = \
            self.verdict_totals.get(verdict, 0) + 1
        degraded = wire.get("degraded") or []
        if degraded:
            self.degraded_responses += 1
        for event in degraded:
            code = event.get("code", "?")
            self.fault_totals[code] = self.fault_totals.get(code, 0) + 1
            if event.get("retryable"):
                self.retried_faults += 1

    def metrics(self) -> dict:
        cache = self.service.cache_stats()
        hits = cache.get("hits", 0)
        # uncacheable results (timeout/error verdicts are never stored)
        # leave a plan-time miss that can never become a hit: exclude
        # them from the denominator, or a timeout-heavy workload reads
        # as a cold cache
        effective = max(hits + cache.get("misses", 0)
                        - cache.get("uncacheable", 0), 0)
        tiers = {}
        for name, tier in (cache.get("tiers") or {}).items():
            tier_lookups = tier.get("hits", 0) + tier.get("misses", 0)
            tiers[name] = {**tier,
                           "hit_rate": (round(tier.get("hits", 0)
                                              / tier_lookups, 4)
                                        if tier_lookups else 0.0)}
        cache = {**cache, "tiers": tiers,
                 "hit_rate": (round(hits / effective, 4)
                              if effective else 0.0)}
        service_stats = self.service.stats()
        service_stats.pop("cache", None)
        service_stats.pop("admission", None)
        return {
            "admission": self.admission.stats(),
            "retry_after_s": round(self.admission.retry_after_s(), 3),
            "verdicts": dict(self.verdict_totals),
            "faults": dict(self.fault_totals),
            "retried_faults": self.retried_faults,
            "degraded_responses": self.degraded_responses,
            "timeout_responses": self.verdict_totals.get("timeout", 0),
            "shed_responses": self.shed_responses,
            "cache": cache,
            "service": service_stats,
        }


def serve_http(spec: str, service: VerificationService | None = None,
               admission: AdmissionController | None = None) -> int:
    """Run the HTTP frontend until a signal drains it; returns the
    process exit status (0 graceful drain, 1 forced)."""
    host, port = parse_address(spec)
    server = HttpVerificationServer(service=service, admission=admission,
                                    host=host, port=port)
    status = run(server, "serving")
    if server.forced:
        # worker processes are already SIGKILLed; wedged executor
        # threads must not block the forced exit
        print("forced shutdown", file=sys.stderr, flush=True)
        os._exit(1)
    return status


class BackgroundServer(BackgroundHarness):
    """In-process HTTP frontend for tests and benchmarks: takes
    :class:`HttpVerificationServer`'s constructor arguments and runs it
    on a :class:`~repro.service.aserver.BackgroundHarness` thread."""

    server_class = HttpVerificationServer
