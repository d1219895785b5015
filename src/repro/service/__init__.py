"""Unified verification service: typed requests in, verdicts out.

The single choke point through which every formal verdict of the
benchmark is produced (docs/service.md).  The three FVEval tasks are
thin adapters over this API (:mod:`repro.core.tasks`), and external
harnesses reach it over JSON lines via ``python -m repro serve``
(:mod:`repro.service.frontend`).

::

    from repro.service import VerificationService, VerifyRequest

    service = VerificationService()
    [response] = service.run([VerifyRequest(
        kind="equivalence",
        reference="assert property (@(posedge clk) a |-> b);",
        candidate="assert property (@(posedge clk) a |-> ##0 b);",
        widths={"a": 1, "b": 1, "clk": 1})])
    response.verdict        # 'equivalent'

Inside: canonical-key deduplication of identical in-flight requests,
tiered verdict caching (:mod:`repro.core.cache`, with an optional
shared remote tier served by :mod:`repro.service.cacheserve`), and a
scheduler that groups ``prove`` requests by design signature so one
pooled prover serves each group.
"""

from .admission import AdmissionController
from .cacheserve import BackgroundCacheServer, CacheServer, serve_cache
from .api import (
    KINDS,
    RequestError,
    VerifyRequest,
    VerifyResponse,
    request_from_json,
    response_to_json,
)
from ..options import resolve_executor, resolve_workers
from .frontend import serve_stream
from .http import BackgroundServer, HttpVerificationServer, serve_http
from .ring import HashRing, stable_hash
from .router import BackgroundRouter, RouterServer, serve_route
from .signature import routing_signature
from .service import VerificationService, design_signature

__all__ = [
    "KINDS", "AdmissionController", "BackgroundCacheServer",
    "BackgroundRouter", "BackgroundServer", "CacheServer",
    "HashRing", "HttpVerificationServer", "RequestError",
    "RouterServer", "VerificationService", "VerifyRequest",
    "VerifyResponse", "design_signature", "request_from_json",
    "resolve_executor", "resolve_workers", "response_to_json",
    "routing_signature",
    "serve_cache", "serve_http", "serve_route", "serve_stream",
    "stable_hash",
]
