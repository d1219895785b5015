"""Typed request/response vocabulary of the verification service.

Every verdict the benchmark produces is the answer to one
:class:`VerifyRequest` of one of four kinds:

``syntax``
    Gate an LLM assertion response (``candidate``) against a signal
    context (``widths``/``params``/``extra_signals``) --
    :mod:`repro.sva.syntax`.
``equivalence``
    Decide candidate-vs-reference equivalence / one-sided implication
    over all bounded traces -- :mod:`repro.formal.equivalence`.
``prove``
    Model-check an assertion on an elaborated design (``source``/``top``,
    or a pre-elaborated ``design`` object in process) --
    :mod:`repro.formal.prover`.  ``engine`` carries the prover
    configuration (``max_bmc``, ``strategy``, ...).
``trace``
    Evaluate an assertion against one concrete trace --
    :func:`repro.formal.prover.check_trace`.

The :class:`VerifyResponse` carries the verdict fields the tasks fold
into :class:`~repro.core.tasks.EvalRecord`\\ s (``verdict`` / ``func`` /
``partial`` / ``detail`` / ``meta``) plus *provenance* the records never
see: ``cache_hit``, ``dedup_of``, ``elapsed_s``,
``index`` (the request's position within its batch -- the correlation
key once the process executor streams completions out of order),
``worker_id`` (which process slot computed it) and
``degraded`` (fault/degradation events observed while producing the
verdict -- docs/robustness.md).
Provenance describes how the service produced the verdict; the verdict
fields themselves are deterministic, which is what keeps cached and
deduplicated runs record-identical to direct computation
(docs/service.md).

Both dataclasses have a JSON wire form (:func:`request_from_json`,
:func:`response_to_json`) used by the ``python -m repro serve``
frontend; in-process callers may additionally attach parsed objects
(``design``, ``assertion``, ``reference_ast``) that never serialize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: recognized request kinds
KINDS = ("syntax", "equivalence", "prove", "trace")


class RequestError(ValueError):
    """A request that cannot be scheduled (unknown kind, missing field)."""


@dataclass
class VerifyRequest:
    """One unit of verification work.

    Field applicability by kind (everything else is ignored):

    * ``syntax`` -- ``candidate``, ``widths``, ``params``,
      ``extra_signals``;
    * ``equivalence`` -- ``reference``/``reference_ast``, ``candidate``,
      ``widths``, ``params``, ``engine`` (``horizons``,
      ``max_conflicts``);
    * ``prove`` -- ``source``+``top`` or ``design``, optionally
      ``assertion`` (default: the design's last concurrent assertion),
      ``assumes``, ``engine`` (prover kwargs);
    * ``trace`` -- ``candidate``/``assertion``, ``trace``, ``widths``,
      ``params``.
    """

    kind: str
    #: assertion text under test (syntax / equivalence / trace) -- for
    #: ``prove`` the assertion is normally part of ``source``
    candidate: str = ""
    #: reference assertion text (equivalence)
    reference: str = ""
    #: RTL source of the design to prove on (text or parsed SourceFile)
    source: object = ""
    #: module to elaborate (default: the last module of ``source``)
    top: str | None = None
    widths: dict = field(default_factory=dict)
    #: parameter bindings; None (the default) and {} are both "no
    #: parameters" but are forwarded verbatim so the engines see exactly
    #: what a direct call would have passed
    params: dict | None = None
    #: extra legal identifiers for the syntax gate (e.g. ``("clk",)``)
    extra_signals: tuple = ()
    #: concrete trace for ``trace`` requests: signal -> per-cycle values
    trace: dict | None = None
    #: environment constraints for ``prove`` (assume directives, as text)
    assumes: tuple = ()
    #: engine configuration; part of the cache key, so changing it
    #: invalidates instead of serving stale verdicts
    engine: dict = field(default_factory=dict)
    #: caller-assigned id echoed in the response (service assigns
    #: ``req<n>`` when empty)
    request_id: str = ""
    #: verdict-cache namespace (default: the request kind)
    cache_ns: str = ""
    #: memoize/serve this request through the verdict cache; also gates
    #: in-flight dedup, so ``use_cache=False`` always recomputes
    use_cache: bool = True
    #: wall-clock deadline in seconds for this request's computation
    #: (None: the service default / ``FVEVAL_DEADLINE_S``).  Expiry is a
    #: structured ``timeout`` verdict, never an exception
    #: (docs/robustness.md).
    deadline_s: float | None = None
    # -- in-process fast paths (never serialized) ---------------------------
    #: pre-elaborated :class:`~repro.rtl.elaborate.Design` (prove)
    design: object = None
    #: parsed :class:`~repro.sva.ast_nodes.Assertion` (prove / trace)
    assertion: object = None
    #: parsed reference assertion (equivalence)
    reference_ast: object = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise RequestError(f"unknown request kind {self.kind!r}; "
                               f"expected one of {KINDS}")
        for name, want, label in (("widths", dict, "mapping"),
                                  ("engine", dict, "mapping"),
                                  ("extra_signals", (list, tuple, set),
                                   "sequence"),
                                  ("assumes", (list, tuple), "sequence")):
            if not isinstance(getattr(self, name), want):
                raise RequestError(
                    f"{name} must be a {label}, "
                    f"got {type(getattr(self, name)).__name__}")
        if self.params is not None and not isinstance(self.params, dict):
            raise RequestError("params must be a mapping or null")
        if self.deadline_s is not None:
            try:
                positive = float(self.deadline_s) > 0
            except (TypeError, ValueError):
                positive = False
            if not positive:
                raise RequestError(
                    "deadline_s must be a positive number of seconds "
                    "or null")
        if self.kind == "equivalence" and not (self.reference
                                               or self.reference_ast):
            raise RequestError("equivalence request needs a reference")
        if self.kind == "prove" and self.design is None and not self.source:
            raise RequestError("prove request needs a design source")
        if self.kind == "trace":
            if not isinstance(self.trace, dict):
                raise RequestError("trace request needs a trace mapping")
        if self.kind in ("syntax", "equivalence") and not self.candidate:
            raise RequestError(f"{self.kind} request needs a candidate")

    @property
    def namespace(self) -> str:
        return self.cache_ns or self.kind


@dataclass
class VerifyResponse:
    """The verdict for one request, plus how the service produced it."""

    request_id: str
    kind: str
    #: False iff the request itself failed (bad input, engine error)
    ok: bool = True
    #: verdict vocabulary by kind: ``ok``/``syntax_error`` (syntax),
    #: the equivalence lattice values, ``proven``/``cex``/
    #: ``undetermined``/``error``/``syntax_error`` (prove),
    #: ``pass``/``violation`` (trace)
    verdict: str = ""
    func: bool = False
    partial: bool = False
    detail: str = ""
    #: deterministic engine metadata (prove: engine/depth/vacuous;
    #: trace: violation_at; equivalence CLI runs add counterexample)
    meta: dict = field(default_factory=dict)
    # -- provenance: never folded into EvalRecords --------------------------
    cache_hit: bool = False
    #: request_id of the identical in-flight request this verdict was
    #: shared from (canonical-key dedup), or None if computed/cached
    dedup_of: str | None = None
    elapsed_s: float = 0.0
    #: zero-based position of the request within its scheduled batch --
    #: the correlation key for out-of-order consumption (``stream()``
    #: and ``serve`` on the process executor with more than one worker
    #: complete out of request order)
    index: int | None = None
    #: process-executor slot that computed this response (None when the
    #: service answered it inline, in the calling thread)
    worker_id: int | None = None
    #: degradation/fault provenance: :class:`~repro.core.faults.
    #: FaultEvent` dicts, in the order observed (empty on the clean
    #: path).  Provenance, never folded into EvalRecords -- a degraded
    #: verdict is still the verdict.
    degraded: list = field(default_factory=list)


#: wire-form request fields (in-process object fields excluded)
_WIRE_FIELDS = ("kind", "candidate", "reference", "source", "top", "widths",
                "params", "extra_signals", "trace", "assumes", "engine",
                "request_id", "cache_ns", "use_cache", "deadline_s")


def request_from_json(obj: dict) -> VerifyRequest:
    """Build a request from one decoded JSON-lines object."""
    if not isinstance(obj, dict):
        raise RequestError("request must be a JSON object")
    unknown = set(obj) - set(_WIRE_FIELDS)
    if unknown:
        raise RequestError(f"unknown request fields: {sorted(unknown)}")
    if "kind" not in obj:
        raise RequestError("request needs a 'kind'")
    kwargs = dict(obj)
    for name in ("extra_signals", "assumes"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    request = VerifyRequest(**kwargs)
    request.validate()
    return request


def requests_from_body(body: bytes) -> tuple[bool, list, list]:
    """Decode one POSTed ``/v1/verify`` body: ``(single, items,
    parsed)``.

    *single* says the body was one object rather than an array; *items*
    are the raw wire objects (what a router forwards); ``parsed[i]`` is
    the validated :class:`VerifyRequest` of ``items[i]``, or -- for a
    position that fails validation -- the :func:`error_wire` ``dict``
    that answers it, so invalid items never cost a unit or a forward.
    Raises :class:`RequestError` when the body as a whole is unusable.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise RequestError("body is not valid JSON") from None
    single = not isinstance(payload, list)
    items = [payload] if single else payload
    if not items:
        raise RequestError("empty batch")
    parsed: list = []
    for position, item in enumerate(items):
        try:
            parsed.append(request_from_json(item))
        except (RequestError, TypeError) as exc:
            parsed.append(error_wire(item, str(exc), index=position))
    return single, items, parsed


def response_to_json(response: VerifyResponse) -> dict:
    """Wire form of a response (stable key order for JSON-lines)."""
    return {
        "request_id": response.request_id,
        "kind": response.kind,
        "ok": response.ok,
        "verdict": response.verdict,
        "func": response.func,
        "partial": response.partial,
        "detail": response.detail,
        "meta": dict(response.meta),
        "cache_hit": response.cache_hit,
        "dedup_of": response.dedup_of,
        "elapsed_s": round(response.elapsed_s, 6),
        "index": response.index,
        "worker_id": response.worker_id,
        "degraded": list(response.degraded),
    }


def error_wire(source, detail: str, index: int | None = None,
               degraded=(), meta: dict | None = None) -> dict:
    """The ``ok=false`` / ``verdict="error"`` wire object answering
    *source*: a :class:`VerifyRequest`, or a decoded wire item that
    never became one (its ``request_id``/``kind`` are echoed whenever
    the JSON got far enough to carry them, so correlation survives
    validation failures).  *degraded* is the fault provenance, *meta*
    extra response metadata such as ``retry_after_s``."""
    if isinstance(source, VerifyRequest):
        request_id, kind = source.request_id or "", source.kind
    elif isinstance(source, dict):
        request_id = source.get("request_id", "")
        kind = str(source.get("kind", ""))
    else:
        request_id = kind = ""
    return response_to_json(VerifyResponse(
        request_id=request_id, kind=kind, ok=False, verdict="error",
        detail=detail[:200], meta=dict(meta or {}), index=index,
        degraded=list(degraded)))
