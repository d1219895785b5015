"""Design signatures: the affinity key shared by router and service.

:func:`design_signature` is the assertion-independent fingerprint of an
elaborated design -- the scheduler's prove grouping key and the design
part of every ``prove`` cache key.  It lives here (rather than in
:mod:`repro.service.service`, which re-exports it) so the routing tier
can compute the *same* key without importing the whole service.

:func:`routing_signature` is the wire-side companion: given one
:class:`~repro.service.api.VerifyRequest` as the router sees it, return
a deterministic signature such that two requests the service would
schedule onto one pooled prover land on the same replica.  For ``prove``
requests that means **signing the elaborated base**: hashing raw text
would scatter the n samples of one pass@k problem, whose merged texts
differ only in the run of assertions before ``endmodule``.  The router
elaborates through :func:`repro.rtl.elaborate.elaborate` as the replica
does, so the first sample of a problem is parsed and learns its frame
and the others bind onto that frame's base, whose signature is computed
once; support code and failing samples take the full path, on both
sides.  Either path yields the replica's ``design_signature``, so
placement and prover pooling agree.  Other kinds have no prover pool;
they route by their dominant shared context so one problem's samples
still colocate with their siblings' cache entries.
"""

from __future__ import annotations

import hashlib

__all__ = ["design_signature", "routing_signature"]


def design_signature(design) -> tuple:
    """Assertion-independent fingerprint of an elaborated design.

    The prove grouping key of the scheduler and the design part of every
    ``prove`` cache key: the n samples of one problem splice different
    assertions into the *same* support logic, so equal signatures let
    them share one prover (COI cones, unrolled AIGs, incremental
    solvers, simulation traces).

    Computed once per elaborated base and kept in ``design.derived``,
    which every design bound from that base shares: a design is
    read-only once elaborated.
    """
    signature = design.derived.get("signature")
    if signature is None:
        from ..sva.unparse import unparse
        signature = design.derived["signature"] = (
            design.name,
            tuple(sorted(design.widths.items())),
            tuple(sorted(design.inputs)),
            tuple(sorted(design.state)),
            tuple(sorted(design.init.items())),
            tuple(sorted(design.params.items())),
            design.clock,
            tuple(design.resets),
            tuple(sorted((n, unparse(e))
                         for n, e in design.next_exprs.items())),
            tuple(sorted((n, unparse(e))
                         for n, e in design.comb_exprs.items())),
        )
    return signature


def routing_signature(request) -> tuple:
    """The replica-affinity key of one request (router plan time).

    Deterministic across processes, and for ``prove`` requests equal --
    modulo the leading tag -- to the design signature the service keys
    its prover pool with, so the router's placement and the replica's
    prover pooling agree.  Never raises: anything unparseable falls
    back to a content hash, which is still deterministic.
    """
    kind = getattr(request, "kind", "")
    if kind == "prove":
        design = getattr(request, "design", None)
        if design is None:
            from ..rtl.elaborate import elaborate
            source = request.source
            try:
                design = elaborate(source, top=request.top)
            except Exception:
                # ElaborationError/ValueError and anything else the
                # parser throws: the replica will answer syntax_error;
                # routing just needs *a* deterministic bucket for it --
                # the text's hash (a parsed source only exists in
                # process, where one bucket per top will do)
                text = source if isinstance(source, str) else ""
                return ("source", hashlib.sha256(
                    f"{request.top or ''}\x00{text}".encode(
                        "utf-8", "replace")).hexdigest())
        return ("design", design_signature(design))
    if kind == "equivalence":
        # one problem's samples share the reference and signal context;
        # the varying candidate is deliberately excluded
        return ("equivalence", request.reference,
                tuple(sorted(request.widths.items())),
                tuple(sorted((request.params or {}).items())))
    if kind == "trace":
        return ("trace", tuple(sorted(request.widths.items())),
                tuple(sorted((request.params or {}).items())))
    if kind == "syntax":
        return ("syntax", tuple(sorted(request.widths.items())),
                tuple(sorted((request.params or {}).items())),
                tuple(sorted(request.extra_signals)))
    return ("opaque", kind, str(getattr(request, "candidate", "")))
