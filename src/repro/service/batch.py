"""Cross-sample packed-lane scheduling for batched ``prove`` requests.

The per-sample simulation-first falsifier already evaluates one
assertion over up to 64 random traces in a single bit-parallel pass
(:mod:`repro.formal.bitsim`).  A pass@k batch, however, carries *n
candidate assertions per problem* -- usually near-duplicates asserting
on the same design cone -- and the per-sample path still runs one pass
(and builds one property encoding) per candidate.

:func:`presimulate` amortizes that across the batch: the candidate
assertions of a prove group are bucketed by their cone of influence,
each bucket's assertions are encoded into **one** shared AIG
(:class:`BatchTraceChecker` -- structural hashing merges their common
subterms), and a single interpretive pass over the bucket's packed
traces (:func:`repro.formal.bitsim.packed_violation_masks`) scores every
candidate at once.  The per-candidate violation masks are seeded into
the prover's batch memo; :meth:`repro.formal.prover.Prover.
_simulate_falsify` consumes them instead of re-running its own pass, so
a cone costs one packed falsification pass per *batch* instead of one
per *sample* (the ROADMAP packed-lane item).

Soundness/parity: the masks are computed from the same seeded traces and
the same property encodings the per-sample path would use, so verdicts
are bit-identical -- only the number of encoding builds and interpretive
passes changes (``tests/test_service_parity.py``).
"""

from __future__ import annotations

from ..formal.bitsim import MAX_LANES, packed_violation_masks
from ..formal.prover import bump, has_unbounded_strong
from ..formal.semantics import PropertyEncoder, horizon_of
from ..sva.unparse import unparse
from .signature import routing_signature


def equiv_group_key(request, engine_fingerprint) -> tuple:
    """Pool/group key of an equivalence request: every candidate compared
    against one (reference, widths, params) under one engine configuration
    lands in the same group and reuses one
    :class:`~repro.formal.equivalence.EquivChecker` -- the equivalence
    analogue of the per-design-cone prove group.  The leading tag keeps the
    keyspace disjoint from prove pool keys."""
    return ("equiv", routing_signature(request), engine_fingerprint)


def group_affinity(pool_key) -> object:
    """The value the process executor hashes for slot placement of a unit.

    Prove pool keys are ``(design_signature, engine)`` -- affinity follows
    the design signature so one cone's samples stay on one slot;
    equivalence keys are ``("equiv", routing_signature, engine)`` -- the
    routing signature plays the same role."""
    return pool_key[1] if pool_key[0] == "equiv" else pool_key[0]


class BatchTraceChecker:
    """Encode many assertions' trace attempts into one shared AIG.

    The multi-assertion analogue of :class:`~repro.formal.prover.
    TraceChecker`: each assertion keeps its own attempt window (the
    per-sample ``first_attempt``/``last_attempt`` arithmetic is mirrored
    per assertion), but all attempt literals live in one AIG over one
    :class:`~repro.formal.bitvec.FreeSignalSource`, so near-duplicate
    candidates share their encoded subterms and the whole group is
    evaluated by a single cone walk.
    """

    def __init__(self, assertions, length: int, widths: dict[str, int],
                 params: dict[str, int] | None = None,
                 first_attempt: int = 0, prehistory: int = 0):
        from ..formal.aig import AIG
        from ..formal.bitvec import FreeSignalSource
        self.length = length
        self.prehistory = prehistory
        self.aig = AIG()
        self.source = FreeSignalSource(self.aig, dict(widths),
                                       default_width=1)
        encoder = PropertyEncoder(self.aig, self.source, length, params)
        #: per-assertion attempt literals, aligned with *assertions*
        self.groups: list[list[int]] = []
        for assertion in assertions:
            window = max(1, horizon_of(assertion) + 1)
            stop = length - window
            self.groups.append([
                encoder.encode_assertion(assertion, t)
                for t in range(first_attempt,
                               max(first_attempt, stop) + 1)])
        self._order = self.aig.cone(
            [lit for group in self.groups for lit in group])


def _reduced(prover, assertion):
    """The (reduced design, cone key) :meth:`Prover.prove` would use."""
    if not prover.use_coi:
        return prover.design, frozenset(prover.design.widths)
    from ..formal.coi import assertion_roots
    return prover._reduced_design(assertion_roots(assertion))


def presimulate(prover, assertions) -> list[bool]:
    """Run one packed falsification pass per cone for *assertions*.

    Seeds ``prover._batch_sim`` with per-assertion violation masks; the
    returned list says, per input assertion, whether its simulation
    verdict was batch-scheduled (``False`` entries fall back to the
    per-sample path inside ``prove()``, verdict-identically).  Cones with
    fewer than two distinct candidates are left to the per-sample path --
    a batch of one amortizes nothing.

    Only the packed-subset configuration is batched: the scalar fallback
    (``use_packed_sim=False`` or ``sim_traces > 64``) and assertions the
    prover never simulates (liveness obligations, ``use_simulation=
    False``) keep their existing flow untouched.
    """
    covered = [False] * len(assertions)
    if not (prover.use_simulation and prover.use_packed_sim
            and 0 < prover.sim_traces <= MAX_LANES):
        return covered
    # bucket by cone; dedup within a bucket by the batch-memo key so two
    # textually identical samples encode (and store) once
    buckets: dict[frozenset, dict[str, tuple[int, object]]] = {}
    order: list[frozenset] = []
    for index, assertion in enumerate(assertions):
        if has_unbounded_strong(assertion.prop):
            continue  # never reaches the falsifier; prove() short-circuits
        design, cone_key = _reduced(prover, assertion)
        bucket = buckets.get(cone_key)
        if bucket is None:
            bucket = buckets[cone_key] = {}
            order.append(cone_key)
        bucket.setdefault(unparse(assertion), (index, design))
    for cone_key in order:
        bucket = buckets[cone_key]
        if len(bucket) < 2:
            continue
        design = next(iter(bucket.values()))[1]
        with prover._stage("sim_s"):
            packed = prover._packed_traces(design, cone_key)
            if packed is None:
                # scalar-generated traces, checked bit-parallel -- the
                # same fallback the per-sample hybrid path uses
                packed = prover._packed_scalar(design, cone_key)
            with prover._stage("sim_build_s"):
                checker = BatchTraceChecker(
                    [assertions[index] for index, _ in bucket.values()],
                    length=prover.sim_cycles + 2,
                    widths=design.widths, params=design.params,
                    first_attempt=2)
            with prover._stage("sim_check_s"):
                masks = packed_violation_masks(checker, packed)
        for (key, (index, _design)), mask in zip(bucket.items(), masks):
            # entries are deterministic per (cone, assertion text), so they
            # persist in the memo and textual duplicates read the same one
            prover._batch_sim[(cone_key, key)] = (mask & packed.mask, packed)
            covered[index] = True
        bump(prover.profile, "sim_batch_passes", 1)
    # textual duplicates share the seeded mask entry
    for index, assertion in enumerate(assertions):
        if not covered[index] and not has_unbounded_strong(assertion.prop):
            _design, cone_key = _reduced(prover, assertion)
            if (cone_key, unparse(assertion)) in prover._batch_sim:
                covered[index] = True
    return covered
