"""Fault taxonomy and deterministic fault injection.

Every recoverable failure the verification stack observes -- a worker
process killed mid-unit, a wall-clock deadline expiring inside a solve,
a ``MemoryError`` that sent a prove to a retry on fresh sessions, a corrupt
disk-cache entry -- is recorded as a :class:`FaultEvent` and surfaced as
``VerifyResponse.degraded`` provenance.  The taxonomy is deliberately
small and closed (:data:`FAULT_CODES`): consumers switch on ``code``,
never on exception strings.

The second half is the **fault-injection harness**: a deterministic,
seeded injector resolved from the environment so chaos behaviour is
reproducible in CI::

    FVEVAL_FAULTS="worker_crash:0.5,slow_solve:0.25:0.01"
    FVEVAL_FAULTS_SEED=7

Each ``site:rate[:arg][@max]`` clause arms one injection point (see
docs/robustness.md for the site list): ``rate`` is the per-draw firing
probability, ``arg`` an optional site-specific float (e.g. the
``slow_solve`` sleep seconds), and ``@max`` caps the total number of
fires (``worker_crash:1.0@1`` kills exactly the first dispatch --
the retry-once test shape).  Draws are *counted per site* and hashed
``sha256(seed:site:n)``, so a given (spec, seed) always fires on the
same draw ordinals regardless of thread or process interleaving, and a
respawned worker does not re-draw its predecessor's fate.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass

#: closed vocabulary of fault codes (docs/robustness.md)
FAULT_CODES = (
    "worker_crash",   # worker process died (signal/OOM) mid-unit
    "timeout",        # wall-clock deadline expired
    "memory",         # MemoryError during a prove
    "recursion",      # RecursionError during a prove
    "aig_overflow",   # packed-sim AIG over budget -> word-level traces
    "packed_sim",     # unexpected packed-sim failure -> word-level traces
    "engine_error",   # unclassified engine exception
    "cache_corrupt",  # corrupt/truncated disk-cache entry quarantined
    "cache_remote",   # remote cache tier unreachable -> fail-open skip
    "unpicklable",    # work unit could not cross the process boundary
    "overload",       # admission control shed the request (bounded queue)
    "config",         # invalid env/config value replaced by a default
    "upstream",       # router-side replica failure (connect error, dead
                      # pipe or exhausted failover chain)
)


@dataclass
class FaultEvent:
    """One observed (or injected) fault, attached to response provenance.

    ``stage`` names where it happened (``prover``, ``worker``,
    ``simulation``, ``cache``, a request kind...); ``retryable`` records
    whether the taxonomy permits another attempt; ``attempt`` is the
    attempt ordinal that *observed* the fault (0 = first try).
    """

    code: str
    stage: str = ""
    retryable: bool = False
    attempt: int = 0
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-able wire form (the shape ``degraded`` lists carry)."""
        return {"code": self.code, "stage": self.stage,
                "retryable": self.retryable, "attempt": self.attempt,
                "detail": self.detail}


def classify(exc: BaseException, stage: str = "", retryable: bool = False,
             attempt: int = 0) -> FaultEvent:
    """Map an exception to its taxonomy event.

    ``MemoryError``/``RecursionError`` are resource faults and always
    retryable (the degradation ladder retries them once on fresh proof
    sessions); anything else is ``engine_error`` with whatever the caller
    says about retryability.
    """
    detail = f"{type(exc).__name__}: {exc}"[:200]
    if isinstance(exc, MemoryError):
        return FaultEvent("memory", stage, True, attempt, detail)
    if isinstance(exc, RecursionError):
        return FaultEvent("recursion", stage, True, attempt, detail)
    return FaultEvent("engine_error", stage, retryable, attempt, detail)


class InjectedFault(RuntimeError):
    """Raised by the ``engine_error`` injection site."""


# ---------------------------------------------------------------------------
# deterministic injection
# ---------------------------------------------------------------------------


class FaultInjector:
    """Seeded, counted fault injection parsed from a spec string.

    Unknown or malformed clauses are ignored (a typo'd spec must not
    take down a run that was not even testing faults); a site absent
    from the spec never fires and costs one dict lookup.
    """

    def __init__(self, spec: str, seed: int = 0):
        self.seed = int(seed)
        #: site -> (rate, arg, max_fires)
        self.sites: dict[str, tuple[float, float | None, int | None]] = {}
        self._draws: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._lock = threading.Lock()
        for clause in (spec or "").split(","):
            clause = clause.strip()
            if not clause:
                continue
            cap: int | None = None
            if "@" in clause:
                clause, _, tail = clause.rpartition("@")
                try:
                    cap = max(0, int(tail))
                except ValueError:
                    continue
            parts = clause.split(":")
            if len(parts) not in (2, 3) or not parts[0]:
                continue
            try:
                rate = float(parts[1])
                arg = float(parts[2]) if len(parts) == 3 else None
            except ValueError:
                continue
            self.sites[parts[0]] = (min(max(rate, 0.0), 1.0), arg, cap)

    def _draw(self, site: str, n: int) -> float:
        blob = f"{self.seed}:{site}:{n}".encode()
        return int(hashlib.sha256(blob).hexdigest()[:8], 16) / 2 ** 32

    def fire(self, site: str) -> float | None:
        """One draw at *site*: the clause ``arg`` (or 0.0) when the draw
        fires, None when it does not (or the site is unarmed)."""
        armed = self.sites.get(site)
        if armed is None:
            return None
        rate, arg, cap = armed
        with self._lock:
            n = self._draws.get(site, 0)
            self._draws[site] = n + 1
            if cap is not None and self._fired.get(site, 0) >= cap:
                return None
            if self._draw(site, n) >= rate:
                return None
            self._fired[site] = self._fired.get(site, 0) + 1
        return arg if arg is not None else 0.0


_injector: FaultInjector | None = None
_injector_key: tuple[str, str] | None = None
_injector_lock = threading.Lock()


def injector() -> FaultInjector | None:
    """The process-wide injector for the current ``FVEVAL_FAULTS`` /
    ``FVEVAL_FAULTS_SEED`` environment (None when injection is off).

    Re-resolved whenever the environment changes, so tests that
    monkeypatch the spec get a fresh, zero-counted injector.
    """
    global _injector, _injector_key
    spec = os.environ.get("FVEVAL_FAULTS", "")
    seed = os.environ.get("FVEVAL_FAULTS_SEED", "0")
    key = (spec, seed)
    if key != _injector_key:
        with _injector_lock:
            if key != _injector_key:
                try:
                    seed_val = int(seed)
                except ValueError:
                    seed_val = 0
                _injector = FaultInjector(spec, seed_val) if spec else None
                _injector_key = key
    return _injector


def inject(site: str) -> float | None:
    """Draw the *site* injection point; None when it does not fire."""
    inj = injector()
    return None if inj is None else inj.fire(site)
