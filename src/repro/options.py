"""Runtime options: every ``FVEVAL_*`` knob, parsed in one place, once.

:class:`Options` is a frozen snapshot of the environment taken when a
:class:`~repro.service.VerificationService`, an
:class:`~repro.service.admission.AdmissionController` or a
:func:`~repro.core.runner.run_model_on_task` call is constructed or
starts; changing the environment afterwards changes nothing for that
object.  Each explicit constructor keyword overrides its field
(:meth:`Options.from_env`).  The fault-injection variables
(``FVEVAL_FAULTS`` / ``FVEVAL_FAULTS_SEED``) are the one exception: the
chaos suites re-arm that injector at runtime, so
:mod:`repro.core.faults` reads them itself.

Lenient on the environment, strict on code: an unparsable or
non-positive environment value means the default (an ``FVEVAL_EXECUTOR``
typo falls back to ``thread`` and is reported as one ``config`` fault
event, docs/robustness.md), while a bad explicit keyword raises
``ValueError`` at construction.  The table of fields, variables,
keywords and CLI flags is docs/engine.md, "Options".
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Mapping
from dataclasses import dataclass

#: execution strategies: inline in the calling thread, or worker processes
EXECUTORS = ("thread", "process")

#: hard ceiling on worker processes (a typo'd FVEVAL_WORKERS must not
#: fork hundreds of interpreters)
MAX_PROC_WORKERS = 16

_UNITS = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}


@dataclass(frozen=True)
class Options:
    """The parsed configuration; field -> variable:

    ``jobs`` ``FVEVAL_JOBS`` (problem fan-out of the runner),
    ``executor`` ``FVEVAL_EXECUTOR``, ``workers`` ``FVEVAL_WORKERS``,
    ``deadline_s`` ``FVEVAL_DEADLINE_S``, ``share_equiv``
    ``FVEVAL_NO_EQUIV_SHARE``,
    ``caching`` ``FVEVAL_NO_CACHE``, ``cache_dir`` ``FVEVAL_CACHE``,
    ``cache_tiers`` ``FVEVAL_CACHE_TIERS`` (else ``FVEVAL_CACHE``),
    ``max_cache_entries`` / ``max_cache_bytes``
    ``FVEVAL_CACHE_MEM_MAX``, ``max_queue`` ``FVEVAL_MAX_QUEUE``,
    ``max_inflight`` ``FVEVAL_MAX_INFLIGHT``.
    """

    jobs: int = 1
    executor: str = "thread"
    workers: int = 1
    deadline_s: float | None = None
    share_equiv: bool = True
    caching: bool = True
    cache_dir: str | None = None
    cache_tiers: str = "memory"
    max_cache_entries: int | None = None
    max_cache_bytes: int | None = None
    max_queue: int | None = None
    max_inflight: int | None = None
    #: the ``FVEVAL_EXECUTOR`` typo this snapshot fell back from (None
    #: when the variable was unset, valid, or overridden explicitly)
    executor_error: str | None = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None,
                 **explicit) -> "Options":
        """Parse *environ* (default ``os.environ``), then apply every
        *explicit* keyword that is not None over its field."""
        if environ is None:
            environ = os.environ

        def raw(name: str) -> str:
            return environ.get(f"FVEVAL_{name}", "").strip()

        executor, executor_error = raw("EXECUTOR").lower() or "thread", None
        if executor not in EXECUTORS:
            executor_error = (f"FVEVAL_EXECUTOR={raw('EXECUTOR')!r} is not "
                              f"one of {EXECUTORS}; fell back to 'thread'")
            executor = "thread"
        cache_dir = raw("CACHE") or None
        tiers = raw("CACHE_TIERS") or (
            "memory,disk" if cache_dir else "memory")
        entries, max_bytes = _mem_cap(raw("CACHE_MEM_MAX"))
        options = cls(
            jobs=_count(raw("JOBS")),
            executor=executor,
            workers=resolve_workers(_count(raw("WORKERS"))),
            deadline_s=_positive(raw("DEADLINE_S"), float),
            share_equiv=raw("NO_EQUIV_SHARE") != "1",
            caching=raw("NO_CACHE") != "1",
            cache_dir=cache_dir,
            cache_tiers=_bind_disk(tiers, cache_dir),
            max_cache_entries=entries, max_cache_bytes=max_bytes,
            max_queue=_positive(raw("MAX_QUEUE"), int),
            max_inflight=_positive(raw("MAX_INFLIGHT"), int),
            executor_error=executor_error)
        changes = {name: value for name, value in explicit.items()
                   if value is not None}
        if "executor" in changes:
            changes["executor"] = resolve_executor(changes["executor"])
            changes["executor_error"] = None  # the env is never consulted
        if "workers" in changes:
            changes["workers"] = resolve_workers(int(changes["workers"]))
        if "deadline_s" in changes and not changes["deadline_s"] > 0:
            raise ValueError(f"deadline_s must be positive, got "
                             f"{changes['deadline_s']!r} (omit it for "
                             f"no deadline)")
        if "cache_tiers" in changes:
            changes["cache_tiers"] = _bind_disk(changes["cache_tiers"],
                                                options.cache_dir)
        return dataclasses.replace(options, **changes)


def resolve_executor(value: str) -> str:
    """An explicit executor name, normalised; a bad one raises."""
    name = str(value).strip().lower()
    if name not in EXECUTORS:
        raise ValueError(f"unknown executor {name!r}; "
                         f"expected one of {EXECUTORS}")
    return name


def resolve_workers(count: int) -> int:
    """A process-pool size: ``0`` means all cores, and the result is
    clamped to ``[1, MAX_PROC_WORKERS]``."""
    if count == 0:
        count = os.cpu_count() or 1
    return max(1, min(count, MAX_PROC_WORKERS))


def _count(raw: str) -> int:
    """A worker count: ``0`` / ``auto`` = all cores; unset, unparsable
    or negative = 1."""
    if raw.lower() in ("0", "auto"):
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _positive(raw: str, kind):
    """*raw* as a positive *kind*; unset, unparsable or not positive
    means None."""
    try:
        value = kind(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _mem_cap(raw: str) -> tuple[int | None, int | None]:
    """``FVEVAL_CACHE_MEM_MAX`` as ``(max_entries, max_bytes)``: a plain
    integer caps entries, a ``K``/``M``/``G`` suffix caps approximate
    JSON bytes, a comma joins both (``"50000,64M"``).  Non-positive or
    unparsable terms cap nothing."""
    entries = max_bytes = None
    for term in raw.upper().split(","):
        term = term.strip()
        scale = _UNITS.get(term[-1:])
        value = _positive(term[:-1] if scale else term, int)
        if value is None:
            continue
        if scale:
            max_bytes = value * scale
        else:
            entries = value
    return entries, max_bytes


def _bind_disk(spec: str, cache_dir: str | None) -> str:
    """*spec* with every bare ``disk`` term bound to *cache_dir*; without
    one the term stays bare and the cache reports it as a ``config``
    fault (docs/cache.md)."""
    if not cache_dir:
        return spec
    return ",".join(f"disk={cache_dir}" if term.strip().lower() == "disk"
                    else term for term in spec.split(","))
