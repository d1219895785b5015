"""One counter fold: accumulate, diff and merge observability counters.

Counters are plain dicts of numbers, optionally nested one dict per
section (the verdict cache's per-tier counters, the run stats'
``prover`` / ``service`` / ``cache`` sections).  They live in a process
and travel between processes -- a pool worker reports what one unit or
one problem *added* (:func:`diff` against a snapshot taken before it)
and the receiver folds the delta in (:func:`merge`).  Every such route
uses these functions, so a counter adds up the same way whichever
executor or pool produced it.

One rule is not plain addition: a key in :data:`PEAKS` is a high-water
mark.  A peak cannot be subtracted, so :func:`diff` passes it through
as an absolute value and :func:`merge` keeps the larger one.
"""

from __future__ import annotations

import os
import threading

#: keys that are high-water marks, not additive counters
PEAKS = frozenset({"learned_db"})

#: guards read-modify-write counter updates: a profile dict is shared
#: across the provers of one service and across the threads that flush
#: it concurrently (the HTTP frontend's executor threads), where a bare
#: ``d[k] = d.get(k) + v`` would lose increments between the read and
#: the write.  One process-wide lock is cheap (updates happen per stage
#: / per solve call / per unit, never per conflict).
_LOCK = threading.Lock()


def _reset_lock() -> None:
    # a forked child inherits the lock in whatever state the parent's
    # other threads left it; the child is single-threaded at this point
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


def _number(value) -> bool:
    return isinstance(value, (int, float))


def bump(counters: dict, key: str, value) -> None:
    """Atomically accumulate ``value`` into ``counters[key]``."""
    with _LOCK:
        counters[key] = counters.get(key, 0) + value


def bump_max(counters: dict, key: str, value) -> None:
    """Atomically raise the high-water mark ``counters[key]``."""
    with _LOCK:
        counters[key] = max(counters.get(key, 0), value)


def diff(current: dict, base: dict) -> dict:
    """What *current* gained since the snapshot *base*.

    Nested sections diff recursively (a section missing from *base*
    counts from zero), peaks pass through absolute, and non-numeric
    values are dropped.
    """
    out: dict = {}
    for key, value in current.items():
        if isinstance(value, dict):
            section = base.get(key)
            out[key] = diff(value, section if isinstance(section, dict)
                            else {})
        elif not _number(value):
            continue
        elif key in PEAKS:
            out[key] = value
        else:
            previous = base.get(key, 0)
            out[key] = value - (previous if _number(previous) else 0)
    return out


def _fold(into: dict, delta: dict) -> dict:
    for key, value in delta.items():
        if isinstance(value, dict):
            section = into.setdefault(key, {})
            if isinstance(section, dict):
                _fold(section, value)
        elif not _number(value):
            continue
        elif key in PEAKS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


def merge(into: dict, delta: dict) -> dict:
    """Fold *delta* into *into* in place (and return it): sum counters,
    max the peaks, recurse into sections, drop non-numeric values.

    Atomic against :func:`bump` on the same dict, so a worker's delta
    can land in a profile the service's own threads are updating.
    """
    with _LOCK:
        return _fold(into, delta)
