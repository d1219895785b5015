"""Bounded process-wide memos for the text-pure parts of scoring.

The benchmark scores many responses against the same DUT, testbench or
reference, and re-scoring a run (a second model, a re-rendered table, a
client resubmitting) repeats every response text.  So the pure
functions of text each keep one :class:`LruMemo`: the front end
(``parse_assertion``, ``parse_rtl``, ``elaborate_base``, the Design2SVA
problem base and response snippets) and the per-response results built
on it (the syntax gate's outcome, ``canonical_key`` of a text, BLEU and
a reference's n-gram tables).  The rule is the same for all of them:

* the function is pure, so a hit returns what a recomputation would;
* results are *shared* between callers and therefore read-only (the
  syntax gate stores only ``(ok, errors)`` and hands each caller a
  fresh report);
* only successes are stored -- a failing input is recomputed and raises
  a fresh exception every time;
* eviction is plain least-recently-used at a fixed entry count, so
  which lookups hit depends on the access sequence alone -- and a
  replay of more distinct texts than the capacity evicts every entry
  before its reuse, costing exactly the unmemoised path.

:func:`stats` is the observability surface
(``VerificationService.stats()["frontend"]``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

#: every memo of the process, by name
_MEMOS: dict[str, "LruMemo"] = {}


def _reset_locks() -> None:
    # a forked child inherits each lock in whatever state the parent's
    # other threads left it (one may be mid-lookup); the child is
    # single-threaded at this point, so fresh locks are safe
    for memo in _MEMOS.values():
        memo._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks)


class LruMemo:
    """At most *capacity* results keyed by hashable keys.

    A lock guards the table and the counters; the computation itself
    runs outside it, so two threads missing on one key both compute and
    the later store wins -- harmless for a pure function.
    """

    def __init__(self, name: str, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0
        _MEMOS[name] = self

    def get(self, key, compute):
        """The memoised value of *key*, calling ``compute()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
        value = compute()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def keys(self) -> list:
        """Least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._entries)}


def stats() -> dict[str, dict[str, int]]:
    """Counters of every memo in the process, by memo name."""
    return {name: memo.stats() for name, memo in sorted(_MEMOS.items())}


def clear() -> None:
    """Drop every memoised result (counters keep counting)."""
    for memo in _MEMOS.values():
        memo.clear()
