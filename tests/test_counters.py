"""The one counter fold (:mod:`repro.counters`): diff, merge, the peak
rule, and fork safety of the locks that guard process-wide counters."""

import copy
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import counters, memo
from repro.counters import PEAKS, bump, bump_max, diff, merge

#: leaf and section names are disjoint, as in every real stats dict
LEAVES = ["hits", "misses", "puts", "conflicts", "sat_s", "learned_db"]
SECTIONS = ["cache", "tiers", "prover", "disk"]


# -- table cases ---------------------------------------------------------------

@pytest.mark.parametrize("current,base,expected", [
    ({"hits": 5, "misses": 2}, {"hits": 3}, {"hits": 2, "misses": 2}),
    ({"hits": 3}, {"hits": 3}, {"hits": 0}),  # an unchanged key stays
    ({"sat_s": 1.5}, {"sat_s": 0.5}, {"sat_s": 1.0}),
    # peaks pass through absolute, even below the baseline's
    ({"learned_db": 7, "conflicts": 9}, {"learned_db": 9, "conflicts": 4},
     {"learned_db": 7, "conflicts": 5}),
    # sections recurse; one missing from the baseline counts from zero
    ({"cache": {"tiers": {"disk": {"hits": 5}}}},
     {"cache": {"tiers": {"disk": {"hits": 2}}}},
     {"cache": {"tiers": {"disk": {"hits": 3}}}}),
    ({"service": {"requests": 4}}, {}, {"service": {"requests": 4}}),
    ({"service": {"requests": 4}}, {"service": 1},
     {"service": {"requests": 4}}),
    # non-numeric values are dropped; a non-numeric baseline counts as 0
    ({"hits": 2, "label": "x", "latency": None}, {"hits": "?"},
     {"hits": 2}),
], ids=["additive", "unchanged", "float", "peak", "nested",
        "missing-section", "mistyped-section", "non-numeric"])
def test_diff(current, base, expected):
    assert diff(current, base) == expected


@pytest.mark.parametrize("into,delta,expected", [
    ({"hits": 1}, {"hits": 2, "puts": 3}, {"hits": 3, "puts": 3}),
    ({"learned_db": 9}, {"learned_db": 7}, {"learned_db": 9}),
    ({"learned_db": 7}, {"learned_db": 9}, {"learned_db": 9}),
    ({"cache": {"tiers": {"disk": {"hits": 1}}}},
     {"cache": {"tiers": {"disk": {"hits": 2}, "memory": {"hits": 4}}}},
     {"cache": {"tiers": {"disk": {"hits": 3}, "memory": {"hits": 4}}}}),
    ({}, {"label": "x", "hits": 1, "latency": None}, {"hits": 1}),
    # a section never overwrites a leaf of the same name
    ({"cache": 3}, {"cache": {"hits": 1}}, {"cache": 3}),
], ids=["additive", "peak-kept", "peak-raised", "nested", "non-numeric",
        "shape-clash"])
def test_merge(into, delta, expected):
    assert merge(into, delta) is into
    assert into == expected


def test_bump_and_bump_max():
    profile: dict = {}
    bump(profile, "conflicts", 3)
    bump(profile, "conflicts", 4)
    bump_max(profile, "learned_db", 5)
    bump_max(profile, "learned_db", 2)
    assert profile == {"conflicts": 7, "learned_db": 5}
    assert PEAKS == {"learned_db"}


def test_concurrent_bumps_and_merges_lose_nothing():
    profile: dict = {}

    def work():
        for _ in range(2000):
            bump(profile, "conflicts", 1)
            merge(profile, {"conflicts": 1, "cache": {"hits": 1}})

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert profile == {"conflicts": 16000, "cache": {"hits": 8000}}


# -- properties ----------------------------------------------------------------

def _counters(values):
    """Nested counter dicts: leaves from LEAVES, sections from SECTIONS."""
    flat = st.dictionaries(st.sampled_from(LEAVES), values, max_size=4)
    return st.recursive(
        flat,
        lambda children: st.builds(
            lambda leaves, sections: {**leaves, **sections}, flat,
            st.dictionaries(st.sampled_from(SECTIONS), children,
                            max_size=2)),
        max_leaves=12)


def _earlier(data, current: dict) -> dict:
    """A snapshot *current* may have grown from: some keys not yet
    there, every counter (and peak) at most its current value."""
    base: dict = {}
    for key, value in current.items():
        if not data.draw(st.booleans()):
            continue
        if isinstance(value, dict):
            base[key] = _earlier(data, value)
        else:
            base[key] = data.draw(st.integers(0, value))
    return base


@settings(max_examples=200, deadline=None)
@given(current=_counters(st.integers(0, 10**6)), data=st.data())
def test_merge_of_diff_reproduces_current(current, data):
    base = _earlier(data, current)
    assert merge(copy.deepcopy(base), diff(current, base)) == current


@settings(max_examples=200, deadline=None)
@given(current=_counters(st.integers(0, 10**6)),
       base=_counters(st.integers(0, 10**6)))
def test_peaks_pass_through_diff(current, base):
    """Whatever the baseline, a peak in *current* diffs to itself."""
    def peaks(stats):
        return {key: (peaks(value) if isinstance(value, dict) else value)
                for key, value in stats.items()
                if isinstance(value, dict) or key in PEAKS}
    delta = peaks(diff(current, base))
    assert delta == peaks(current)


@settings(max_examples=200, deadline=None)
@given(deltas=st.lists(_counters(st.integers(-10**6, 10**6)), max_size=5),
       data=st.data())
def test_merge_order_does_not_matter(deltas, data):
    """Per-worker deltas fold to one total whatever order they land in."""
    def fold(order):
        total: dict = {}
        for delta in order:
            merge(total, delta)
        return total
    shuffled = data.draw(st.permutations(deltas))
    assert fold(shuffled) == fold(deltas)


# -- fork safety ---------------------------------------------------------------

def _memo_lock():
    from repro.rtl import parser  # noqa: F401  (registers rtl.parser)
    return memo._MEMOS["rtl.parser"]._lock


def _child_touches_memo():
    memo._MEMOS["rtl.parser"].get(("fork-check",), lambda: None)


def _child_touches_counters():
    bump({}, "conflicts", 1)


@pytest.mark.parametrize("lock,touch", [
    (_memo_lock, _child_touches_memo),
    (lambda: counters._LOCK, _child_touches_counters),
], ids=["memo", "counters"])
def test_forked_child_gets_fresh_locks(lock, touch):
    """A lock another thread holds at ``fork()`` (an HTTP executor
    thread planning while a crashed worker respawns) must not stay held
    forever in the child."""
    held, release = threading.Event(), threading.Event()

    def hold(guard):
        with guard:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold, args=(lock(),))
    holder.start()
    held.wait()
    try:
        pid = os.fork()
        if pid == 0:  # child: must not block on the inherited lock
            code = 1
            try:
                touch()
                code = 0
            finally:
                os._exit(code)
    finally:
        release.set()
        holder.join()
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung on a lock held at fork time")
