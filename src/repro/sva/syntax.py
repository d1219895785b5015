"""Assertion syntax / elaboration checking.

This module plays the role of the commercial formal tool's front end in the
paper's evaluation flow: a model response passes the *syntax* metric iff

1. it lexes and parses under the supported SVA grammar
   (:mod:`repro.sva.parser`),
2. every system function used is legal in a concurrent assertion, with the
   right arity,
3. when a testbench context is provided, every referenced signal resolves to
   a declared signal or port (an unresolved name is an elaboration error,
   which Jasper reports just like a syntax error), and
4. the assertion has a clocking event (the benchmark's assertions are all
   explicitly clocked; an unclocked concurrent assertion without a default
   clocking block fails elaboration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memo import LruMemo
from .ast_nodes import Identifier, Number, SystemCall, signals_of
from .lexer import strip_code_fences
from .parser import ParseError, parse_assertion

#: System functions legal inside concurrent assertions, with (min, max) arity.
ASSERTION_SYSFUNCS: dict[str, tuple[int, int]] = {
    "$countones": (1, 1),
    "$onehot": (1, 1),
    "$onehot0": (1, 1),
    "$isunknown": (1, 1),
    "$rose": (1, 2),
    "$fell": (1, 2),
    "$stable": (1, 2),
    "$changed": (1, 2),
    "$past": (1, 4),
    "$sampled": (1, 1),
    "$bits": (1, 1),
    "$clog2": (1, 1),
    "$signed": (1, 1),
    "$unsigned": (1, 1),
    "$size": (1, 2),
    "$countbits": (2, 10),
}

#: Functions that parse but are illegal in a formal/assertion context
#: (simulation-only tasks); Jasper rejects these during elaboration.
SIMULATION_ONLY_SYSFUNCS = frozenset({
    "$random", "$urandom", "$urandom_range", "$display", "$error", "$fatal",
    "$warning", "$info", "$time", "$realtime", "$finish", "$stop",
})


@dataclass
class SyntaxReport:
    """Outcome of checking one assertion string."""

    ok: bool
    errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


#: gate outcomes by (text, widths, params, extra signals, clock rule):
#: ``(ok, errors)`` only, no AST; an entry is about 1 KB, mostly the
#: key's frozen widths.  4096 covers one model's 1895 NL2SVA responses
#: (79 Human + 300 Machine problems, five samples each) with margin.
_GATES = LruMemo("sva.syntax", 4096)


def _frozen(mapping) -> tuple | None:
    return None if mapping is None else tuple(sorted(mapping.items()))


def check_assertion_syntax(
    text: str,
    signal_widths: dict[str, int] | None = None,
    params: dict[str, int] | None = None,
    extra_signals: set[str] | None = None,
    require_clock: bool = True,
) -> SyntaxReport:
    """Check a (possibly fenced) assertion response for syntactic validity.

    Memoised on the text and every context argument; each call returns
    a fresh report.

    Parameters
    ----------
    text:
        Raw model response; markdown fences are stripped first.
    signal_widths:
        Declared signals of the testbench context (name -> bit width).  When
        provided, unresolved identifiers are elaboration errors.
    params:
        Compile-time constants for resolving parameterized delay bounds.
    extra_signals:
        Additional names to treat as declared (e.g. support signals a model
        defined alongside its assertion in Design2SVA).
    require_clock:
        If True, an assertion with no ``@(...)`` clocking event fails.
    """
    key = (text, _frozen(signal_widths), _frozen(params),
           None if extra_signals is None else frozenset(extra_signals),
           require_clock)
    ok, errors = _GATES.get(key, lambda: _check(
        text, signal_widths, params, extra_signals, require_clock))
    return SyntaxReport(ok=ok, errors=list(errors))


def _check(text, signal_widths, params, extra_signals,
           require_clock) -> tuple[bool, tuple[str, ...]]:
    errors: list[str] = []
    cleaned = strip_code_fences(text)
    if not cleaned.strip():
        return False, ("empty response",)
    try:
        assertion = parse_assertion(cleaned, params=params)
    except ParseError as exc:
        return False, (str(exc),)

    if require_clock and assertion.clocking is None:
        errors.append("concurrent assertion has no clocking event")

    for node in assertion.prop.walk():
        if isinstance(node, SystemCall):
            errors.extend(_check_syscall(node))
    if assertion.disable is not None:
        for node in assertion.disable.walk():
            if isinstance(node, SystemCall):
                errors.extend(_check_syscall(node))

    if signal_widths is not None:
        known = set(signal_widths) | (extra_signals or set())
        known |= set(params or {})
        refs = signals_of(assertion.prop)
        if assertion.disable is not None:
            refs |= signals_of(assertion.disable)
        if assertion.clocking is not None:
            refs |= signals_of(assertion.clocking.signal)
        for name in sorted(refs):
            base = name.split(".")[0]
            if base not in known and not base.startswith("`"):
                errors.append(f"unresolved signal {name!r}")

    return not errors, tuple(errors)


def _check_syscall(call: SystemCall) -> list[str]:
    name = call.name
    if name in SIMULATION_ONLY_SYSFUNCS:
        return [f"{name} is not allowed in a concurrent assertion"]
    if name not in ASSERTION_SYSFUNCS:
        return [f"unknown system function {name}"]
    lo, hi = ASSERTION_SYSFUNCS[name]
    n = len(call.args)
    if not lo <= n <= hi:
        return [f"{name} expects {lo}..{hi} arguments, got {n}"]
    if name == "$past" and len(call.args) >= 2:
        ticks = call.args[1]
        if not (isinstance(ticks, Number) and ticks.value is not None):
            return ["$past tick count must be a constant"]
    return []
