"""A concrete SVA evaluator: one parsed assertion on one finite trace.

Written for the soundness oracle, so it shares no code with the engines
it judges: nothing here comes from ``repro.formal``
(``tests/test_formal_oracle.py`` checks the imports).  Boolean leaves
are compiled by :func:`repro.rtl.compile.compile_expr` (straight-line
Python over one frame of signal values); every time-shifted read and
the whole temporal layer are this module's own.

The semantics are IEEE 1800-2017's finite-trace (neutral) view:

* a trace is a list of frames, ``frames[t]`` the signal values of cycle
  ``t``; reads before cycle 0 see 0 on every signal (the unrolling
  starts in the post-reset state and has no earlier history);
* a sequence started at ``t`` yields the cycles its matches end on
  within the trace, plus whether some match could still end beyond it;
* a *weak* sequence or property holds if it matched or could still
  match; a *strong* one needs a match inside the trace;
* ``disable iff (c)`` satisfies an attempt started at ``t`` when ``c``
  holds on some cycle of its window, ``t .. t + ahead`` (to the trace
  end for an unbounded property): a condition that first holds after
  the attempt has failed does not save it.

Constructs outside this set raise :class:`Unsupported`; the oracle
counts such an assertion as skipped and never guesses its meaning.
"""

from __future__ import annotations

from repro.rtl.compile import Uncompilable, compile_expr
from repro.sva.ast_nodes import (
    AlwaysProp,
    Assertion,
    Binary,
    Delay,
    Expr,
    FirstMatch,
    Identifier,
    IfElseProp,
    Implication,
    Nexttime,
    Number,
    PropBinary,
    PropNot,
    PropSeq,
    Repetition,
    SeqBinary,
    SeqExpr,
    SEventually,
    StrongWeak,
    SystemCall,
    Unary,
    Until,
)

#: the system functions that read an earlier cycle
SHIFTED = ("$past", "$rose", "$fell", "$stable", "$changed")

_WIDE = 1 << 12  # an output width no expression reaches


class Unsupported(Exception):
    """The assertion uses a construct outside the evaluator's set."""


class Evaluator:
    """One assertion, compiled once, evaluated on any number of traces.

    ``signals`` names the design signals the assertion reads;
    ``ahead`` is how many cycles past its start an attempt can look
    (None: unbounded) and ``back`` how many before it, so an attempt at
    ``t`` is decided by cycles ``t - back .. t + ahead``.
    """

    def __init__(self, assertion: Assertion, widths: dict[str, int],
                 params: dict[str, int] | None = None):
        self.assertion = assertion
        self.params = dict(params or {})
        self.widths = dict(widths)
        self.signals: set[str] = set()
        #: synthetic signal -> (function, ticks, compiled operand, width),
        #: inner before outer; a frame carries their values too
        self._shifted: dict[str, tuple] = {}
        self._fns: dict[int, tuple] = {}  # id(expr) -> (expr, compiled)
        self._compile_tree(assertion.prop)
        if assertion.disable is not None:
            self._leaf(assertion.disable)
        self.ahead = _reach(assertion.prop)
        self.back = max(0, _back(assertion.prop, 0, self._depth))
        if assertion.disable is not None:
            self.back = max(self.back, self._depth(assertion.disable))
        self._zero = self._zero_frame()

    # -- compilation ---------------------------------------------------------

    def _compile_tree(self, node) -> None:
        if isinstance(node, SeqExpr):
            self._leaf(node.expr)
        elif isinstance(node, IfElseProp):
            self._leaf(node.cond)
        elif isinstance(node, Repetition):
            if node.kind == "*" and node.lo < 1:
                raise Unsupported("empty repetition")
            if node.kind != "*" and not isinstance(node.seq, SeqExpr):
                raise Unsupported(f"[{node.kind}] of a sequence")
        elif isinstance(node, SeqBinary):
            if node.op == "throughout" and not isinstance(node.left,
                                                          SeqExpr):
                raise Unsupported("throughout of a sequence")
            if node.op not in ("and", "or", "intersect", "within",
                               "throughout"):
                raise Unsupported(f"sequence op {node.op}")
        elif isinstance(node, PropBinary):
            if node.op not in ("and", "or", "iff", "implies"):
                raise Unsupported(f"property op {node.op}")
        elif not isinstance(node, (Delay, FirstMatch, PropSeq, StrongWeak,
                                   Implication, PropNot, Nexttime,
                                   SEventually, AlwaysProp, Until)):
            raise Unsupported(type(node).__name__)
        for child in node.children():
            if not isinstance(child, Expr):
                self._compile_tree(child)

    def _leaf(self, expr: Expr):
        """Compiled ``(fn, width)`` of a boolean or word leaf."""
        hit = self._fns.get(id(expr))
        if hit is None:
            flat = self._flatten(expr)
            width = self._width(flat)
            try:
                fn = compile_expr(flat, self.widths, self.params, width)
            except Uncompilable as exc:
                raise Unsupported(str(exc)) from None
            hit = self._fns[id(expr)] = (expr, fn, width)
        return hit[1], hit[2]

    def _flatten(self, expr: Expr) -> Expr:
        """*expr* with every time-shifted call replaced by a synthetic
        signal (``$0``, ``$1``, ...) whose per-frame value this module
        computes; the signals read are collected on the way."""
        if isinstance(expr, Identifier):
            if expr.name not in self.params:
                if expr.name not in self.widths:
                    raise Unsupported(f"unknown signal {expr.name!r}")
                self.signals.add(expr.name)
            return expr
        if isinstance(expr, SystemCall) and expr.name in SHIFTED:
            ticks = 1
            if expr.name == "$past":
                if not 1 <= len(expr.args) <= 2:
                    raise Unsupported("$past with a gating clock")
                if len(expr.args) == 2:
                    count = expr.args[1]
                    if not isinstance(count, Number) or count.value is None:
                        raise Unsupported("$past with a computed count")
                    ticks = count.value or 1
            elif len(expr.args) != 1:
                raise Unsupported(f"{expr.name} arity")
            inner = self._flatten(expr.args[0])
            inner_w = self._width(inner)
            try:
                fn = compile_expr(inner, self.widths, self.params, inner_w)
            except Uncompilable as exc:
                raise Unsupported(str(exc)) from None
            name = f"${len(self._shifted)}"
            width = inner_w if expr.name == "$past" else 1
            self._shifted[name] = (expr.name, ticks, fn, width)
            self.widths[name] = width
            return Identifier(name)
        fields = {}
        for key in getattr(expr, "__dataclass_fields__", {}):
            value = getattr(expr, key)
            if isinstance(value, Expr):
                fields[key] = self._flatten(value)
            elif isinstance(value, tuple):
                fields[key] = tuple(self._flatten(v) if isinstance(v, Expr)
                                    else v for v in value)
        return type(expr)(**{**expr.__dict__, **fields})

    def _width(self, flat: Expr) -> int:
        """Self-determined width of a flattened expression: ``e ^ ~e`` is
        all ones at that width, whatever the operand values."""
        ones = Binary("^", flat, Unary("~", flat))
        try:
            fn = compile_expr(ones, self.widths, self.params, _WIDE)
        except Uncompilable as exc:
            raise Unsupported(str(exc)) from None
        return max(1, fn(_Zeros()).bit_length())

    def _depth(self, expr) -> int:
        """How many cycles before its read cycle *expr* looks."""
        if isinstance(expr, SystemCall) and expr.name in SHIFTED:
            ticks = 1
            if expr.name == "$past" and len(expr.args) == 2:
                ticks = getattr(expr.args[1], "value", None) or 1
            return ticks + self._depth(expr.args[0])
        return max((self._depth(c) for c in expr.children()
                    if isinstance(c, Expr)), default=0)

    def _zero_frame(self) -> dict[str, int]:
        """The frame every cycle before 0 reads: each signal 0, so each
        synthetic value is computed against an identical earlier frame."""
        frame = dict.fromkeys(self.signals, 0)
        for name, (func, _ticks, fn, width) in self._shifted.items():
            value = fn(frame)
            frame[name] = _shift(func, value, value, width)
        return frame

    # -- evaluation ------------------------------------------------------------

    def run(self, frames: list[dict[str, int]]) -> "Run":
        """The evaluation context of one finite trace."""
        return Run(self, frames)

    def violated(self, frames: list[dict[str, int]], t: int) -> bool:
        return self.run(frames).violated(t)


class _Zeros(dict):
    """A frame reading 0 for every signal (width probing only)."""

    def __missing__(self, key):
        return 0


def _shift(func: str, now: int, before: int, width: int) -> int:
    if func == "$past":
        return before
    if func == "$rose":
        return int(bool(now & 1) and not before & 1)
    if func == "$fell":
        return int(bool(before & 1) and not now & 1)
    if func == "$stable":
        return int(now == before)
    return int(now != before)  # $changed


class Run:
    """One trace under one :class:`Evaluator`."""

    def __init__(self, evaluator: Evaluator, frames: list[dict[str, int]]):
        self.ev = evaluator
        self.frames = frames
        self.n = len(frames)
        self._full: dict[int, dict[str, int]] = {}

    def frame(self, t: int) -> dict[str, int]:
        """Frame *t* with its synthetic (time-shifted) values filled in."""
        if t < 0:
            return self.ev._zero
        full = self._full.get(t)
        if full is None:
            full = dict(self.frames[t])
            for name, (func, ticks, fn, width) in self.ev._shifted.items():
                # an inner synthetic is filled in before any outer one
                before = fn(self.frame(t - ticks))
                now = fn(full) if func != "$past" else before
                full[name] = _shift(func, now, before, width)
            self._full[t] = full
        return full

    def value(self, expr: Expr, t: int) -> int:
        fn, _width = self.ev._leaf(expr)
        return fn(self.frame(t))

    def bool(self, expr: Expr, t: int) -> bool:
        return self.value(expr, t) != 0

    # -- assertions --------------------------------------------------------------

    def disabled(self, t: int) -> bool:
        disable = self.ev.assertion.disable
        if disable is None:
            return False
        ahead = self.ev.ahead
        end = self.n if ahead is None else min(self.n, t + ahead + 1)
        return any(self.bool(disable, c) for c in range(t, end))

    def violated(self, t: int) -> bool:
        """The attempt started at cycle *t* fails on this trace."""
        return not self.disabled(t) and not self.holds(
            self.ev.assertion.prop, t)

    def fires(self, t: int) -> bool:
        """The implication's antecedent, started at *t*, matches within
        the trace (False for a property that is no implication)."""
        prop = self.ev.assertion.prop
        return (isinstance(prop, Implication)
                and bool(self.ends(prop.antecedent, t)[0]))

    # -- properties ------------------------------------------------------------

    def holds(self, p, t: int) -> bool:
        if t >= self.n:
            return _off_end(p)
        if isinstance(p, PropSeq):
            ends, beyond = self.ends(p.seq, t)
            return bool(ends) or beyond
        if isinstance(p, StrongWeak):
            ends, beyond = self.ends(p.seq, t)
            return bool(ends) or (beyond and not p.strong)
        if isinstance(p, Implication):
            offset = 0 if p.overlapping else 1
            ends, _beyond = self.ends(p.antecedent, t)
            return all(self.holds(p.consequent, e + offset)
                       for e in sorted(ends))
        if isinstance(p, PropNot):
            return not self.holds(p.operand, t)
        if isinstance(p, PropBinary):
            return _combine(p.op, self.holds(p.left, t),
                            self.holds(p.right, t))
        if isinstance(p, SEventually):
            return any(self.holds(p.operand, j) for j in range(t, self.n))
        if isinstance(p, AlwaysProp):
            return all(self.holds(p.operand, j) for j in range(t, self.n))
        if isinstance(p, Until):
            for j in range(t, self.n):
                left = self.holds(p.left, j)
                if self.holds(p.right, j) and (left or not p.with_overlap):
                    return True
                if not left:
                    return False
            return not p.strong  # the left side held to the trace end
        if isinstance(p, Nexttime):
            if t + p.offset >= self.n:
                return not p.strong
            return self.holds(p.operand, t + p.offset)
        if isinstance(p, IfElseProp):
            if self.bool(p.cond, t):
                return self.holds(p.if_true, t)
            return p.if_false is None or self.holds(p.if_false, t)
        raise Unsupported(type(p).__name__)

    # -- sequences ---------------------------------------------------------------

    def ends(self, s, t: int) -> tuple[set[int], bool]:
        """``(end cycles of the matches of s started at t, whether a
        match could still end beyond the trace)``."""
        if t >= self.n:
            return set(), True
        if isinstance(s, SeqExpr):
            return ({t} if self.bool(s.expr, t) else set()), False
        if isinstance(s, Delay):
            if s.lhs is None:
                starts, beyond = {t}, False
            else:
                starts, beyond = self.ends(s.lhs, t)
            ends: set[int] = set()
            for e in starts:
                d = s.lo
                while s.hi is None or d <= s.hi:
                    if e + d >= self.n:
                        beyond = True
                        break
                    more, more_beyond = self.ends(s.rhs, e + d)
                    ends |= more
                    beyond = beyond or more_beyond
                    d += 1
            return ends, beyond
        if isinstance(s, Repetition):
            if s.kind == "*":
                return self._consecutive(s, t)
            return self._counted(s, t)
        if isinstance(s, SeqBinary):
            return self._binary(s, t)
        if isinstance(s, FirstMatch):
            ends, beyond = self.ends(s.seq, t)
            if ends:
                return {min(ends)}, False
            return set(), beyond
        raise Unsupported(type(s).__name__)

    def _consecutive(self, s: Repetition, t: int):
        """``seq[*lo:hi]``: copies back to back, each starting the cycle
        after the previous one ended."""
        ends: set[int] = set()
        beyond = False
        chain = {t - 1}  # end cycles of the chains of `count` copies
        count = 0
        while chain and (s.hi is None or count < s.hi):
            count += 1
            grown: set[int] = set()
            for e in chain:
                if e + 1 >= self.n:
                    beyond = True  # the next copy starts past the end
                    continue
                more, more_beyond = self.ends(s.seq, e + 1)
                grown |= more
                beyond = beyond or more_beyond
            chain = grown
            if count >= s.lo:
                ends |= chain
        return ends, beyond

    def _counted(self, s: Repetition, t: int):
        """``b[->lo:hi]`` (ends on the n-th occurrence of b) and
        ``b[=lo:hi]`` (ends anywhere after it, before the next)."""
        lo = max(s.lo, 1)
        ends: set[int] = set()
        count = 0
        for e in range(t, self.n):
            bit = self.bool(s.seq.expr, e)
            count += bit
            in_range = lo <= count and (s.hi is None or count <= s.hi)
            if in_range and (bit or s.kind == "="):
                ends.add(e)
        if s.hi is None:
            return ends, True
        return ends, count < s.hi if s.kind == "->" else count <= s.hi

    def _binary(self, s: SeqBinary, t: int):
        if s.op == "throughout":
            ends, beyond = self.ends(s.right, t)
            guard = s.left.expr
            held = [e for e in sorted(ends)
                    if all(self.bool(guard, c) for c in range(t, e + 1))]
            return set(held), beyond and all(
                self.bool(guard, c) for c in range(t, self.n))
        l_ends, l_beyond = self.ends(s.left, t)
        r_ends, r_beyond = self.ends(s.right, t)
        if s.op == "or":
            return l_ends | r_ends, l_beyond or r_beyond
        if s.op == "intersect":
            return l_ends & r_ends, l_beyond and r_beyond
        if s.op == "and":
            return ({max(a, b) for a in l_ends for b in r_ends},
                    (l_beyond and r_beyond) or (bool(l_ends) and r_beyond)
                    or (bool(r_ends) and l_beyond))
        # within: a match of the left inside a match of the right
        inside = set()
        for e2 in r_ends:
            if any(e1 <= e2 for t1 in range(t, e2 + 1)
                   for e1 in self.ends(s.left, t1)[0]):
                inside.add(e2)
        return inside, r_beyond


def _combine(op: str, a: bool, b: bool) -> bool:
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "iff":
        return a == b
    return (not a) or b  # implies


def _off_end(p) -> bool:
    """A property started past the trace end: weak holds, strong fails."""
    if isinstance(p, (StrongWeak, Until, Nexttime)):
        return not p.strong
    if isinstance(p, SEventually):
        return False
    if isinstance(p, PropNot):
        return not _off_end(p.operand)
    if isinstance(p, PropBinary):
        return _combine(p.op, _off_end(p.left), _off_end(p.right))
    return True


# -- windows -------------------------------------------------------------------


def _span(s) -> int | None:
    """The longest a match of *s* lasts, minus one (None: unbounded)."""
    if isinstance(s, SeqExpr):
        return 0
    if isinstance(s, Delay):
        parts = [0 if s.lhs is None else _span(s.lhs), s.hi, _span(s.rhs)]
        return None if None in parts else sum(parts)
    if isinstance(s, Repetition):
        inner = _span(s.seq)
        if s.kind != "*" or s.hi is None or inner is None:
            return None
        return s.hi * (inner + 1) - 1
    if isinstance(s, SeqBinary):
        parts = [_span(s.left), _span(s.right)]
        return None if None in parts else max(parts)
    return _span(s.seq)  # first_match


def _shortest(s) -> int:
    """The shortest a match of *s* lasts, minus one (``-1``: empty)."""
    if isinstance(s, SeqExpr):
        return 0
    if isinstance(s, Delay):
        return ((0 if s.lhs is None else _shortest(s.lhs)) + s.lo
                + _shortest(s.rhs))
    if isinstance(s, Repetition):
        if s.kind == "*":
            return s.lo * (_shortest(s.seq) + 1) - 1
        return max(s.lo, 1) - 1
    if isinstance(s, SeqBinary):
        if s.op == "or":
            return min(_shortest(s.left), _shortest(s.right))
        if s.op in ("within", "throughout"):
            return _shortest(s.right)
        return max(_shortest(s.left), _shortest(s.right))
    return _shortest(s.seq)


def _reach(p) -> int | None:
    """How many cycles past its start a property attempt reads."""
    if isinstance(p, (PropSeq, StrongWeak)):
        return _span(p.seq)
    if isinstance(p, Implication):
        parts = [_span(p.antecedent), _reach(p.consequent)]
        if None in parts:
            return None
        return sum(parts) + (0 if p.overlapping else 1)
    if isinstance(p, (PropNot, PropBinary, IfElseProp)):
        parts = [_reach(c) for c in p.children() if not isinstance(c, Expr)]
        return None if None in parts else max(parts, default=0)
    if isinstance(p, Nexttime):
        inner = _reach(p.operand)
        return None if inner is None else p.offset + inner
    return None  # s_eventually, always, until: the rest of the trace


def _back(node, start: int, depth) -> int:
    """How many cycles before the attempt's start *node*, begun no
    earlier than *start* cycles after it, reads."""
    if isinstance(node, SeqExpr):
        return depth(node.expr) - start
    if isinstance(node, IfElseProp):
        own = depth(node.cond) - start
        return max([own] + [_back(c, start, depth) for c in node.children()
                            if not isinstance(c, Expr)])
    if isinstance(node, Implication):
        later = start + _shortest(node.antecedent) + (
            0 if node.overlapping else 1)
        return max(_back(node.antecedent, start, depth),
                   _back(node.consequent, later, depth))
    if isinstance(node, Delay):
        first = 0 if node.lhs is None else _shortest(node.lhs)
        parts = [_back(node.rhs, start + first + node.lo, depth)]
        if node.lhs is not None:
            parts.append(_back(node.lhs, start, depth))
        return max(parts)
    if isinstance(node, Nexttime):
        return _back(node.operand, start + node.offset, depth)
    if isinstance(node, SeqBinary) and node.op == "throughout":
        return max(depth(node.left.expr) - start,
                   _back(node.right, start, depth))
    return max((_back(c, start, depth) for c in node.children()
                if not isinstance(c, Expr)), default=-start)
