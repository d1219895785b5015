"""Semantic canonicalization of SVA assertions for verdict memoization.

Two model samples frequently differ only in formatting, label, operand
order or operator spelling while being *provably identical* properties.
:func:`canonical_key` maps an assertion to a string key such that equal
keys imply semantic equivalence under this repo's 2-state evaluation
(docs/architecture.md decision 4); the cross-sample verdict cache
(:mod:`repro.core.cache`) then lets duplicate samples within a pass@k
problem share one formal verdict.

Normalizations applied -- every one is sound for the engine's semantics,
nothing lossy is attempted (a missed dedup only costs a re-proof):

* labels dropped; clocking edge defaulted to ``posedge``;
* parameters substituted with their values (the evaluator does the same);
* number spelling collapsed to ``(value, width)``; ``===``/``!==`` to
  ``==``/``!=`` and ``~^`` to ``^~`` (aliases in 2-state evaluation);
* ``$signed``/``$unsigned``/``$sampled`` unwrapped (identity in the
  unsigned 2-state subset); unary ``+`` dropped;
* commutative operators (``&& || & | ^ ^~ + * == !=``, property/sequence
  ``and``/``or``, sequence ``intersect``) sort their operands;
* ``>``/``>=`` rewritten as flipped ``<``/``<=``.

Width caveat: operand sorting and comparison flipping never change the
common width both sides zero-extend to, and the boolean operators produce
1-bit results either way, so context widths are preserved exactly.
"""

from __future__ import annotations

from dataclasses import replace

from .ast_nodes import (
    Assertion,
    Binary,
    ClockingEvent,
    Delay,
    Expr,
    FirstMatch,
    Identifier,
    IfElseProp,
    Implication,
    Nexttime,
    Number,
    PropBinary,
    PropNode,
    PropNot,
    PropSeq,
    Repetition,
    SeqBinary,
    SeqExpr,
    SeqNode,
    SEventually,
    StrongWeak,
    SystemCall,
    Ternary,
    Unary,
    Until,
)
from ..memo import LruMemo
from .parser import ParseError, parse_assertion
from .unparse import unparse

#: commutative boolean/arithmetic operators whose operands may be sorted
_COMMUTATIVE = {"&&", "||", "&", "|", "^", "^~", "+", "*", "==", "!="}
#: operator spellings that alias another operator in 2-state evaluation
_OP_ALIAS = {"===": "==", "!==": "!=", "~^": "^~"}
#: commutative sequence/property connectives
_COMMUTATIVE_SEQ = {"and", "or", "intersect"}
_COMMUTATIVE_PROP = {"and", "or", "iff"}


class CanonicalizationError(ValueError):
    """Raised when the input does not parse into an assertion."""


def _expr(e: Expr, params: dict[str, int]) -> Expr:
    if isinstance(e, Identifier):
        if e.name in params:
            return Number(value=params[e.name])
        return e
    if isinstance(e, Number):
        if e.is_fill:
            return Number(value=None, is_fill=True, fill_bit=e.fill_bit)
        return Number(value=e.value, width=e.width)
    if isinstance(e, Unary):
        if e.op == "+":
            return _expr(e.operand, params)
        return Unary(e.op, _expr(e.operand, params))
    if isinstance(e, Binary):
        op = _OP_ALIAS.get(e.op, e.op)
        left = _expr(e.left, params)
        right = _expr(e.right, params)
        if op in (">", ">="):
            op = "<" if op == ">" else "<="
            left, right = right, left
        if op in _COMMUTATIVE:
            left, right = sorted((left, right), key=unparse)
        return Binary(op, left, right)
    if isinstance(e, Ternary):
        return Ternary(_expr(e.cond, params), _expr(e.if_true, params),
                       _expr(e.if_false, params))
    if isinstance(e, SystemCall):
        if e.name in ("$signed", "$unsigned", "$sampled") and len(e.args) == 1:
            return _expr(e.args[0], params)
        return SystemCall(e.name,
                          tuple(_expr(a, params) for a in e.args))
    # Concat / Replication / Index / RangeSelect: rebuild children generically
    fields = {f: getattr(e, f) for f in e.__dataclass_fields__}
    for name, value in fields.items():
        if isinstance(value, Expr):
            fields[name] = _expr(value, params)
        elif isinstance(value, tuple):
            fields[name] = tuple(
                _expr(v, params) if isinstance(v, Expr) else v for v in value)
    return type(e)(**fields)


def _seq(s: SeqNode, params: dict[str, int]) -> SeqNode:
    if isinstance(s, SeqExpr):
        return SeqExpr(_expr(s.expr, params))
    if isinstance(s, Delay):
        return Delay(s.lo, s.hi, _seq(s.rhs, params),
                     _seq(s.lhs, params) if s.lhs is not None else None)
    if isinstance(s, Repetition):
        return Repetition(_seq(s.seq, params), s.kind, s.lo, s.hi)
    if isinstance(s, SeqBinary):
        left = _seq(s.left, params)
        right = _seq(s.right, params)
        if s.op in _COMMUTATIVE_SEQ:
            left, right = sorted((left, right), key=unparse)
        return SeqBinary(s.op, left, right)
    if isinstance(s, FirstMatch):
        return FirstMatch(_seq(s.seq, params))
    return s


def _prop(p: PropNode, params: dict[str, int]) -> PropNode:
    if isinstance(p, PropSeq):
        return PropSeq(_seq(p.seq, params))
    if isinstance(p, Implication):
        return Implication(_seq(p.antecedent, params),
                           _prop(p.consequent, params), p.overlapping)
    if isinstance(p, PropNot):
        return PropNot(_prop(p.operand, params))
    if isinstance(p, PropBinary):
        left = _prop(p.left, params)
        right = _prop(p.right, params)
        if p.op in _COMMUTATIVE_PROP:
            left, right = sorted((left, right), key=unparse)
        return PropBinary(p.op, left, right)
    if isinstance(p, StrongWeak):
        return StrongWeak(_seq(p.seq, params), p.strong)
    if isinstance(p, SEventually):
        return SEventually(_prop(p.operand, params))
    if isinstance(p, Until):
        return Until(_prop(p.left, params), _prop(p.right, params),
                     p.strong, p.with_overlap)
    if isinstance(p, Nexttime):
        return Nexttime(_prop(p.operand, params), p.offset, p.strong)
    if isinstance(p, IfElseProp):
        return IfElseProp(
            _expr(p.cond, params), _prop(p.if_true, params),
            _prop(p.if_false, params) if p.if_false is not None else None)
    return p


def canonicalize(assertion: Assertion,
                 params: dict[str, int] | None = None) -> Assertion:
    """Return the canonical form of an assertion AST."""
    env = dict(params or {})
    clocking = assertion.clocking
    if clocking is not None:
        clocking = ClockingEvent(clocking.edge or "posedge",
                                 _expr(clocking.signal, env))
    disable = (_expr(assertion.disable, env)
               if assertion.disable is not None else None)
    return replace(assertion, prop=_prop(assertion.prop, env),
                   clocking=clocking, disable=disable, label=None)


#: keys of assertion *texts* by (text, parameter bindings); an entry is
#: about 0.5 KB, mostly the key string.  4096 covers one model's 1895
#: NL2SVA responses (79 Human + 300 Machine problems, five samples each)
#: with margin.
_TEXT_KEYS = LruMemo("sva.canonical", 4096)


def canonical_key(assertion: Assertion | str,
                  params: dict[str, int] | None = None) -> str:
    """Canonical string key of an assertion (text or AST).

    Equal keys imply semantically identical properties; unequal keys carry
    no information.  Raises :class:`CanonicalizationError` if the text
    does not parse (callers skip memoization for such samples).  Keys of
    texts are memoised; an AST is canonicalised on every call.
    """
    if isinstance(assertion, str):
        return _TEXT_KEYS.get(
            (assertion, tuple(sorted(params.items())) if params else ()),
            lambda: _text_key(assertion, params))
    return unparse(canonicalize(assertion, params))


def _text_key(text: str, params: dict[str, int] | None) -> str:
    try:
        assertion = parse_assertion(text, params=params)
    except ParseError as exc:
        raise CanonicalizationError(str(exc)) from exc
    return unparse(canonicalize(assertion, params))
