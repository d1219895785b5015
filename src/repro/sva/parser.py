"""Parser for SystemVerilog expressions, sequences and properties.

Implements the subset of IEEE 1800-2017 clause 16 (plus clause 11 expressions)
exercised by the FVEval benchmark: concurrent assertions with clocking events,
``disable iff``, sequence delays/repetition, the ``strong``/``weak``/
``s_eventually``/``until`` property operator family, and the full ordinary
expression grammar (including reduction operators, concatenation, replication
and system functions).

The property and sequence layers (LRM Table 16-3) are recursive descent, with
backtracking where ``(`` may open an expression or a sequence.  The binary
operators of LRM Table 11-2 are one binding-power loop,
:meth:`Parser._parse_binary`, reading :data:`_BINARY_BP`.  Anything outside
the subset raises :class:`ParseError`; the evaluation flow reports that as a
syntax failure, which is the role JasperGold's front end plays in the paper.
"""

from __future__ import annotations

import re

from .ast_nodes import (
    AlwaysProp,
    Assertion,
    Binary,
    ClockingEvent,
    Concat,
    Delay,
    Expr,
    FirstMatch,
    Identifier,
    IfElseProp,
    Implication,
    Index,
    Nexttime,
    Number,
    PropBinary,
    PropNode,
    PropNot,
    PropSeq,
    RangeSelect,
    Repetition,
    Replication,
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
from .lexer import LexError, TokKind, Token, tokenize


class ParseError(ValueError):
    """Raised on any deviation from the supported grammar."""

    def __init__(self, message: str, token: Token | None = None):
        if token is not None:
            message = f"{message} at {token!r}"
        super().__init__(message)
        self.token = token


_NUMBER_RE = re.compile(
    r"^(?:(\d+)\s*)?'\s*([sS])?([bBoOdDhH])\s*([0-9a-fA-FxXzZ_?]+)$"
)
_FILL_RE = re.compile(r"^'([01xXzZ])$")

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}

#: Property-layer keywords that the grammar does NOT accept bare (common LLM
#: hallucinations).  ``eventually`` and ``s_always`` require a constant range
#: in the LRM and are rejected bare by JasperGold, exactly as in the paper's
#: Figure 7.
HALLUCINATED_PROPERTY_OPS = frozenset({"eventually", "s_always"})

#: LRM Table 11-2, loosest first (the conditional operator is below all
#: of these, in :meth:`Parser.parse_expression`)
_PRECEDENCE = (("||",), ("&&",), ("|",), ("^", "^~", "~^"), ("&",),
               ("==", "!=", "===", "!=="), ("<", "<=", ">", ">="),
               ("<<", ">>", "<<<", ">>>"), ("+", "-"), ("*", "/", "%"),
               ("**",))

#: binary operator -> (binding power, least power its right operand may
#: bind): one more than its own, or the same for right-associative ``**``
_BINARY_BP = {op: (bp, bp if op == "**" else bp + 1)
              for bp, ops in enumerate(_PRECEDENCE, start=1) for op in ops}

#: where a delay or repetition bound enters the loop (``DEPTH-1``, ``2*N``)
_SHIFT_BP = _BINARY_BP["<<"][0]

_UNARY_OPS = frozenset(("!", "~", "&", "|", "^", "~&", "~|", "~^", "^~",
                        "+", "-"))

#: token kinds the hot paths test (an Enum member lookup is ten times
#: slower than a module global)
_EOF, _OP, _IDENT, _NUMBER, _SYSFUNC, _DIRECTIVE = (
    TokKind.EOF, TokKind.OP, TokKind.IDENT, TokKind.NUMBER,
    TokKind.SYSFUNC, TokKind.DIRECTIVE)


def parse_number(text: str, token: Token | None = None) -> Number:
    """Parse a Verilog numeric literal into a :class:`Number` node."""
    m = _FILL_RE.match(text)
    if m:
        bit = m.group(1).lower()
        if bit in "xz":
            return Number(value=None, width=None, base="b", is_fill=True,
                          fill_bit=None, text=text)
        return Number(value=None, width=None, base="b", is_fill=True,
                      fill_bit=int(bit), text=text)
    m = _NUMBER_RE.match(text)
    if m:
        size, _signed, base, digits = m.groups()
        base = base.lower()
        digits = digits.replace("_", "")
        width = int(size) if size else None
        if any(c in "xXzZ?" for c in digits):
            return Number(value=None, width=width, base=base, text=text)
        value = int(digits, _BASE_RADIX[base])
        if width is not None:
            value &= (1 << width) - 1
        return Number(value=value, width=width, base=base, text=text)
    clean = text.replace("_", "")
    if "." in clean:
        raise ParseError(f"real literal {text!r} not allowed here", token)
    return Number(value=int(clean), width=None, base="d", text=text)


class Parser:
    """Token-stream parser with backtracking support.

    Parameters
    ----------
    text:
        Source text of a property / expression / assertion.
    params:
        Optional compile-time constant environment used to resolve delay and
        repetition bounds (e.g. ``##DEPTH`` inside a parameterized testbench).
    """

    def __init__(self, text: str, params: dict[str, int] | None = None):
        try:
            self.toks = tokenize(text)
        except LexError as exc:
            raise ParseError(str(exc)) from exc
        self.pos = 0
        self.params = dict(params or {})

    # -- token helpers ------------------------------------------------------
    # ``next()`` never moves past the EOF sentinel, so ``toks[pos]`` always
    # exists; EOF's text is empty, so a token matched by text is not EOF.

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.toks[min(self.pos + offset, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not _EOF:
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text:
            raise ParseError(f"expected {text!r}", t)
        self.pos += 1
        return t

    def at_end(self) -> bool:
        return self.peek().kind is TokKind.EOF

    # -- entry points -------------------------------------------------------

    def parse_assertion(self) -> Assertion:
        """Parse ``[label:] assert|assume|cover property ( ... );``."""
        label = None
        if (
            self.peek().kind is TokKind.IDENT
            and self.peek(1).text == ":"
        ):
            label = self.next().text
            self.next()
        kind_tok = self.peek()
        if kind_tok.text not in ("assert", "assume", "cover"):
            raise ParseError("expected assert/assume/cover", kind_tok)
        kind = self.next().text
        self.expect("property")
        self.expect("(")
        clocking = self._parse_optional_clocking()
        disable = self._parse_optional_disable()
        # A clocking event may also follow disable iff in some styles.
        if clocking is None:
            clocking = self._parse_optional_clocking()
        prop = self.parse_property()
        self.expect(")")
        self.accept(";")
        if not self.at_end():
            raise ParseError("trailing input after assertion", self.peek())
        return Assertion(prop=prop, clocking=clocking, disable=disable,
                         label=label, kind=kind)

    def _parse_optional_clocking(self) -> ClockingEvent | None:
        if not self.at("@"):
            return None
        self.next()
        self.expect("(")
        edge = ""
        if self.peek().text in ("posedge", "negedge"):
            edge = self.next().text
        signal = self.parse_expression()
        self.expect(")")
        return ClockingEvent(edge=edge, signal=signal)

    def _parse_optional_disable(self) -> Expr | None:
        if not self.at("disable"):
            return None
        self.next()
        self.expect("iff")
        self.expect("(")
        expr = self.parse_expression()
        self.expect(")")
        return expr

    # -- property layer (LRM Table 16-3, low precedence first) --------------

    def parse_property(self) -> PropNode:
        t = self.peek()
        if t.text in HALLUCINATED_PROPERTY_OPS:
            raise ParseError(
                f"{t.text!r} requires a constant range and is not a valid "
                "bare property operator", t)
        if t.text == "s_eventually":
            self.next()
            return SEventually(self.parse_property())
        if t.text == "always":
            self.next()
            return AlwaysProp(self.parse_property())
        if t.text in ("nexttime", "s_nexttime"):
            strong = t.text.startswith("s_")
            self.next()
            offset = 1
            if self.accept("["):
                offset = self._parse_const_int()
                self.expect("]")
            return Nexttime(self.parse_property(), offset=offset, strong=strong)
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            if_true = self.parse_property()
            if_false = None
            if self.accept("else"):
                if_false = self.parse_property()
            return IfElseProp(cond=cond, if_true=if_true, if_false=if_false)
        return self._parse_prop_implication()

    def _parse_prop_implication(self) -> PropNode:
        left = self._parse_prop_until()
        t = self.peek()
        if t.text in ("|->", "|=>"):
            self.next()
            antecedent = self._as_sequence(left, t)
            consequent = self.parse_property()  # right-associative, low prec
            return Implication(antecedent=antecedent, consequent=consequent,
                               overlapping=(t.text == "|->"))
        return left

    def _as_sequence(self, prop: PropNode, tok: Token) -> SeqNode:
        if isinstance(prop, PropSeq):
            return prop.seq
        raise ParseError("implication antecedent must be a sequence", tok)

    def _parse_prop_until(self) -> PropNode:
        left = self._parse_prop_or()
        t = self.peek()
        if t.text in ("until", "s_until", "until_with", "s_until_with"):
            self.next()
            right = self._parse_prop_until()  # right-associative
            return Until(left=left, right=right,
                         strong=t.text.startswith("s_"),
                         with_overlap=t.text.endswith("_with"))
        if t.text == "implies":
            self.next()
            right = self._parse_prop_until()
            return PropBinary(op="implies", left=left, right=right)
        return left

    def _parse_prop_or(self) -> PropNode:
        left = self._parse_prop_and()
        while self.at("or"):
            self.next()
            right = self._parse_prop_and()
            left = self._combine_andor("or", left, right)
        return left

    def _parse_prop_and(self) -> PropNode:
        left = self._parse_prop_unary()
        while self.at("and"):
            self.next()
            right = self._parse_prop_unary()
            left = self._combine_andor("and", left, right)
        return left

    def _combine_andor(self, op: str, left: PropNode, right: PropNode) -> PropNode:
        # When both operands are plain sequences, keep the sequence form so
        # that sequence-level semantics apply (identical for boolean operands).
        if isinstance(left, PropSeq) and isinstance(right, PropSeq):
            return PropSeq(SeqBinary(op=op, left=left.seq, right=right.seq))
        return PropBinary(op=op, left=left, right=right)

    def _parse_prop_unary(self) -> PropNode:
        t = self.peek()
        if t.text == "not":
            self.next()
            return PropNot(self._parse_prop_unary())
        if t.text in ("strong", "weak"):
            self.next()
            self.expect("(")
            seq = self.parse_sequence()
            self.expect(")")
            return StrongWeak(seq=seq, strong=(t.text == "strong"))
        # Try a sequence first; fall back to a parenthesized property.
        saved = self.pos
        try:
            seq = self.parse_sequence()
            return PropSeq(seq)
        except ParseError:
            self.pos = saved
        if self.accept("("):
            prop = self.parse_property()
            self.expect(")")
            return prop
        raise ParseError("expected property expression", self.peek())

    # -- sequence layer ------------------------------------------------------

    def parse_sequence(self) -> SeqNode:
        return self._parse_seq_intersect()

    def _parse_seq_intersect(self) -> SeqNode:
        left = self._parse_seq_within()
        while self.at("intersect"):
            self.next()
            right = self._parse_seq_within()
            left = SeqBinary(op="intersect", left=left, right=right)
        return left

    def _parse_seq_within(self) -> SeqNode:
        left = self._parse_seq_throughout()
        while self.at("within"):
            self.next()
            right = self._parse_seq_throughout()
            left = SeqBinary(op="within", left=left, right=right)
        return left

    def _parse_seq_throughout(self) -> SeqNode:
        left = self._parse_seq_delay()
        if self.at("throughout"):
            self.next()
            if not isinstance(left, SeqExpr):
                raise ParseError("throughout requires an expression on the "
                                 "left", self.peek())
            right = self._parse_seq_throughout()
            return SeqBinary(op="throughout", left=left, right=right)
        return left

    def _parse_seq_delay(self) -> SeqNode:
        if self.at("##"):
            lo, hi = self._parse_delay_bounds()
            rhs = self._parse_seq_delay()
            return Delay(lo=lo, hi=hi, rhs=rhs, lhs=None)
        left = self._parse_seq_repetition()
        while self.at("##"):
            lo, hi = self._parse_delay_bounds()
            right = self._parse_seq_repetition()
            left = Delay(lo=lo, hi=hi, rhs=right, lhs=left)
        return left

    def _parse_delay_bounds(self) -> tuple[int, int | None]:
        self.expect("##")
        if self.accept("["):
            lo = self._parse_const_int()
            self.expect(":")
            if self.accept("$"):
                hi: int | None = None
            else:
                hi = self._parse_const_int()
            self.expect("]")
            if hi is not None and hi < lo:
                raise ParseError("empty delay range", self.peek())
            return lo, hi
        lo = self._parse_const_int()
        return lo, lo

    def _parse_const_int(self) -> int:
        """A compile-time constant: number, parameter name, or simple arith."""
        expr = self._parse_binary(_SHIFT_BP)  # permits DEPTH-1, 2*N, etc.
        value = self._const_eval(expr)
        if value is None:
            raise ParseError("expected a compile-time constant", self.peek())
        if value < 0:
            raise ParseError("negative bound", self.peek())
        return value

    def _const_eval(self, expr: Expr) -> int | None:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Identifier):
            return self.params.get(expr.name)
        if isinstance(expr, Unary) and expr.op == "-":
            v = self._const_eval(expr.operand)
            return None if v is None else -v
        if isinstance(expr, Binary):
            lv = self._const_eval(expr.left)
            rv = self._const_eval(expr.right)
            if lv is None or rv is None:
                return None
            ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                   "*": lambda a, b: a * b,
                   "/": lambda a, b: a // b if b else None,
                   "%": lambda a, b: a % b if b else None}
            fn = ops.get(expr.op)
            return None if fn is None else fn(lv, rv)
        return None

    def _parse_seq_repetition(self) -> SeqNode:
        seq = self._parse_seq_primary()
        t = self.peek()
        if t.text in ("[*", "[=", "[->"):
            self.next()
            kind = {"[*": "*", "[=": "=", "[->": "->"}[t.text]
            if kind == "*" and self.accept("]"):
                return Repetition(seq=seq, kind="*", lo=0, hi=None)  # [*]
            lo = self._parse_const_int()
            hi: int | None = lo
            if self.accept(":"):
                if self.accept("$"):
                    hi = None
                else:
                    hi = self._parse_const_int()
            self.expect("]")
            if hi is not None and hi < lo:
                raise ParseError("empty repetition range", t)
            return Repetition(seq=seq, kind=kind, lo=lo, hi=hi)
        return seq

    def _parse_seq_primary(self) -> SeqNode:
        t = self.peek()
        if t.text == "first_match":
            self.next()
            self.expect("(")
            seq = self.parse_sequence()
            self.expect(")")
            return FirstMatch(seq)
        if t.text == "(":
            # Could be a parenthesized expression (handled by the expression
            # grammar) or a parenthesized sequence.  Try expression first.
            saved = self.pos
            try:
                return SeqExpr(self.parse_expression())
            except ParseError:
                self.pos = saved
            self.expect("(")
            seq = self.parse_sequence()
            self.expect(")")
            return self._maybe_seq_method(seq)
        return SeqExpr(self.parse_expression())

    def _maybe_seq_method(self, seq: SeqNode) -> SeqNode:
        # .triggered / .matched postfixes are out of subset; flag clearly.
        if self.at("."):
            raise ParseError("sequence methods are not supported", self.peek())
        return seq

    # -- expression layer (LRM Table 11-2) -----------------------------------

    def parse_expression(self) -> Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):  # lowest, right-associative
            if_true = self.parse_expression()
            self.expect(":")
            if_false = self.parse_expression()
            return Ternary(cond=cond, if_true=if_true, if_false=if_false)
        return cond

    def _parse_binary(self, min_bp: int) -> Expr:
        """Precedence climbing: a unary operand, then every binary operator
        that binds at least *min_bp*, each taking as right operand what
        binds at least its right power (:data:`_BINARY_BP`)."""
        left = self._parse_unary()
        toks = self.toks
        while True:
            t = toks[self.pos]
            bp = _BINARY_BP.get(t.text)
            if bp is None or bp[0] < min_bp or t.kind is not _OP:
                return left
            self.pos += 1
            left = Binary(op=t.text, left=left,
                          right=self._parse_binary(bp[1]))

    def _parse_unary(self) -> Expr:
        t = self.toks[self.pos]
        if t.kind is _OP and t.text in _UNARY_OPS:
            self.pos += 1
            return Unary(op=t.text, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        t = self.toks[self.pos]
        kind = t.kind
        if kind is _NUMBER:
            self.pos += 1
            return parse_number(t.text, t)
        if kind is _SYSFUNC:
            return self._parse_syscall()
        if kind is _DIRECTIVE:
            # `WIDTH style macro use; resolved against params if known.
            self.pos += 1
            name = t.text[1:]
            if name in self.params:
                return Number(value=self.params[name], text=t.text)
            return Identifier(name=t.text)
        if t.text == "(":
            self.pos += 1
            inner = self.parse_expression()
            self.expect(")")
            return self._parse_select_postfix(inner)
        if t.text == "{":
            return self._parse_concat()
        if kind is _IDENT:
            self.pos += 1
            return self._parse_select_postfix(Identifier(name=t.text))
        if kind is TokKind.KEYWORD:
            raise ParseError(f"keyword {t.text!r} not valid in expression", t)
        raise ParseError("expected expression", t)

    def _parse_syscall(self) -> Expr:
        t = self.next()
        args: list[Expr] = []
        if self.accept("("):
            if not self.at(")"):
                args.append(self.parse_expression())
                while self.accept(","):
                    args.append(self.parse_expression())
            self.expect(")")
        return SystemCall(name=t.text, args=tuple(args))

    def _parse_concat(self) -> Expr:
        self.expect("{")
        first = self.parse_expression()
        if self.at("{"):  # replication {N{expr}}
            self.next()
            value = self.parse_expression()
            parts = [value]
            while self.accept(","):
                parts.append(self.parse_expression())
            self.expect("}")
            self.expect("}")
            inner: Expr = parts[0] if len(parts) == 1 else Concat(tuple(parts))
            return Replication(count=first, value=inner)
        parts = [first]
        while self.accept(","):
            parts.append(self.parse_expression())
        self.expect("}")
        return self._parse_select_postfix(Concat(tuple(parts)))

    def _parse_select_postfix(self, base: Expr) -> Expr:
        toks = self.toks
        while True:
            text = toks[self.pos].text
            if text == "[":
                # distinguish bit select, range select, from repetition [*
                self.pos += 1
                msb = self.parse_expression()
                if self.accept(":"):
                    lsb = self.parse_expression()
                    self.expect("]")
                    base = RangeSelect(base=base, msb=msb, lsb=lsb)
                else:
                    self.expect("]")
                    base = Index(base=base, index=msb)
            elif text == "." and isinstance(base, Identifier):
                # hierarchical name a.b -- folded into a dotted identifier
                self.pos += 1
                field_tok = toks[self.pos]
                if field_tok.kind is not _IDENT:
                    raise ParseError("expected field name", field_tok)
                self.pos += 1
                base = Identifier(name=f"{base.name}.{field_tok.text}")
            else:
                return base


# --------------------------------------------------------------------------
# Convenience wrappers
# --------------------------------------------------------------------------


#: parsed assertions by (text, parameter bindings); an entry is about
#: 2 KB of immutable AST, and one problem's samples are parsed by the
#: syntax gate, ``canonical_key`` and the checker within one batch
_ASSERTIONS = LruMemo("sva.parser", 256)


def parse_assertion(text: str, params: dict[str, int] | None = None) -> Assertion:
    """Parse a complete concurrent assertion statement (memoised; the
    AST is immutable, so callers share it)."""
    key = (text, tuple(sorted(params.items())) if params else ())
    return _ASSERTIONS.get(
        key, lambda: Parser(text, params).parse_assertion())


def parse_property(text: str, params: dict[str, int] | None = None) -> PropNode:
    """Parse a bare property expression (no assert wrapper)."""
    p = Parser(text, params)
    prop = p.parse_property()
    if not p.at_end():
        raise ParseError("trailing input after property", p.peek())
    return prop


def parse_expression(text: str, params: dict[str, int] | None = None) -> Expr:
    """Parse a bare SystemVerilog expression."""
    p = Parser(text, params)
    expr = p.parse_expression()
    if not p.at_end():
        raise ParseError("trailing input after expression", p.peek())
    return expr
