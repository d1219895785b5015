"""AST node definitions for SystemVerilog expressions, SVA sequences and properties.

Three layers, mirroring IEEE 1800-2017 clause 16:

* **expression layer** -- ordinary SystemVerilog expressions (also reused by
  the RTL front end in :mod:`repro.rtl`),
* **sequence layer** -- sequence operators (``##``, repetition, ``throughout``,
  ``within``, ``intersect``, ``first_match``),
* **property layer** -- property operators (implication, ``not/and/or``,
  ``disable iff``, strong/weak, ``s_eventually``, ``until`` family, ...).

All nodes are immutable dataclasses; tree rewriting (e.g. by the perturbation
library in :mod:`repro.models.perturb`) builds new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class Node:
    """Base class for all AST nodes."""

    def children(self) -> tuple["Node", ...]:
        out = []
        for f in getattr(self, "__dataclass_fields__", {}):
            v = getattr(self, f)
            if isinstance(v, Node):
                out.append(v)
            elif isinstance(v, tuple):
                out.extend(x for x in v if isinstance(x, Node))
        return tuple(out)

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for c in self.children():
            yield from c.walk()


# --------------------------------------------------------------------------
# Expression layer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Identifier(Expr):
    name: str


@dataclass(frozen=True)
class Number(Expr):
    """Integer literal.

    ``width`` is None for unsized literals; ``value`` is None for fill
    literals such as ``'0``/``'1`` whose width comes from context.
    """

    value: int | None
    width: int | None = None
    base: str = "d"
    is_fill: bool = False  # '0, '1 style
    fill_bit: int | None = None
    text: str = ""  # original spelling, for unparse fidelity


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # ! ~ & | ^ ~& ~| ~^ + -
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # && || & | ^ ^~ == != === !== < <= > >= << >> <<< >>> + - * / % **
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class SystemCall(Expr):
    name: str  # includes the leading $
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Replication(Expr):
    count: Expr
    value: Expr


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class RangeSelect(Expr):
    base: Expr
    msb: Expr
    lsb: Expr


# --------------------------------------------------------------------------
# Sequence layer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqNode(Node):
    pass


@dataclass(frozen=True)
class SeqExpr(SeqNode):
    """A boolean expression used as an atomic sequence."""

    expr: Expr


@dataclass(frozen=True)
class Delay(SeqNode):
    """``lhs ##[lo:hi] rhs``.

    ``lhs`` may be None for a leading delay (``##2 a``).  ``hi`` is None for
    unbounded (``$``).
    """

    lo: int
    hi: int | None
    rhs: SeqNode
    lhs: SeqNode | None = None


@dataclass(frozen=True)
class Repetition(SeqNode):
    """``seq [*lo:hi]`` consecutive repetition (``kind='*'``),
    ``[=lo:hi]`` non-consecutive (``kind='='``), ``[->lo:hi]`` goto
    (``kind='->'``).  ``hi`` None means ``$``."""

    seq: SeqNode
    kind: str
    lo: int
    hi: int | None


@dataclass(frozen=True)
class SeqBinary(SeqNode):
    op: str  # 'and' 'or' 'intersect' 'within' 'throughout'
    left: SeqNode
    right: SeqNode


@dataclass(frozen=True)
class FirstMatch(SeqNode):
    seq: SeqNode


# --------------------------------------------------------------------------
# Property layer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PropNode(Node):
    pass


@dataclass(frozen=True)
class PropSeq(PropNode):
    """A sequence used directly as a property (weak in assert context)."""

    seq: SeqNode


@dataclass(frozen=True)
class Implication(PropNode):
    antecedent: SeqNode
    consequent: PropNode
    overlapping: bool  # True: |->   False: |=>


@dataclass(frozen=True)
class PropNot(PropNode):
    operand: PropNode


@dataclass(frozen=True)
class PropBinary(PropNode):
    op: str  # 'and' 'or' 'iff' 'implies'
    left: PropNode
    right: PropNode


@dataclass(frozen=True)
class StrongWeak(PropNode):
    """``strong(seq)`` / ``weak(seq)``."""

    seq: SeqNode
    strong: bool


@dataclass(frozen=True)
class SEventually(PropNode):
    """``s_eventually p`` (strong eventuality)."""

    operand: PropNode


@dataclass(frozen=True)
class Until(PropNode):
    """``p until q`` family.  ``strong``: s_until / s_until_with."""

    left: PropNode
    right: PropNode
    strong: bool
    with_overlap: bool  # until_with / s_until_with


@dataclass(frozen=True)
class Nexttime(PropNode):
    operand: PropNode
    offset: int = 1
    strong: bool = False


@dataclass(frozen=True)
class AlwaysProp(PropNode):
    operand: PropNode


@dataclass(frozen=True)
class IfElseProp(PropNode):
    cond: Expr
    if_true: PropNode
    if_false: PropNode | None = None


# --------------------------------------------------------------------------
# Top-level assertion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClockingEvent(Node):
    edge: str  # 'posedge' | 'negedge' | ''
    signal: Expr


@dataclass(frozen=True)
class Assertion(Node):
    """A concurrent assertion directive.

    ``assert property (@(posedge clk) disable iff (rst) <prop>);``
    """

    prop: PropNode
    clocking: ClockingEvent | None = None
    disable: Expr | None = None
    label: str | None = None
    kind: str = "assert"  # assert | assume | cover

    def with_prop(self, prop: PropNode) -> "Assertion":
        return replace(self, prop=prop)


def signals_of(node: Node) -> set[str]:
    """All identifier names referenced anywhere under *node*."""
    return {n.name for n in node.walk() if isinstance(n, Identifier)}
