"""AST nodes for the synthesizable SystemVerilog subset.

Covers the constructs exercised by the benchmark's designs and testbenches:
non-ANSI and ANSI module headers, parameters/localparams, packed (1-D/2-D)
and unpacked signal declarations, continuous assigns, ``always`` /
``always_ff`` / ``always_comb`` blocks with if/case statements, generate-for
loops over genvars, module instantiation with parameter overrides, and
concurrent assertion items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..sva.ast_nodes import Assertion, Expr


@dataclass(frozen=True)
class Range:
    """A packed/unpacked range ``[msb:lsb]`` (expressions, pre-elaboration)."""

    msb: Expr
    lsb: Expr


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool = False


@dataclass
class PortDecl:
    """Direction declaration (``input [W-1:0] x;``), possibly with a net kind
    (``output reg ...``)."""

    direction: str  # input | output | inout
    names: list[str]
    packed: list[Range] = field(default_factory=list)
    kind: str | None = None  # reg | wire | logic
    signed: bool = False


@dataclass
class NetDecl:
    kind: str  # wire | reg | logic | integer | genvar
    names: list[str]
    packed: list[Range] = field(default_factory=list)
    unpacked: dict[str, list[Range]] = field(default_factory=dict)
    signed: bool = False


# -- statements --------------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt]
    label: str | None = None


@dataclass
class AssignStmt(Stmt):
    lhs: Expr  # Identifier | Index | RangeSelect | Concat
    rhs: Expr
    blocking: bool = True


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: Stmt
    else_body: Stmt | None = None


@dataclass
class CaseItem:
    labels: list[Expr] | None  # None = default
    body: Stmt


@dataclass
class CaseStmt(Stmt):
    subject: Expr
    items: list[CaseItem]
    kind: str = "case"  # case | casez | casex


@dataclass
class NullStmt(Stmt):
    pass


# -- module items --------------------------------------------------------------


@dataclass
class SensItem:
    edge: str  # 'posedge' | 'negedge' | '' (level) | '*'
    signal: str


@dataclass
class AlwaysBlock:
    kind: str  # always | always_ff | always_comb | always_latch
    sensitivity: list[SensItem]
    body: Stmt


@dataclass
class ContinuousAssign:
    lhs: Expr
    rhs: Expr


@dataclass
class GenerateFor:
    genvar: str
    start: Expr
    cond: Expr
    step: Expr  # value added each iteration (normalized from i++ / i=i+1)
    items: list
    label: str | None = None


@dataclass
class Instance:
    module: str
    name: str
    param_overrides: dict[str, Expr] = field(default_factory=dict)
    connections: dict[str, Expr] = field(default_factory=dict)  # .port(expr)


@dataclass
class AssertionItem:
    assertion: Assertion
    source_text: str = ""


def _items_of(kind: type) -> property:
    """A read-only view of the module items of one *kind*."""
    return property(lambda self: tuple(item for item in self.items
                                       if isinstance(item, kind)))


@dataclass
class ModuleDecl:
    """One module: its header and its body ``items`` in source order.

    ``items`` is the one representation of the body; the per-kind
    attributes below are tuples derived from it on every read, so they
    can never drift from it (and cannot be appended to).
    """

    name: str
    port_order: list[str] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)
    ports: list[PortDecl] = field(default_factory=list)
    items: list = field(default_factory=list)  # all items, in source order

    nets = _items_of(NetDecl)
    assigns = _items_of(ContinuousAssign)
    always_blocks = _items_of(AlwaysBlock)
    generates = _items_of(GenerateFor)
    instances = _items_of(Instance)
    assertions = _items_of(AssertionItem)


class Frame(NamedTuple):
    """Where a module's body ends in a run of top-level assertion items,
    in the preprocessed text of a parse: the text before the run's first
    token (*prefix*, ending in whitespace), the text after its last
    token (*suffix*, starting with whitespace) and the run's *length*:
    the run is the last *length* entries of the module's ``items``."""

    prefix: str
    suffix: str
    length: int


@dataclass
class SourceFile:
    modules: dict[str, ModuleDecl]
    defines: dict[str, str]
    #: the :class:`Frame` of each module that has one, by module name
    #: (only :func:`~repro.rtl.parser.parse_rtl` records them)
    frames: dict[str, Frame] = field(default_factory=dict, compare=False,
                                     repr=False)
