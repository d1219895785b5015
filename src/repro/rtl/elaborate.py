"""Elaboration: RTL AST -> word-level transition system.

Responsibilities (mirroring a formal tool's front end):

* resolve parameters / localparams (with ``$clog2`` etc.),
* unroll ``generate`` loops, substituting genvar values,
* flatten module hierarchy (instances become prefixed signals),
* expand unpacked arrays into element signals (variable-index reads become
  mux chains, variable-index writes become per-element guarded updates),
* flatten multi-dimensional packed vectors (word indexing becomes a
  part-select),
* synthesize procedural blocks into per-signal next-value expressions
  (if/case become mux trees; incompletely assigned ``always_comb`` targets
  get latch feedback through a shadow state element),
* merge partial (bit-slice) drivers of a net into one concatenation.

The result, :class:`Design`, is consumed by the simulator
(:mod:`repro.rtl.simulator`) and the prover (:mod:`repro.formal.prover`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

from ..memo import LruMemo
from ..sva.ast_nodes import (
    Assertion,
    Binary,
    Concat,
    Expr,
    Identifier,
    Index,
    Number,
    RangeSelect,
    Replication,
    SystemCall,
    Ternary,
    Unary,
)
from .ast_nodes import (
    AlwaysBlock,
    AssertionItem,
    AssignStmt,
    Block,
    CaseStmt,
    ContinuousAssign,
    GenerateFor,
    IfStmt,
    Instance,
    ModuleDecl,
    NetDecl,
    NullStmt,
    PortDecl,
    Range,
    SourceFile,
    Stmt,
)


class ElaborationError(ValueError):
    """Raised when the design cannot be elaborated (unresolved parameter,
    combinational loop, unsupported construct, ...)."""


# ---------------------------------------------------------------------------
# Constant evaluation & expression rewriting
# ---------------------------------------------------------------------------


def const_eval(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate a compile-time constant expression."""
    if isinstance(expr, Number):
        if expr.value is None:
            raise ElaborationError(f"x/z literal {expr.text!r} in constant")
        return expr.value
    if isinstance(expr, Identifier):
        if expr.name in env:
            return env[expr.name]
        raise ElaborationError(f"unresolved parameter {expr.name!r}")
    if isinstance(expr, Unary):
        v = const_eval(expr.operand, env)
        if expr.op == "-":
            return -v
        if expr.op == "+":
            return v
        if expr.op == "!":
            return 0 if v else 1
        if expr.op == "~":
            return ~v
        raise ElaborationError(f"unary {expr.op} in constant")
    if isinstance(expr, Binary):
        a = const_eval(expr.left, env)
        b = const_eval(expr.right, env)
        if b == 0 and expr.op in ("/", "%"):
            raise ElaborationError(f"division by zero in constant ({expr.op})")
        if b < 0 and expr.op in ("<<", ">>"):
            raise ElaborationError(f"negative shift amount in constant "
                                   f"({expr.op} {b})")
        ops = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a // b, "%": lambda: a % b, "**": lambda: a ** b,
            "<<": lambda: a << b, ">>": lambda: a >> b,
            "<": lambda: int(a < b), "<=": lambda: int(a <= b),
            ">": lambda: int(a > b), ">=": lambda: int(a >= b),
            "==": lambda: int(a == b), "!=": lambda: int(a != b),
            "&": lambda: a & b, "|": lambda: a | b, "^": lambda: a ^ b,
            "&&": lambda: int(bool(a) and bool(b)),
            "||": lambda: int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ElaborationError(f"binary {expr.op} in constant")
        return ops[expr.op]()
    if isinstance(expr, Ternary):
        return (const_eval(expr.if_true, env)
                if const_eval(expr.cond, env)
                else const_eval(expr.if_false, env))
    if isinstance(expr, SystemCall):
        if expr.name == "$clog2":
            n = const_eval(expr.args[0], env)
            return max(0, (n - 1).bit_length())
        if expr.name == "$bits" and isinstance(expr.args[0], Number):
            return expr.args[0].width or 32
        raise ElaborationError(f"{expr.name} in constant expression")
    raise ElaborationError(
        f"non-constant expression {type(expr).__name__} in constant context")


def try_const(expr: Expr, env: dict[str, int]) -> int | None:
    try:
        return const_eval(expr, env)
    except ElaborationError:
        return None


def rewrite(expr: Expr, fn) -> Expr:
    """Bottom-up rewriting: apply *fn* to every node, children first."""
    if isinstance(expr, Unary):
        expr = Unary(expr.op, rewrite(expr.operand, fn))
    elif isinstance(expr, Binary):
        expr = Binary(expr.op, rewrite(expr.left, fn), rewrite(expr.right, fn))
    elif isinstance(expr, Ternary):
        expr = Ternary(rewrite(expr.cond, fn), rewrite(expr.if_true, fn),
                       rewrite(expr.if_false, fn))
    elif isinstance(expr, SystemCall):
        expr = SystemCall(expr.name, tuple(rewrite(a, fn) for a in expr.args))
    elif isinstance(expr, Concat):
        expr = Concat(tuple(rewrite(p, fn) for p in expr.parts))
    elif isinstance(expr, Replication):
        expr = Replication(rewrite(expr.count, fn), rewrite(expr.value, fn))
    elif isinstance(expr, Index):
        expr = Index(rewrite(expr.base, fn), rewrite(expr.index, fn))
    elif isinstance(expr, RangeSelect):
        expr = RangeSelect(rewrite(expr.base, fn), rewrite(expr.msb, fn),
                           rewrite(expr.lsb, fn))
    return fn(expr)


def substitute(expr: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace identifiers by expressions (genvar / scope substitution)."""

    def fn(node: Expr) -> Expr:
        if isinstance(node, Identifier) and node.name in bindings:
            return bindings[node.name]
        return node

    return rewrite(expr, fn)


def _num(value: int) -> Number:
    return Number(value=value, text=str(value))


# ---------------------------------------------------------------------------
# Elaborated design
# ---------------------------------------------------------------------------


@dataclass
class Design:
    """Word-level transition system produced by elaboration.

    All expressions reference flattened signal names and are free of
    parameters, generate loops, hierarchy and arrays.
    """

    name: str
    params: dict[str, int] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    state: list[str] = field(default_factory=list)
    init: dict[str, int] = field(default_factory=dict)
    next_exprs: dict[str, Expr] = field(default_factory=dict)
    comb_exprs: dict[str, Expr] = field(default_factory=dict)  # topo order
    assertions: list[Assertion] = field(default_factory=list)
    clock: str | None = None
    resets: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # slice-merged signals: full name -> [(msb, lsb, segment signal name)]
    segments: dict[str, list[tuple[int, int, str]]] = field(
        default_factory=dict)
    #: assertion-independent values computed from this design once
    #: (``design_signature``); :func:`bind` shares the dict, like every
    #: field but ``assertions``, between a base and the designs bound
    #: from it, while ``dataclasses.replace`` (COI reduction) starts a
    #: copy with an empty one
    derived: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)
    #: the top module's elaboration scope (signals, parameters), kept so
    #: :func:`bind` can normalize further assertion items; not pickled
    scope: "_Scope | None" = field(default=None, init=False,
                                   compare=False, repr=False)

    def signal_widths(self) -> dict[str, int]:
        return dict(self.widths)

    def __getstate__(self):
        # the compiled-simulation cache holds exec-generated functions,
        # which cannot pickle (workers recompile lazily on first use);
        # no worker binds, so the scope stays behind too
        state = dict(self.__dict__)
        state.pop("_compiled_sim", None)
        state["scope"] = None
        return state


_HOLD_PREFIX = "__hold__"


@dataclass
class _SignalInfo:
    width: int
    word_width: int | None = None   # multi-dim packed: width of one word
    words: int | None = None        # multi-dim packed: number of words
    array_elems: int | None = None  # unpacked array: number of elements


class _Scope:
    """Name resolution inside one module instance: its parameters, its
    declared signals and its hierarchical prefix -- what ``normalize``
    needs, and nothing that refers back to the design or the source.
    The top module's scope outlives elaboration as ``Design.scope``."""

    def __init__(self, design_name: str, prefix: str):
        self.design_name = design_name
        self.prefix = prefix
        self.params: dict[str, int] = {}
        self.signals: dict[str, _SignalInfo] = {}  # local (unprefixed) names
        #: the top module's own assertion items, left for :func:`bind`
        self.assertion_items: list[AssertionItem] = []

    def detached(self) -> "_Scope":
        """This scope by itself, without the elaborator behind it."""
        scope = _Scope(self.design_name, self.prefix)
        scope.params, scope.signals = self.params, self.signals
        scope.assertion_items = self.assertion_items
        return scope

    def full(self, local: str) -> str:
        return f"{self.prefix}{local}"

    @staticmethod
    def _elem(name: str, k: int) -> str:
        return f"{name}__{k}"

    # -- expression normalization ---------------------------------------------------

    def normalize(self, expr: Expr) -> Expr:
        """Rewrite a RHS expression into flattened-signal form."""

        def fn(node: Expr) -> Expr:
            if isinstance(node, Identifier):
                if node.name in self.params:
                    return _num(self.params[node.name])
                info = self.signals.get(node.name)
                if info is None:
                    if node.name.startswith(self.prefix) and self.prefix:
                        return node  # already normalized
                    raise ElaborationError(
                        f"unresolved signal {node.name!r} in {self.design_name}")
                if info.array_elems is not None:
                    # leave bare so the enclosing Index handler (which sees
                    # this node as its base) can resolve the element access
                    return node
                return Identifier(self.full(node.name))
            if isinstance(node, Index):
                return self._normalize_index(node)
            if isinstance(node, RangeSelect):
                return self._normalize_range(node)
            return node

        return rewrite(expr, fn)

    def _base_name(self, expr: Expr) -> str | None:
        if isinstance(expr, Identifier):
            # strip prefix if already normalized
            name = expr.name
            if self.prefix and name.startswith(self.prefix):
                name = name[len(self.prefix):]
            return name
        return None

    def _normalize_index(self, node: Index) -> Expr:
        base = self._base_name(node.base)
        if base is None or base not in self.signals:
            return node
        info = self.signals[base]
        idx_const = try_const(node.index, self.params)
        if info.array_elems is not None:
            if idx_const is not None:
                if not 0 <= idx_const < info.array_elems:
                    raise ElaborationError(
                        f"index {idx_const} out of range for {base!r}")
                return Identifier(self.full(self._elem(base, idx_const)))
            # variable read: mux chain over elements
            result: Expr = Identifier(self.full(self._elem(base, 0)))
            for k in range(1, info.array_elems):
                cond = Binary("==", node.index, _num(k))
                result = Ternary(cond, Identifier(
                    self.full(self._elem(base, k))), result)
            return result
        if info.words is not None:
            word = info.word_width or 1
            flat = Identifier(self.full(base))
            if idx_const is not None:
                if not 0 <= idx_const < info.words:
                    raise ElaborationError(
                        f"word index {idx_const} out of range for {base!r}")
                return RangeSelect(flat, _num((idx_const + 1) * word - 1),
                                   _num(idx_const * word))
            result = RangeSelect(flat, _num(word - 1), _num(0))
            for k in range(1, info.words):
                cond = Binary("==", node.index, _num(k))
                result = Ternary(cond,
                                 RangeSelect(flat, _num((k + 1) * word - 1),
                                             _num(k * word)),
                                 result)
            return result
        # plain vector bit select: already supported downstream
        return Index(Identifier(self.full(base)) if isinstance(
            node.base, Identifier) else node.base, node.index)

    def _normalize_range(self, node: RangeSelect) -> Expr:
        base = self._base_name(node.base)
        if base is None or base not in self.signals:
            return node
        info = self.signals[base]
        msb = try_const(node.msb, self.params)
        lsb = try_const(node.lsb, self.params)
        if msb is None or lsb is None:
            raise ElaborationError(f"non-constant part-select on {base!r}")
        if info.words is not None:
            # word-range select [a:b] over 2-D packed: bits of words b..a
            word = info.word_width or 1
            return RangeSelect(Identifier(self.full(base)),
                               _num((msb + 1) * word - 1), _num(lsb * word))
        return RangeSelect(Identifier(self.full(base)), _num(msb), _num(lsb))


class _Elaborator(_Scope):
    def __init__(self, source: SourceFile, design: Design, prefix: str,
                 reset_names: tuple[str, ...]):
        super().__init__(design.name, prefix)
        self.source = source
        self.design = design
        self.reset_names = reset_names
        self.slice_drivers: dict[str, list[tuple[int, int, Expr]]] = {}
        self.seq_slice_drivers: dict[str, list[tuple[int, int, Expr]]] = {}

    def _declare(self, local: str, info: _SignalInfo) -> None:
        self.signals[local] = info
        self.design.widths[self.full(local)] = info.width

    # -- main ------------------------------------------------------------------

    def run(self, mod: ModuleDecl, overrides: dict[str, int]) -> None:
        self._resolve_params(mod, overrides)
        items = self._expand_generates(mod.items)
        self._declare_signals(mod, items)
        for item in items:
            if isinstance(item, ContinuousAssign):
                self._do_assign(item)
        for item in items:
            if isinstance(item, AlwaysBlock):
                self._do_always(item)
            elif isinstance(item, Instance):
                self._do_instance(item)
            elif isinstance(item, AssertionItem):
                if self.prefix:
                    self._do_assertion(item)
                else:
                    self.assertion_items.append(item)
        self._finalize_seq()
        self._finalize_slices()

    # -- parameters ------------------------------------------------------------

    def _resolve_params(self, mod: ModuleDecl, overrides: dict[str, int]):
        for p in mod.params:
            if not p.local and p.name in overrides:
                self.params[p.name] = overrides[p.name]
            else:
                self.params[p.name] = const_eval(p.value, self.params)
        if not self.prefix:
            self.design.params.update(self.params)

    # -- generate unrolling ---------------------------------------------------------

    def _expand_generates(self, items: list) -> list:
        out: list = []
        for item in items:
            if isinstance(item, GenerateFor):
                out.extend(self._unroll_generate(item))
            else:
                out.append(item)
        return out

    def _unroll_generate(self, gen: GenerateFor) -> list:
        out: list = []
        value = const_eval(gen.start, self.params)
        step = const_eval(gen.step, self.params)
        if step == 0:
            raise ElaborationError("zero generate step")
        guard = 0
        while const_eval(substitute(gen.cond, {gen.genvar: _num(value)}),
                         self.params):
            binding = {gen.genvar: _num(value)}
            for item in gen.items:
                out.append(self._bind_item(item, binding))
            value += step
            guard += 1
            if guard > 4096:
                raise ElaborationError("generate loop does not terminate")
        return out

    def _bind_item(self, item, binding: dict[str, Expr]):
        if isinstance(item, ContinuousAssign):
            return ContinuousAssign(lhs=substitute(item.lhs, binding),
                                    rhs=substitute(item.rhs, binding))
        if isinstance(item, AlwaysBlock):
            return AlwaysBlock(kind=item.kind, sensitivity=item.sensitivity,
                               body=self._bind_stmt(item.body, binding))
        if isinstance(item, GenerateFor):
            return GenerateFor(
                genvar=item.genvar, start=substitute(item.start, binding),
                cond=substitute(item.cond, binding),
                step=substitute(item.step, binding),
                items=[self._bind_item(i, binding) for i in item.items],
                label=item.label)
        raise ElaborationError(
            f"unsupported item inside generate: {type(item).__name__}")

    def _bind_stmt(self, stmt: Stmt, binding: dict[str, Expr]) -> Stmt:
        if isinstance(stmt, Block):
            return Block([self._bind_stmt(s, binding) for s in stmt.stmts],
                         stmt.label)
        if isinstance(stmt, AssignStmt):
            return AssignStmt(lhs=substitute(stmt.lhs, binding),
                              rhs=substitute(stmt.rhs, binding),
                              blocking=stmt.blocking)
        if isinstance(stmt, IfStmt):
            return IfStmt(cond=substitute(stmt.cond, binding),
                          then_body=self._bind_stmt(stmt.then_body, binding),
                          else_body=self._bind_stmt(stmt.else_body, binding)
                          if stmt.else_body else None)
        if isinstance(stmt, CaseStmt):
            from .ast_nodes import CaseItem
            return CaseStmt(
                subject=substitute(stmt.subject, binding),
                items=[CaseItem(
                    labels=None if it.labels is None else
                    [substitute(lb, binding) for lb in it.labels],
                    body=self._bind_stmt(it.body, binding))
                    for it in stmt.items],
                kind=stmt.kind)
        if isinstance(stmt, NullStmt):
            return stmt
        raise ElaborationError(f"unsupported statement {type(stmt).__name__}")

    # -- declarations ------------------------------------------------------------

    def _range_width(self, dims: list[Range]) -> list[int]:
        out = []
        for r in dims:
            msb = const_eval(r.msb, self.params)
            lsb = const_eval(r.lsb, self.params)
            if lsb != 0 and len(dims) == 1:
                pass  # non-zero lsb tolerated; width is the span
            out.append(abs(msb - lsb) + 1)
        return out

    def _declare_signals(self, mod: ModuleDecl, items: list) -> None:
        port_dir: dict[str, str] = {}
        for pd in mod.ports:
            dims = self._range_width(pd.packed)
            for name in pd.names:
                port_dir[name] = pd.direction
                self._declare_shape(name, dims, unpacked=None)
        for item in items:
            if isinstance(item, NetDecl):
                if item.kind == "genvar":
                    continue
                dims = self._range_width(item.packed)
                if item.kind == "integer" and not dims:
                    dims = [32]
                for name in item.names:
                    unp = item.unpacked.get(name)
                    unp_dims = self._range_width(unp) if unp else None
                    self._declare_shape(name, dims, unp_dims)
            elif isinstance(item, PortDecl):
                dims = self._range_width(item.packed)
                for name in item.names:
                    port_dir[name] = item.direction
                    self._declare_shape(name, dims, unpacked=None)
        # integer declarations default to 32-bit
        for local, direction in port_dir.items():
            full = self.full(local)
            if self.prefix == "":
                if direction == "input":
                    self.design.inputs.append(full)
                elif direction == "output":
                    self.design.outputs.append(full)
        self.port_dir = port_dir

    def _declare_shape(self, name: str, packed_dims: list[int],
                       unpacked: list[int] | None) -> None:
        if name in self.signals:
            # port declared both in header and body, or redundant decl:
            # keep the wider shape
            if not packed_dims:
                return
        if unpacked:
            if len(unpacked) != 1 or len(packed_dims) > 1:
                raise ElaborationError(
                    f"unsupported array shape for {name!r}")
            elems = unpacked[0]
            word = packed_dims[0] if packed_dims else 1
            self.signals[name] = _SignalInfo(width=word * elems,
                                             word_width=word,
                                             array_elems=elems)
            for k in range(elems):
                self._declare(self._elem(name, k),
                              _SignalInfo(width=word))
            return
        if len(packed_dims) == 0:
            self._declare(name, _SignalInfo(width=1))
        elif len(packed_dims) == 1:
            self._declare(name, _SignalInfo(width=packed_dims[0]))
        elif len(packed_dims) == 2:
            words, word_w = packed_dims
            self._declare(name, _SignalInfo(width=words * word_w,
                                            word_width=word_w, words=words))
        else:
            raise ElaborationError(f">2 packed dimensions on {name!r}")

    # -- continuous assigns ------------------------------------------------------------

    def _do_assign(self, ca: ContinuousAssign) -> None:
        rhs = self.normalize(ca.rhs)
        self._drive_lvalue(ca.lhs, rhs, self.slice_drivers)

    def _lvalue_target(self, lhs: Expr) -> tuple[str, int, int]:
        """Resolve an lvalue to (local signal name, msb, lsb)."""
        if isinstance(lhs, Identifier):
            name = self._base_name(lhs)
            info = self.signals.get(name)
            if info is None:
                raise ElaborationError(f"assignment to undeclared {name!r}")
            return name, info.width - 1, 0
        if isinstance(lhs, Index):
            base = self._base_name(lhs.base)
            if base is None or base not in self.signals:
                raise ElaborationError("unsupported lvalue")
            info = self.signals[base]
            idx = try_const(lhs.index, self.params)
            if idx is None:
                raise ElaborationError(
                    f"non-constant lvalue index on {base!r}")
            if info.array_elems is not None:
                elem = self._elem(base, idx)
                return elem, self.signals[elem].width - 1, 0
            if info.words is not None:
                w = info.word_width or 1
                return base, (idx + 1) * w - 1, idx * w
            return base, idx, idx
        if isinstance(lhs, RangeSelect):
            base = self._base_name(lhs.base)
            if base is None or base not in self.signals:
                raise ElaborationError("unsupported lvalue")
            msb = const_eval(lhs.msb, self.params)
            lsb = const_eval(lhs.lsb, self.params)
            info = self.signals[base]
            if info.words is not None:
                w = info.word_width or 1
                return base, (msb + 1) * w - 1, lsb * w
            return base, msb, lsb
        raise ElaborationError(f"unsupported lvalue {type(lhs).__name__}")

    def _drive_lvalue(self, lhs: Expr, rhs: Expr,
                      drivers: dict[str, list[tuple[int, int, Expr]]]) -> None:
        if isinstance(lhs, Concat):
            # {a, b} = rhs: split MSB-first
            widths = []
            for part in lhs.parts:
                name, msb, lsb = self._lvalue_target(part)
                widths.append((part, msb - lsb + 1))
            total = sum(w for _, w in widths)
            offset = total
            for part, w in widths:
                offset -= w
                piece = RangeSelect(rhs, _num(offset + w - 1), _num(offset))
                self._drive_lvalue(part, piece, drivers)
            return
        name, msb, lsb = self._lvalue_target(lhs)
        drivers.setdefault(name, []).append((msb, lsb, rhs))

    def _finalize_slices(self) -> None:
        for name, pieces in self.slice_drivers.items():
            info = self.signals[name]
            expr = self._merge_slices(name, info.width, pieces)
            full = self.full(name)
            if full in self.design.comb_exprs or full in self.design.next_exprs:
                raise ElaborationError(f"multiple drivers for {full!r}")
            self.design.comb_exprs[full] = expr

    def _merge_slices(self, name: str, width: int,
                      pieces: list[tuple[int, int, Expr]]) -> Expr:
        pieces = sorted(pieces, key=lambda p: p[1])
        if len(pieces) == 1 and pieces[0][0] - pieces[0][1] + 1 == width:
            return pieces[0][2]
        # Multiple partial drivers: materialize each slice as its own comb
        # sub-signal so reads of individual slices do not depend on the
        # whole merged vector (breaks false word-level comb loops).
        full = self.full(name)
        segs: list[tuple[int, int, str]] = []
        parts: list[Expr] = []  # LSB first, then reversed into Concat
        cursor = 0
        for msb, lsb, expr in pieces:
            if lsb < cursor:
                raise ElaborationError(f"overlapping drivers on {name!r}")
            if lsb > cursor:
                self.design.warnings.append(
                    f"{full}[{lsb - 1}:{cursor}] undriven; tied 0")
                parts.append(Number(value=0, width=lsb - cursor,
                                    text=f"{lsb - cursor}'d0"))
            w = msb - lsb + 1
            seg = f"{full}__s{lsb}"
            self.design.widths[seg] = w
            self.design.comb_exprs[seg] = self._fit(expr, w)
            segs.append((msb, lsb, seg))
            parts.append(Identifier(seg))
            cursor = msb + 1
        if cursor < width:
            self.design.warnings.append(
                f"{full}[{width - 1}:{cursor}] undriven; tied 0")
            parts.append(Number(value=0, width=width - cursor,
                                text=f"{width - cursor}'d0"))
        self.design.segments[full] = segs
        return Concat(tuple(reversed(parts)))

    @staticmethod
    def _fit(expr: Expr, width: int) -> Expr:
        """Force an expression to an exact width via a dummy concat trim."""
        return RangeSelect(Concat((Number(value=0, width=width,
                                          text=f"{width}'d0"), expr)),
                           _num(width - 1), _num(0))

    # -- always blocks ------------------------------------------------------------

    def _do_always(self, blk: AlwaysBlock) -> None:
        has_edge = any(s.edge in ("posedge", "negedge")
                       for s in blk.sensitivity)
        if blk.kind == "always_comb" or not has_edge:
            self._do_always_comb(blk)
        else:
            self._do_always_seq(blk)

    def _do_always_seq(self, blk: AlwaysBlock) -> None:
        clocks = [s.signal for s in blk.sensitivity if s.edge == "posedge"
                  and s.signal not in self.reset_names]
        resets = [s.signal for s in blk.sensitivity
                  if s.signal in self.reset_names]
        if clocks:
            clock_full = self.full(clocks[0])
            if self.design.clock is None:
                self.design.clock = clock_full
        for r in resets:
            full = self.full(r)
            if full not in self.design.resets:
                self.design.resets.append(full)
        targets = self._collect_targets(blk.body)
        spans = self._collect_spans(blk.body)
        env = _SynthEnv(self)
        current: dict[str, Expr] = {
            t: Identifier(self.full(t)) for t in targets}
        self._exec_stmt(blk.body, env, current, guard=None)
        for local, expr in current.items():
            msb, lsb = spans[local]
            # record the slice this block drives; blocks driving disjoint
            # slices of one register (generate-unrolled stages) merge later
            self.seq_slice_drivers.setdefault(local, []).append(
                (msb, lsb, expr))

    def _finalize_seq(self) -> None:
        for local, pieces in self.seq_slice_drivers.items():
            full = self.full(local)
            info = self.signals[local]
            mixed = local in self.slice_drivers
            reg_name = f"{full}__seq" if mixed else full
            next_expr = self._merge_seq_pieces(full, info.width, pieces)
            if reg_name in self.design.next_exprs:
                raise ElaborationError(f"multiple sequential drivers: {full}")
            self.design.next_exprs[reg_name] = next_expr
            if reg_name not in self.design.state:
                self.design.state.append(reg_name)
            if mixed:
                # some bits are continuously assigned, others registered:
                # expose the registered slices through the comb merge
                self.design.widths[reg_name] = info.width
                for msb, lsb, _expr in pieces:
                    self.slice_drivers[local].append(
                        (msb, lsb,
                         RangeSelect(Identifier(reg_name), _num(msb),
                                     _num(lsb))))

    def _merge_seq_pieces(self, full: str, width: int,
                          pieces: list[tuple[int, int, Expr]]) -> Expr:
        if len(pieces) == 1 and pieces[0][0] - pieces[0][1] + 1 == width:
            return pieces[0][2]
        pieces = sorted(pieces, key=lambda p: p[1])
        parts: list[Expr] = []
        cursor = 0
        old = Identifier(full)
        for msb, lsb, expr in pieces:
            if lsb < cursor:
                raise ElaborationError(
                    f"multiple sequential drivers: {full}[{msb}:{lsb}]")
            if lsb > cursor:
                parts.append(RangeSelect(old, _num(lsb - 1), _num(cursor)))
            parts.append(RangeSelect(expr, _num(msb), _num(lsb)))
            cursor = msb + 1
        if cursor < width:
            parts.append(RangeSelect(old, _num(width - 1), _num(cursor)))
        return Concat(tuple(reversed(parts)))

    def _collect_spans(self, stmt: Stmt) -> dict[str, tuple[int, int]]:
        """Bounding written bit-span per target signal in a block.

        Any span covering the written bits is sound here because the
        synthesized block expression already holds unwritten bits."""
        spans: dict[str, tuple[int, int]] = {}

        def note(name: str, msb: int, lsb: int) -> None:
            if name in spans:
                omsb, olsb = spans[name]
                spans[name] = (max(msb, omsb), min(lsb, olsb))
            else:
                spans[name] = (msb, lsb)

        def visit_lhs(lhs: Expr) -> None:
            if isinstance(lhs, Concat):
                for p in lhs.parts:
                    visit_lhs(p)
                return
            if isinstance(lhs, Index):
                base = self._base_name(lhs.base)
                info = self.signals.get(base)
                if (info is not None
                        and try_const(lhs.index, self.params) is None):
                    if info.array_elems is not None:
                        for k in range(info.array_elems):
                            elem = self._elem(base, k)
                            note(elem, self.signals[elem].width - 1, 0)
                    else:
                        note(base, info.width - 1, 0)
                    return
            name, msb, lsb = self._lvalue_target(lhs)
            note(name, msb, lsb)

        def visit(s: Stmt) -> None:
            if isinstance(s, Block):
                for sub in s.stmts:
                    visit(sub)
            elif isinstance(s, AssignStmt):
                visit_lhs(s.lhs)
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                if s.else_body:
                    visit(s.else_body)
            elif isinstance(s, CaseStmt):
                for item in s.items:
                    visit(item.body)

        visit(stmt)
        return spans

    def _do_always_comb(self, blk: AlwaysBlock) -> None:
        targets = self._collect_targets(blk.body)
        env = _SynthEnv(self)
        hold: dict[str, Expr] = {
            t: Identifier(_HOLD_PREFIX + self.full(t)) for t in targets}
        current = dict(hold)
        self._exec_stmt(blk.body, env, current, guard=None)
        for local, expr in current.items():
            full = self.full(local)
            hold_name = _HOLD_PREFIX + full
            uses_hold = any(isinstance(n, Identifier) and n.name == hold_name
                            for n in expr.walk())
            if uses_hold:
                # incomplete assignment: model the inferred latch as a state
                # element fed back from the block's own output
                self.design.warnings.append(
                    f"inferred latch on {full} (incomplete always_comb)")
                shadow = hold_name
                self.design.widths[shadow] = self.design.widths[full]
                self.design.state.append(shadow)
                self.design.next_exprs[shadow] = Identifier(full)
                self.design.comb_exprs[full] = expr
            else:
                if full in self.design.comb_exprs:
                    raise ElaborationError(f"multiple drivers for {full}")
                self.design.comb_exprs[full] = expr

    def _collect_targets(self, stmt: Stmt) -> list[str]:
        out: list[str] = []

        def visit_lhs(lhs: Expr) -> None:
            if isinstance(lhs, Concat):
                for p in lhs.parts:
                    visit_lhs(p)
                return
            base = lhs
            while isinstance(base, (Index, RangeSelect)):
                base = base.base
            name = self._base_name(base)
            if name is None:
                raise ElaborationError("unsupported assignment target")
            info = self.signals.get(name)
            if info is None:
                raise ElaborationError(f"assignment to undeclared {name!r}")
            if info.array_elems is not None:
                idx = None
                if isinstance(lhs, Index):
                    idx = try_const(lhs.index, self.params)
                if idx is not None:
                    names = [self._elem(name, idx)]
                else:
                    names = [self._elem(name, k)
                             for k in range(info.array_elems)]
            else:
                names = [name]
            del lhs  # targets resolved
            for n in names:
                if n not in out:
                    out.append(n)

        def visit(s: Stmt) -> None:
            if isinstance(s, Block):
                for sub in s.stmts:
                    visit(sub)
            elif isinstance(s, AssignStmt):
                visit_lhs(s.lhs)
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                if s.else_body:
                    visit(s.else_body)
            elif isinstance(s, CaseStmt):
                for item in s.items:
                    visit(item.body)

        visit(stmt)
        return out

    # -- statement synthesis ------------------------------------------------------------

    def _exec_stmt(self, stmt: Stmt, env: "_SynthEnv",
                   current: dict[str, Expr], guard: Expr | None) -> None:
        if isinstance(stmt, (NullStmt,)):
            return
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self._exec_stmt(s, env, current, guard)
            return
        if isinstance(stmt, AssignStmt):
            self._exec_assign(stmt, env, current)
            return
        if isinstance(stmt, IfStmt):
            cond = env.normalize_rhs(stmt.cond, current)
            then_map = dict(current)
            self._exec_stmt(stmt.then_body, env, then_map, guard)
            else_map = dict(current)
            if stmt.else_body is not None:
                self._exec_stmt(stmt.else_body, env, else_map, guard)
            for name in set(then_map) | set(else_map):
                tv = then_map.get(name, current.get(name))
                ev = else_map.get(name, current.get(name))
                if tv is ev:
                    current[name] = tv
                else:
                    current[name] = Ternary(cond, tv, ev)
            return
        if isinstance(stmt, CaseStmt):
            subject = env.normalize_rhs(stmt.subject, current)
            default_map = dict(current)
            has_default = any(item.labels is None for item in stmt.items)
            full_case = has_default or self._case_is_full(stmt)
            arms: list[tuple[Expr, dict[str, Expr]]] = []
            for item in stmt.items:
                body_map = dict(current)
                self._exec_stmt(item.body, env, body_map, guard)
                if item.labels is None:
                    default_map = body_map
                else:
                    conds = [Binary("==", subject, env.normalize_rhs(lb, current))
                             for lb in item.labels]
                    cond = conds[0]
                    for c in conds[1:]:
                        cond = Binary("||", cond, c)
                    arms.append((cond, body_map))
            if full_case and not has_default and arms:
                # labels cover the whole subject range: the last arm becomes
                # the default, eliminating a spurious inferred latch
                _, default_map = arms.pop()
            names = set(default_map)
            for _, m in arms:
                names |= set(m)
            for name in names:
                value = default_map.get(name, current.get(name))
                for cond, m in reversed(arms):
                    arm_v = m.get(name, current.get(name))
                    if arm_v is not value:
                        value = Ternary(cond, arm_v, value)
                current[name] = value
            return
        raise ElaborationError(f"unsupported statement {type(stmt).__name__}")

    def _case_is_full(self, stmt: CaseStmt) -> bool:
        """True if constant labels cover every value of the subject width."""
        width = self._subject_width(stmt.subject)
        if width is None or width > 16:
            return False
        covered: set[int] = set()
        for item in stmt.items:
            if item.labels is None:
                return True
            for lb in item.labels:
                v = try_const(lb, self.params)
                if v is None:
                    return False
                covered.add(v & ((1 << width) - 1))
        return len(covered) == (1 << width)

    def _subject_width(self, expr: Expr) -> int | None:
        base = self._base_name(expr) if isinstance(expr, Identifier) else None
        if base is not None and base in self.signals:
            return self.signals[base].width
        return None

    def _exec_assign(self, stmt: AssignStmt, env: "_SynthEnv",
                     current: dict[str, Expr]) -> None:
        rhs = env.normalize_rhs(stmt.rhs, current)
        self._write_lvalue(stmt.lhs, rhs, env, current)
        if stmt.blocking:
            # later reads in this block see the updated value
            env.blocking_names.update(self._lvalue_names(stmt.lhs))

    def _lvalue_names(self, lhs: Expr) -> list[str]:
        if isinstance(lhs, Concat):
            out = []
            for p in lhs.parts:
                out.extend(self._lvalue_names(p))
            return out
        base = lhs
        while isinstance(base, (Index, RangeSelect)):
            base = base.base
        name = self._base_name(base)
        return [name] if name else []

    def _write_lvalue(self, lhs: Expr, rhs: Expr, env: "_SynthEnv",
                      current: dict[str, Expr]) -> None:
        if isinstance(lhs, Concat):
            total = 0
            resolved = []
            for part in lhs.parts:
                _, msb, lsb = self._lvalue_target(part)
                resolved.append((part, msb - lsb + 1))
                total += msb - lsb + 1
            offset = total
            for part, w in resolved:
                offset -= w
                piece = RangeSelect(rhs, _num(offset + w - 1), _num(offset))
                self._write_lvalue(part, piece, env, current)
            return
        # variable-index array write: per-element guarded update
        if isinstance(lhs, Index):
            base = self._base_name(lhs.base)
            info = self.signals.get(base)
            if (info is not None and info.array_elems is not None
                    and try_const(lhs.index, self.params) is None):
                idx = env.normalize_rhs(lhs.index, current)
                for k in range(info.array_elems):
                    elem = self._elem(base, k)
                    cond = Binary("==", idx, _num(k))
                    prev = current.get(elem, Identifier(self.full(elem)))
                    current[elem] = Ternary(cond, rhs, prev)
                return
            if (info is not None and info.array_elems is None
                    and info.words is None
                    and try_const(lhs.index, self.params) is None):
                # variable single-bit write on a packed vector:
                # v = (v & ~(1 << idx)) | (bit << idx)
                idx = env.normalize_rhs(lhs.index, current)
                w = info.width
                prev = current.get(base, Identifier(self.full(base)))
                one = Number(value=1, width=w, text=f"{w}'d1")
                mask = Binary("<<", one, idx)
                cleared = Binary("&", prev, Unary("~", mask))
                bit = self._fit(self._fit(rhs, 1), w)
                current[base] = Binary("|", cleared, Binary("<<", bit, idx))
                return
        name, msb, lsb = self._lvalue_target(lhs)
        info = self.signals[name]
        if msb - lsb + 1 == info.width:
            current[name] = rhs
            return
        prev = current.get(name, Identifier(self.full(name)))
        parts: list[Expr] = []
        if msb + 1 <= info.width - 1:
            parts.append(RangeSelect(prev, _num(info.width - 1), _num(msb + 1)))
        parts.append(self._fit(rhs, msb - lsb + 1))
        if lsb > 0:
            parts.append(RangeSelect(prev, _num(lsb - 1), _num(0)))
        current[name] = Concat(tuple(parts))

    # -- instances ------------------------------------------------------------

    def _do_instance(self, inst: Instance) -> None:
        child_mod = self.source.modules.get(inst.module)
        if child_mod is None:
            raise ElaborationError(f"unknown module {inst.module!r}")
        overrides = {k: const_eval(v, self.params)
                     for k, v in inst.param_overrides.items()}
        child_prefix = f"{self.prefix}{inst.name}."
        child = _Elaborator(self.source, self.design, child_prefix,
                            self.reset_names)
        child.run(child_mod, overrides)
        for port, expr in inst.connections.items():
            direction = child.port_dir.get(port)
            if direction is None:
                raise ElaborationError(
                    f"{inst.module} has no port {port!r}")
            child_sig = Identifier(f"{child_prefix}{port}")
            if direction == "input":
                self.design.comb_exprs[child_sig.name] = self.normalize(expr)
            else:
                self._drive_lvalue(expr, child_sig, self.slice_drivers)
        # unconnected child inputs default to 0
        for local, direction in child.port_dir.items():
            if direction == "input" and local not in inst.connections:
                full = f"{child_prefix}{local}"
                self.design.comb_exprs[full] = Number(
                    value=0, width=self.design.widths[full],
                    text=f"{self.design.widths[full]}'d0")
                self.design.warnings.append(f"{full} unconnected; tied 0")

    # -- assertions ------------------------------------------------------------

    def _do_assertion(self, item: AssertionItem) -> None:
        self.design.assertions.append(
            _rewrite_assertion_exprs(item.assertion, self.normalize))


class _SynthEnv:
    """Evaluation scope for statement synthesis.

    ``blocking_names`` records targets assigned with ``=`` so far; later reads
    in the same block (branch-locally, via the caller's ``current`` map) see
    the updated expression, per blocking-assignment semantics.
    """

    def __init__(self, elab: _Elaborator):
        self.elab = elab
        self.blocking_names: set[str] = set()

    def normalize_rhs(self, expr: Expr, current: dict[str, Expr]) -> Expr:
        normalized = self.elab.normalize(expr)
        if not self.blocking_names:
            return normalized
        bindings = {self.elab.full(n): current[n]
                    for n in self.blocking_names if n in current}
        return substitute(normalized, bindings) if bindings else normalized


def _rewrite_assertion_exprs(assertion: Assertion, fn):
    """Apply an expression rewriter to every Expr inside an assertion."""
    from dataclasses import fields, is_dataclass, replace
    from ..sva.ast_nodes import Node

    def go(node):
        if isinstance(node, Expr):
            return fn(node)
        if is_dataclass(node) and isinstance(node, Node):
            changes = {}
            for f in fields(node):
                v = getattr(node, f.name)
                if isinstance(v, Node):
                    changes[f.name] = go(v)
                elif isinstance(v, tuple):
                    changes[f.name] = tuple(
                        go(x) if isinstance(x, Node) else x for x in v)
            return replace(node, **changes) if changes else node
        return node

    return go(assertion)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


_RESET_NAMES = ("reset_", "rst", "rst_n", "reset")

#: elaborated bases of *text* sources by (text, top, overrides, reset
#: names): the Human testbenches, and one per wire ``prove`` problem in
#: flight -- its frame's base, keyed on the frame's prefix + suffix
#: (:func:`elaborate`).  An elaborated pipeline design is about 100 KB,
#: so the memo is kept small.
_BASES = LruMemo("rtl.elaborate", 16)


#: learned frames by (top as given, prefix, suffix), each with its stem:
#: the learning parse with the frame's run cut off its module, which the
#: frame's base (memoised above under prefix + suffix) is built from.  A
#: pass@k POST carries one problem's n samples, and the first that misses
#: learns the frame the others bind onto, so the table needs the problems
#: in flight -- as many as ``rtl.elaborate`` keeps bases for.  A scan of
#: 16 prefix/suffix compares costs microseconds; a stem holds one parse
#: (about 25 KB of AST).
_FRAMES = LruMemo("rtl.frame", 16)

_ENDMODULE = re.compile(r"\bendmodule\b")


def elaborate_base(source: SourceFile | str, top: str | None = None,
                   overrides: dict[str, int] | None = None,
                   reset_names: tuple[str, ...] = _RESET_NAMES) -> Design:
    """Elaborate *top* (default: last module) except its own assertion
    items, which :func:`bind` adds late.

    The result keeps the top module's scope, so any number of designs
    can be bound from it.  A text *source* is memoised: its base is
    shared between callers and read-only.
    """
    if isinstance(source, str):
        from .parser import parse_rtl
        settings = _settings(top, overrides, reset_names)
        return _text_base(source, settings, lambda: parse_rtl(source))
    return _elaborate_base(source, top, overrides, reset_names)


def _settings(top, overrides, reset_names) -> tuple:
    """The arguments besides the text, as a text base's memo key has
    them."""
    return (top, tuple(sorted((overrides or {}).items())),
            tuple(reset_names))


def _text_base(text: str, settings: tuple, parse) -> Design:
    """The memoised base of the text *text* under *settings*, built on a
    miss from ``parse()``."""
    top, overrides, reset_names = settings
    return _BASES.get((text, *settings), lambda: with_digest(
        _elaborate_base(parse(), top, dict(overrides), reset_names),
        "rtl.elaborate", text, *settings))


def with_digest(base: Design, *inputs) -> Design:
    """*base*, with a digest of *inputs* -- everything it was elaborated
    from, as given -- kept in ``base.derived["digest"]``.

    The digest names a base (and every design bound from it, which
    shares ``derived``) without holding its texts: the service's raw-key
    alias keys a request on it (docs/cache.md).  A design without one is
    never aliased.  Call it where the base is built, once; the first
    input names the function that built it, so bases built by two
    functions never share a digest.
    """
    base.derived["digest"] = hashlib.blake2b(
        repr(inputs).encode("utf-8", "surrogatepass"),
        digest_size=16).hexdigest()
    return base


def _elaborate_base(source: SourceFile, top: str | None,
                    overrides: dict[str, int] | None,
                    reset_names: tuple[str, ...]) -> Design:
    if top is None:
        if not source.modules:
            raise ElaborationError("no module to elaborate")
        top = list(source.modules)[-1]
    mod = source.modules.get(top)
    if mod is None:
        raise ElaborationError(f"no module named {top!r}")
    design = Design(name=top)
    elab = _Elaborator(source, design, prefix="", reset_names=reset_names)
    elab.run(mod, dict(overrides or {}))
    # register reset inputs even when the reset is synchronous (no edge in
    # any sensitivity list), so simulation/proof hold it inactive by default
    for name in design.inputs:
        if name in reset_names and name not in design.resets:
            design.resets.append(name)
    redirect = _segment_reads(design)
    if redirect is not None:
        design.comb_exprs = {n: redirect(e)
                             for n, e in design.comb_exprs.items()}
        design.next_exprs = {n: redirect(e)
                             for n, e in design.next_exprs.items()}
        design.assertions = [_rewrite_assertion_exprs(a, redirect)
                             for a in design.assertions]
    _toposort_comb(design)
    design.scope = elab.detached()
    return design


def bind(base: Design, items: list[AssertionItem]) -> Design:
    """*base* plus the assertion *items*, normalized in the scope of its
    top module (an unresolved signal raises :class:`ElaborationError`).

    The bound design is a new object that shares every dict and list of
    *base* but ``assertions`` -- nothing downstream mutates those in
    place, and nothing may.  Assertions of instantiated child modules
    are part of the base, so they precede the bound ones.
    """
    scope = base.scope
    if scope is None:
        raise ElaborationError(
            f"{base.name} has no elaboration scope to bind assertions in")
    flatten = scope.normalize
    redirect = _segment_reads(base)
    if redirect is not None:
        def flatten(expr: Expr) -> Expr:
            return redirect(scope.normalize(expr))
    bound = replace(base, assertions=base.assertions + [
        _rewrite_assertion_exprs(item.assertion, flatten) for item in items])
    bound.derived, bound.scope = base.derived, scope
    return bound


def bind_text(base: Design, text: str) -> Design:
    """*base* plus the assertion items of *text*, bound like
    :func:`bind`.

    *text* is SystemVerilog module items, as a Design2SVA response
    writes them: any number of ``[label:] assert|assume|cover property
    (...);`` statements, parsed with the base's parameters (so ``##N``
    and a macro use ```N`` resolve to parameter ``N``) and normalized in
    its scope, so array elements, slices and unresolved names read
    exactly as in the source.  Raises
    :class:`~repro.rtl.parser.SpliceError` on bad syntax or an item that
    is not an assertion, :class:`ElaborationError` on an unresolved
    signal.  The new assertions are the bound design's last ones.
    """
    from .parser import SpliceError, parse_snippet_items
    snippet = parse_snippet_items(text, base.params)
    if len(snippet.assertions) != len(snippet.items):
        other = next(item for item in snippet.items
                     if not isinstance(item, AssertionItem))
        raise SpliceError(f"expected only assertions, got a "
                          f"{type(other).__name__}")
    return bind(base, snippet.assertions)


def elaborate(source: SourceFile | str, top: str | None = None,
              overrides: dict[str, int] | None = None,
              reset_names: tuple[str, ...] = _RESET_NAMES) -> Design:
    """Elaborate *top* (default: last module) into a :class:`Design`:
    :func:`elaborate_base`, then :func:`bind` of the top module's own
    assertion items.

    A text *source* is split where it can be.  Every parse records the
    :class:`~repro.rtl.ast_nodes.Frame` of each module whose body ends
    in a run of assertion items; a text that fits a learned frame of
    *top* -- its preprocessed form is the frame's prefix, a tail, then
    the frame's suffix -- binds the tail onto the frame's base, which is
    built once from the learning parse and memoised under prefix +
    suffix.  The pass@k samples of one wire ``prove`` problem are such
    texts: one DUT and testbench, and a different run of assertions
    before ``endmodule``.  So a problem costs one parse and one
    elaboration, and each further sample a preprocess, a compare, a
    parse of its tail and one bind.  The result equals the full path's:
    the tail must parse, without parameters as the full parse does, into
    assertion items only, which elaboration of the base never reads.
    Anything else -- no frame, support code, a parameter declaration, a
    directive or ``endmodule`` in the tail, a tail that fails to parse
    or bind -- takes the full path, so every error comes from it, and
    that path's parse learns the text's frame.
    """
    if isinstance(source, str):
        return _elaborate_text(source, _settings(top, overrides,
                                                 reset_names))
    base = elaborate_base(source, top, overrides, reset_names)
    return bind(base, base.scope.assertion_items)


def _elaborate_text(source: str, settings: tuple) -> Design:
    from .parser import parse_rtl
    design = _bind_on_frame(source, settings)
    if design is not None:
        return design
    parsed = parse_rtl(source)
    top = settings[0]
    name = top if top is not None else next(reversed(parsed.modules), None)
    frame = parsed.frames.get(name)
    if frame is None:
        base = _text_base(source, settings, lambda: parsed)
        return bind(base, base.scope.assertion_items)
    module = parsed.modules[name]
    stem = SourceFile({**parsed.modules, name: replace(
        module, items=module.items[:-frame.length])}, parsed.defines)
    base = _text_base(frame.prefix + frame.suffix, settings, lambda: stem)
    _FRAMES.store((top, frame.prefix, frame.suffix), stem)
    return bind(base, [*base.scope.assertion_items,
                       *module.items[-frame.length:]])


def _bind_on_frame(source: str, settings: tuple) -> Design | None:
    """*source* bound onto the base of a learned frame it fits, or None
    to take the full path (see :func:`elaborate`)."""
    from .parser import parse_snippet_items, preprocess
    try:
        text = preprocess(source)[0]
    except ValueError:
        return None
    top = settings[0]
    found = _FRAMES.find(lambda key: (
        key[0] == top and len(key[1]) + len(key[2]) <= len(text)
        and text.startswith(key[1]) and text.endswith(key[2])))
    if found is None:
        return None
    (_, prefix, suffix), stem = found
    tail = text[len(prefix):len(text) - len(suffix)]
    # the snippet wrapper would accept a tail that closes the module
    if _ENDMODULE.search(tail):
        return None
    try:
        # the items as the full parse reads them: without parameters.  A
        # parameter declaration adds no item but changes the base
        snippet = parse_snippet_items(tail)
        if snippet.params or len(snippet.assertions) != len(snippet.items):
            return None
        base = _text_base(prefix + suffix, settings, lambda: stem)
        return bind(base, [*base.scope.assertion_items,
                           *snippet.assertions])
    except ValueError:  # SpliceError, ElaborationError
        return None


#: Active-low reset names are held 1 when inactive; active-high held 0.
_ACTIVE_HIGH_RESETS = frozenset({"reset", "rst"})


def reset_inactive_value(name: str) -> int:
    """The value that deasserts the given reset signal."""
    short = name.rsplit(".", 1)[-1]
    return 0 if short in _ACTIVE_HIGH_RESETS else 1


def _segment_reads(design: Design):
    """The expression rewriter that redirects constant-range reads of
    slice-merged signals to the segment sub-signals, so dependencies are
    slice-accurate -- or None when the design has no such signal."""
    if not design.segments:
        return None

    def lookup(name: str, msb: int, lsb: int) -> Expr | None:
        for hi, lo, seg in design.segments.get(name, ()):
            if lo <= lsb and msb <= hi:
                if lo == lsb and hi == msb:
                    return Identifier(seg)
                return RangeSelect(Identifier(seg), _num(msb - lo),
                                   _num(lsb - lo))
        return None

    def fn(node: Expr) -> Expr:
        if isinstance(node, RangeSelect) and isinstance(node.base, Identifier):
            msb = try_const(node.msb, {})
            lsb = try_const(node.lsb, {})
            if msb is not None and lsb is not None:
                hit = lookup(node.base.name, msb, lsb)
                if hit is not None:
                    return hit
        if isinstance(node, Index) and isinstance(node.base, Identifier):
            idx = try_const(node.index, {})
            if idx is not None:
                hit = lookup(node.base.name, idx, idx)
                if hit is not None:
                    return hit
        return node

    return lambda expr: rewrite(expr, fn)


def _toposort_comb(design: Design) -> None:
    """Order comb_exprs so every reference is defined earlier; detect loops."""
    deps: dict[str, set[str]] = {}
    comb = design.comb_exprs
    for name, expr in comb.items():
        refs = {n.name for n in expr.walk() if isinstance(n, Identifier)}
        deps[name] = {r for r in refs if r in comb and r != name}
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(n: str, chain: list[str]) -> None:
        st = state.get(n, 0)
        if st == 1:
            cycle = " -> ".join(chain + [n])
            raise ElaborationError(f"combinational loop: {cycle}")
        if st == 2:
            return
        state[n] = 1
        for d in sorted(deps[n]):
            visit(d, chain + [n])
        state[n] = 2
        order.append(n)

    for n in sorted(comb):
        visit(n, [])
    design.comb_exprs = {n: comb[n] for n in order}
