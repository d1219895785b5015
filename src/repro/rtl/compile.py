"""Expression compilation: elaborated design -> straight-line Python.

The concrete simulator is the formal engine's falsification workhorse (24
random traces ahead of every proof) and was dominated by re-walking each
``Expr`` tree through the interpretive evaluator at every cycle.  This
module stages that evaluation once per design: every combinational /
next-state expression becomes one generated Python function of the current
frame's value dict, with all widths, masks and constant folds resolved at
compile time.

Semantics mirror :class:`repro.formal.bitvec.ExprEvaluator` over
:class:`~repro.formal.bitvec.IntBackend` exactly (unsigned subset, LRM
11.6 width rules: zero-extension to the widest operand, self-determined
shift amounts, 32-bit unsized literals, masking at every operation).  Any
construct the code generator does not cover -- time-shifted system calls
(``$past``/``$rose``), fill literals -- raises :class:`Uncompilable` and the
simulator falls back to the interpreter *for that signal only*, so coverage
gaps cost performance, never correctness.  The cross-validation suite
(``tests/test_rtl_compile.py``, ``tests/test_cross_validation.py``) checks
compiled evaluation against both the interpreter and the symbolic
bit-blaster.
"""

from __future__ import annotations

from ..sva.ast_nodes import (
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

UNSIZED_WIDTH = 32


class Uncompilable(Exception):
    """Expression outside the compilable subset; caller must interpret."""


def _mask(w: int) -> int:
    return (1 << w) - 1


class _Emitter:
    """Generates the statement list of one compiled expression function."""

    def __init__(self, widths: dict[str, int], params: dict[str, int]):
        self.widths = widths
        self.params = params
        self.lines: list[str] = []
        self.count = 0

    def tmp(self, code: str) -> str:
        name = f"t{self.count}"
        self.count += 1
        self.lines.append(f"    {name} = {code}")
        return name

    # -- constant helpers ---------------------------------------------------

    def const_of(self, expr: Expr) -> int | None:
        """Mirror of ``ExprEvaluator._as_const``."""
        if isinstance(expr, Number) and expr.value is not None:
            return expr.value
        if isinstance(expr, Identifier) and expr.name in self.params:
            return self.params[expr.name]
        if isinstance(expr, Binary):
            a = self.const_of(expr.left)
            b = self.const_of(expr.right)
            if a is None or b is None:
                return None
            try:
                return {"+": a + b, "-": a - b, "*": a * b,
                        "/": a // b if b else None,
                        "%": a % b if b else None,
                        "<<": a << b, ">>": a >> b, "**": a ** b}.get(expr.op)
            except (ZeroDivisionError, ValueError):
                return None
        return None

    # -- emission ------------------------------------------------------------

    def emit(self, expr: Expr) -> tuple[str, int]:
        """Returns ``(code, width)``; *code* is a variable name or literal
        whose runtime value is the expression masked to *width*."""
        if isinstance(expr, Number):
            if expr.is_fill or expr.value is None:
                raise Uncompilable("fill/x literal")
            width = expr.width if expr.width is not None else UNSIZED_WIDTH
            return str(expr.value & _mask(width)), width
        if isinstance(expr, Identifier):
            if expr.name in self.params:
                return str(self.params[expr.name]
                           & _mask(UNSIZED_WIDTH)), UNSIZED_WIDTH
            w = self.widths.get(expr.name)
            if w is None:
                raise Uncompilable(f"unknown signal {expr.name!r}")
            return self.tmp(f"v[{expr.name!r}]"), w
        if isinstance(expr, Unary):
            return self._emit_unary(expr)
        if isinstance(expr, Binary):
            return self._emit_binary(expr)
        if isinstance(expr, Ternary):
            c = self.emit_bool(expr.cond)
            a, aw = self.emit(expr.if_true)
            b, bw = self.emit(expr.if_false)
            w = max(aw, bw)
            return self.tmp(f"({a} if {c} else {b})"), w
        if isinstance(expr, Concat):
            parts = [self.emit(p) for p in expr.parts]
            width = sum(w for _, w in parts)
            code = "0"
            for p, w in parts:  # MSB part first
                code = f"(({code}) << {w}) | {p}"
            return self.tmp(code), width
        if isinstance(expr, Replication):
            n = self.const_of(expr.count)
            if n is None or n > 64:
                raise Uncompilable("non-constant or huge replication")
            p, w = self.emit(expr.value)
            code = "0"
            for _ in range(n):
                code = f"(({code}) << {w}) | {p}"
            return self.tmp(code), w * n
        if isinstance(expr, Index):
            return self._emit_index(expr)
        if isinstance(expr, RangeSelect):
            return self._emit_range(expr)
        if isinstance(expr, SystemCall):
            return self._emit_syscall(expr)
        raise Uncompilable(type(expr).__name__)

    def emit_bool(self, expr: Expr) -> str:
        v, _w = self.emit(expr)
        return self.tmp(f"(1 if {v} != 0 else 0)")

    def _common(self, left: Expr, right: Expr) -> tuple[str, str, int]:
        a, aw = self.emit(left)
        b, bw = self.emit(right)
        return a, b, max(aw, bw)  # values are masked; zext is a no-op

    def _emit_unary(self, expr: Unary) -> tuple[str, int]:
        op = expr.op
        if op == "!":
            v, _w = self.emit(expr.operand)
            return self.tmp(f"(1 if {v} == 0 else 0)"), 1
        if op in ("&", "|", "^", "~&", "~|", "~^", "^~"):
            v, w = self.emit(expr.operand)
            base = op.replace("~", "") if op != "^~" else "^"
            if base == "|":
                r = f"(1 if {v} != 0 else 0)"
            elif base == "&":
                r = f"(1 if {v} == {_mask(w)} else 0)"
            else:
                r = f"(bin({v}).count('1') & 1)"
            if op.startswith("~") or op == "^~":
                r = f"(1 - {r})"
            return self.tmp(r), 1
        if op == "~":
            v, w = self.emit(expr.operand)
            return self.tmp(f"(~{v} & {_mask(w)})"), w
        if op == "-":
            v, w = self.emit(expr.operand)
            return self.tmp(f"((0 - {v}) & {_mask(w)})"), w
        if op == "+":
            return self.emit(expr.operand)
        raise Uncompilable(f"unary {op}")

    def _emit_binary(self, expr: Binary) -> tuple[str, int]:
        op = expr.op
        if op in ("&&", "||"):
            a = self.emit_bool(expr.left)
            b = self.emit_bool(expr.right)
            join = "and" if op == "&&" else "or"
            return self.tmp(f"({a} {join} {b})"), 1
        if op in ("==", "===", "!=", "!=="):
            a, b, _w = self._common(expr.left, expr.right)
            cmp = "==" if op in ("==", "===") else "!="
            return self.tmp(f"(1 if {a} {cmp} {b} else 0)"), 1
        if op in ("<", "<=", ">", ">="):
            a, b, _w = self._common(expr.left, expr.right)
            return self.tmp(f"(1 if {a} {op} {b} else 0)"), 1
        if op in ("&", "|", "^"):
            a, b, w = self._common(expr.left, expr.right)
            return self.tmp(f"({a} {op} {b})"), w
        if op in ("^~", "~^"):
            a, b, w = self._common(expr.left, expr.right)
            return self.tmp(f"(~({a} ^ {b}) & {_mask(w)})"), w
        if op in ("+", "-", "*"):
            a, b, w = self._common(expr.left, expr.right)
            return self.tmp(f"(({a} {op} {b}) & {_mask(w)})"), w
        if op in ("/", "%"):
            a, b, w = self._common(expr.left, expr.right)
            if op == "/":
                # div-by-0 saturates to all ones (documented 2-state choice)
                return self.tmp(f"({_mask(w)} if {b} == 0 "
                                f"else {a} // {b})"), w
            return self.tmp(f"({a} if {b} == 0 else {a} % {b})"), w
        if op in ("<<", ">>", "<<<", ">>>"):
            a, aw = self.emit(expr.left)
            py = "<<" if op in ("<<", "<<<") else ">>"
            amount = self.const_of(expr.right)
            if amount is not None:
                if amount >= aw:
                    return "0", aw
                if py == "<<":
                    return self.tmp(f"(({a} << {amount}) & {_mask(aw)})"), aw
                return self.tmp(f"({a} >> {amount})"), aw
            b, _bw = self.emit(expr.right)
            if py == "<<":
                return self.tmp(f"(0 if {b} >= {aw} else "
                                f"({a} << {b}) & {_mask(aw)})"), aw
            return self.tmp(f"(0 if {b} >= {aw} else {a} >> {b})"), aw
        if op == "**":
            base = self.const_of(expr.left)
            exp = self.const_of(expr.right)
            if base is None or exp is None:
                raise Uncompilable("non-constant **")
            return str((base ** exp) & _mask(UNSIZED_WIDTH)), UNSIZED_WIDTH
        raise Uncompilable(f"binary {op}")

    def _emit_index(self, expr: Index) -> tuple[str, int]:
        base, w = self.emit(expr.base)
        idx_const = self.const_of(expr.index)
        if idx_const is not None:
            if idx_const >= w:
                return "0", 1
            return self.tmp(f"(({base} >> {idx_const}) & 1)"), 1
        idx, _iw = self.emit(expr.index)
        return self.tmp(f"(0 if {idx} >= {w} "
                        f"else ({base} >> {idx}) & 1)"), 1

    def _emit_range(self, expr: RangeSelect) -> tuple[str, int]:
        base, w = self.emit(expr.base)
        hi = self.const_of(expr.msb)
        lo = self.const_of(expr.lsb)
        if hi is None or lo is None or lo > hi:
            raise Uncompilable("non-constant or reversed part-select")
        hi = min(hi, w - 1)
        width = hi - lo + 1
        if lo == 0 and width == w:
            return base, w
        return self.tmp(f"(({base} >> {lo}) & {_mask(width)})"), width

    def _emit_syscall(self, call: SystemCall) -> tuple[str, int]:
        name = call.name
        if name == "$countones":
            v, w = self.emit(call.args[0])
            return self.tmp(f"bin({v}).count('1')"), max(1, w.bit_length())
        if name == "$onehot":
            v, _w = self.emit(call.args[0])
            return self.tmp(f"(1 if bin({v}).count('1') == 1 else 0)"), 1
        if name == "$onehot0":
            v, _w = self.emit(call.args[0])
            return self.tmp(f"(1 if bin({v}).count('1') < 2 else 0)"), 1
        if name == "$isunknown":
            return "0", 1  # 2-state: never unknown
        if name == "$clog2":
            n = self.const_of(call.args[0])
            if n is None:
                raise Uncompilable("$clog2 of non-constant")
            return str(max(0, (n - 1).bit_length())), UNSIZED_WIDTH
        if name in ("$signed", "$unsigned", "$sampled"):
            return self.emit(call.args[0])
        # $past / $rose / $fell / $stable / $changed read earlier frames;
        # the interpreter handles those
        raise Uncompilable(name)


def compile_expr(expr: Expr, widths: dict[str, int],
                 params: dict[str, int] | None, out_width: int):
    """Compile one expression to ``fn(frame_values) -> int``.

    The returned function masks its result to *out_width* (the assigned
    signal's declared width), exactly as the simulator's store step does.
    Raises :class:`Uncompilable` for anything outside the subset.
    """
    em = _Emitter(widths, dict(params or {}))
    code, w = em.emit(expr)
    body = "\n".join(em.lines)
    final = f"({code}) & {_mask(min(w, out_width))}" if out_width else "0"
    src = f"def _compiled(v):\n{body}\n    return {final}\n"
    namespace: dict = {}
    exec(src, namespace)  # generated from the design's own AST only
    fn = namespace["_compiled"]
    fn.__source__ = src
    return fn


def compile_design(design) -> dict[str, object]:
    """Compile every comb/next expression of a design that fits the subset.

    Returns ``{signal: fn}``; signals whose expression is uncompilable are
    simply absent (the simulator interprets those).  The result is cached
    on the design object -- compilation happens once per elaboration, not
    once per :class:`~repro.rtl.simulator.Simulator`.
    """
    cached = getattr(design, "_compiled_sim", None)
    if cached is not None:
        return cached
    compiled: dict[str, object] = {}
    for table in (design.comb_exprs, design.next_exprs):
        for name, expr in table.items():
            try:
                compiled[name] = compile_expr(expr, design.widths,
                                              design.params,
                                              design.widths[name])
            except Uncompilable:
                pass
    object.__setattr__(design, "_compiled_sim", compiled)
    return compiled


# ---------------------------------------------------------------------------
# One-step bit-blasting (the single lowering of a design cone: the
# bit-parallel simulator runs it, the prover's unroller stamps it)
# ---------------------------------------------------------------------------


class _StepSource:
    """Signal source for bit-blasting ONE simulation step.

    Inputs and current state are fresh AIG inputs; combinational signals
    evaluate their defining expression at t=0.  Any time-shifted read
    (``$past``/``$rose`` in a design expression) falls outside the
    single-frame subset and raises :class:`Uncompilable` -- callers fall
    back to the sequential interpreter for the whole design.
    """

    def __init__(self, aig, design):
        self.aig = aig
        self.design = design
        self._memo: dict[str, tuple] = {}
        from ..formal.bitvec import AigBackend, ExprEvaluator
        self.evaluator = ExprEvaluator(AigBackend(aig), self, design.params)
        self.input_bits: dict[str, tuple] = {}

    def width(self, name: str) -> int:
        try:
            return self.design.widths[name]
        except KeyError:
            from ..formal.bitvec import EvalError
            raise EvalError(f"unknown signal {name!r}") from None

    def read(self, name: str, t: int):
        if t != 0:
            raise Uncompilable(f"time-shifted read of {name!r} in step")
        w = self.width(name)
        bits = self._memo.get(name)
        if bits is not None:
            return bits, w
        design = self.design
        # comb wins over a same-named input: Simulator.step overwrites the
        # driven value with the combinational assignment before any reader
        # (COI reduction can leave a signal in both roles)
        if name in design.comb_exprs:
            v, vw = self.evaluator.eval(design.comb_exprs[name], 0)
            bits = _fit_bits(v, vw, w)
        elif (name in design.inputs or name in design.state
                or name == design.clock):
            bits = tuple(self.aig.new_input() for _ in range(w))
            self.input_bits[name] = bits
        else:
            from ..formal.bitvec import EvalError
            raise EvalError(f"undriven signal {name!r}")
        self._memo[name] = bits
        return bits, w


def _fit_bits(bits, have: int, want: int):
    from ..formal.aig import FALSE
    if have == want:
        return tuple(bits)
    if have > want:
        return tuple(bits[:want])
    return tuple(bits) + tuple([FALSE] * (want - have))


def bitblast_step(design, max_nodes: int | None = None):
    """Bit-blast one simulation step of *design* into an AIG.

    Returns ``(aig, input_bits, comb_bits, next_bits)``:

    * ``input_bits``: signal -> tuple of AIG input literals (primary inputs
      and current state, exactly the frame the scalar simulator starts from),
    * ``comb_bits``: combinational signal -> output literals for this cycle,
    * ``next_bits``: state signal -> literals of its registered next value.

    The result is cached on the design; :class:`Uncompilable` marks designs
    with time-shifted reads (those simulate through the scalar interpreter).
    ``max_nodes`` aborts mid-build once the AIG outgrows the budget --
    datapath-dominated cones explode under bit-blasting and are better
    served word-level, so callers cap the cost of finding that out.  The
    budget binds the caller that passed it, cache hit or not: the packed
    simulator asks under its lane budget, the prover's unroller
    (:func:`step_template`) without one, in either order.
    Semantics mirror :meth:`repro.rtl.simulator.Simulator.step` exactly --
    the packed simulator built on top of this is differentially tested
    against it (``tests/test_formal_bitsim.py``).
    """
    cached, budget = getattr(design, "_step_aig", (None, None))
    if cached is not None:
        if not isinstance(cached, Uncompilable):
            # the budget is a property of the caller, not of the cache: a
            # full result some other caller built answers a budgeted one
            # exactly as an aborted build of its own would have
            if max_nodes is not None and len(cached[0]) > max_nodes:
                raise Uncompilable(f"AIG exceeds {max_nodes} nodes")
            return cached
        # a budget abort only binds callers with the same or smaller budget
        if budget is None or (max_nodes is not None and max_nodes <= budget):
            raise cached
    from ..formal.aig import AIG, AigOverflow
    from ..formal.bitvec import EvalError
    aig = AIG(max_nodes=max_nodes)
    source = _StepSource(aig, design)
    try:
        comb_bits = {}
        for name in design.comb_exprs:
            bits, _w = source.read(name, 0)
            comb_bits[name] = bits
        next_bits = {}
        for name, expr in design.next_exprs.items():
            v, vw = source.evaluator.eval(expr, 0)
            next_bits[name] = _fit_bits(v, vw, design.widths[name])
    except (EvalError, Uncompilable, AigOverflow) as exc:
        marker = Uncompilable(str(exc))
        budget = max_nodes if isinstance(exc, AigOverflow) else None
        object.__setattr__(design, "_step_aig", (marker, budget))
        raise marker from exc
    aig.max_nodes = None  # the cache outlives the probe budget
    result = (aig, dict(source.input_bits), comb_bits, next_bits)
    object.__setattr__(design, "_step_aig", (result, None))
    return result


# ---------------------------------------------------------------------------
# The step relation as a per-frame stamp (the prover's unroller)
# ---------------------------------------------------------------------------


class StepTemplate:
    """:func:`bitblast_step`'s AIG laid out for stamping into another AIG.

    A frame of an unrolling is the template's live AND nodes rebuilt in
    topological order over a literal map (``m[n] = and_(m[a], m[b])``)
    whose leaves the unroller seeds per frame -- so a design cone is
    lowered from its expression trees once, not once per frame of every
    session.

    * ``size`` -- length of the literal map (template node count);
    * ``leaves`` -- ``(signal, template node of each bit)`` for every
      input / current-state word the step reads;
    * ``comb_plan`` / ``next_plan`` -- ``(node, a_node, a_neg, b_node,
      b_neg)`` per live AND node, ascending (a node's fanins precede it):
      the cone of the combinational outputs, then what the next-state
      outputs need beyond it (stamped only when the following frame is
      read);
    * ``comb_bits`` / ``next_bits`` -- signal -> template output literals;
    * ``gates`` -- live AND nodes: the ``and_`` calls one full frame costs.
    """

    __slots__ = ("size", "leaves", "comb_plan", "next_plan", "comb_bits",
                 "next_bits", "gates")

    def __init__(self, aig, input_bits, comb_bits, next_bits):
        self.size = len(aig)
        self.leaves = [(name, tuple(lit >> 1 for lit in bits))
                       for name, bits in input_bits.items()]
        self.comb_bits = comb_bits
        self.next_bits = next_bits
        fanins = aig._fanins

        def plan(nodes):
            gates = ((n, fanins[n]) for n in sorted(nodes))
            return [(n, fi[0] >> 1, fi[0] & 1, fi[1] >> 1, fi[1] & 1)
                    for n, fi in gates if fi is not None]

        comb = set(aig.cone([lit for bits in comb_bits.values()
                             for lit in bits]))
        self.comb_plan = plan(comb)
        self.next_plan = plan(set(aig.cone(
            [lit for bits in next_bits.values() for lit in bits])) - comb)
        self.gates = len(self.comb_plan) + len(self.next_plan)


def step_template(design) -> StepTemplate:
    """The stamp plan of *design*'s step relation, computed once and
    cached beside the :func:`bitblast_step` result it is read from
    (which is built without a node budget: the unroller would construct
    the same gates frame by frame anyway).  Raises :class:`Uncompilable`
    where that does -- the caller walks the expression trees instead."""
    template = getattr(design, "_step_template", None)
    if template is None:
        template = StepTemplate(*bitblast_step(design))
        object.__setattr__(design, "_step_template", template)
    return template
