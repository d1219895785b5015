"""Parser for the synthesizable SystemVerilog subset.

Builds on the SVA token stream and expression grammar
(:class:`repro.sva.parser.Parser`); adds module structure, declarations,
procedural statements, generate loops and instantiation.  A tiny text-level
preprocessor handles ```define`` constants before lexing.

Anything outside the subset raises :class:`~repro.sva.parser.ParseError` --
the same contract as the SVA layer, and how the evaluation flow detects
malformed support code in Design2SVA responses.
"""

from __future__ import annotations

import re

from ..memo import LruMemo
from ..sva.ast_nodes import Binary, Expr, Identifier, Number
from ..sva.lexer import TokKind
from ..sva.parser import ParseError, Parser
from .ast_nodes import (
    AlwaysBlock,
    AssertionItem,
    AssignStmt,
    Block,
    CaseItem,
    CaseStmt,
    ContinuousAssign,
    Frame,
    GenerateFor,
    IfStmt,
    Instance,
    ModuleDecl,
    NetDecl,
    NullStmt,
    ParamDecl,
    PortDecl,
    Range,
    SensItem,
    SourceFile,
    Stmt,
)

_DEFINE_RE = re.compile(r"^\s*`define\s+(\w+)\s+(.*?)\s*$", re.MULTILINE)


def preprocess(source: str, predefined: dict[str, str] | None = None
               ) -> tuple[str, dict[str, str]]:
    """Extract ```define`` macros and substitute their uses.

    Only object-like (constant) macros are supported, which is all the
    benchmark's RTL uses.  *predefined* macros are defined before the
    text's own.
    """
    defines: dict[str, str] = dict(predefined or {})
    if "`" not in source:  # no directive, no macro use
        return source, defines
    for m in _DEFINE_RE.finditer(source):
        defines[m.group(1)] = m.group(2)
    text = _DEFINE_RE.sub("", source)

    def substitute(mo: re.Match) -> str:
        name = mo.group(1)
        if name == "define":
            return mo.group(0)
        if name in defines:
            return defines[name]
        raise ParseError(f"undefined macro `{name}")

    # iterate to handle macros referencing macros
    for _ in range(8):
        new_text = re.sub(r"`(\w+)", substitute, text)
        if new_text == text:
            break
        text = new_text
    return text, defines


class RtlParser(Parser):
    """Module-level parser extending the expression/SVA grammar."""

    def parse_source(self) -> dict[str, ModuleDecl]:
        #: module name -> (first token, last token, item count) of the
        #: run of top-level assertion items that ends the module's body
        self.runs: dict[str, tuple[int, int, int]] = {}
        modules: dict[str, ModuleDecl] = {}
        while not self.at_end():
            if self.at("module"):
                mod = self.parse_module()
                modules[mod.name] = mod
            else:
                raise ParseError("expected 'module'", self.peek())
        return modules

    # -- module ------------------------------------------------------------

    def parse_module(self) -> ModuleDecl:
        self.expect("module")
        name_tok = self.peek()
        if name_tok.kind is not TokKind.IDENT:
            raise ParseError("expected module name", name_tok)
        self.next()
        mod = ModuleDecl(name=name_tok.text)
        if self.accept("#"):
            self._parse_param_port_list(mod)
        if self.accept("("):
            self._parse_port_header(mod)
        self.expect(";")
        run = None  # (first token, items before it) of the trailing run
        while not self.at("endmodule"):
            start, count = self.pos, len(mod.items)
            self._parse_module_item(mod)
            if (len(mod.items) == count + 1
                    and isinstance(mod.items[-1], AssertionItem)
                    and self.toks[start].text != "generate"):
                if run is None:
                    run = (start, count)
            else:
                run = None
        if run is None:
            self.runs.pop(mod.name, None)
        else:
            self.runs[mod.name] = (run[0], self.pos - 1,
                                   len(mod.items) - run[1])
        self.expect("endmodule")
        return mod

    def _parse_param_port_list(self, mod: ModuleDecl) -> None:
        self.expect("(")
        while True:
            self.expect("parameter")
            pname = self.next().text
            self.expect("=")
            value = self.parse_expression()
            mod.params.append(ParamDecl(name=pname, value=value))
            if not self.accept(","):
                break
        self.expect(")")

    def _parse_port_header(self, mod: ModuleDecl) -> None:
        if self.at(")"):  # empty list
            self.next()
            return
        # ANSI style if a direction keyword appears, else simple name list
        if self.peek().text in ("input", "output", "inout"):
            direction = None
            kind = None
            packed: list[Range] = []
            signed = False
            while True:
                if self.peek().text in ("input", "output", "inout"):
                    direction = self.next().text
                    kind = None
                    if self.peek().text in ("wire", "reg", "logic"):
                        kind = self.next().text
                    signed = self.accept("signed")
                    packed = self._parse_packed_dims()
                # else: continuation port inherits the previous declaration
                pname = self._expect_ident()
                mod.ports.append(PortDecl(direction=direction, names=[pname],
                                          packed=packed, kind=kind,
                                          signed=signed))
                mod.port_order.append(pname)
                if not self.accept(","):
                    break
            self.expect(")")
            return
        while True:
            mod.port_order.append(self._expect_ident())
            if not self.accept(","):
                break
        self.expect(")")

    def _expect_ident(self) -> str:
        t = self.peek()
        if t.kind is not TokKind.IDENT:
            raise ParseError("expected identifier", t)
        self.next()
        return t.text

    def _parse_packed_dims(self) -> list[Range]:
        dims: list[Range] = []
        while self.at("["):
            self.next()
            msb = self.parse_expression()
            self.expect(":")
            lsb = self.parse_expression()
            self.expect("]")
            dims.append(Range(msb=msb, lsb=lsb))
        return dims

    # -- module items ------------------------------------------------------------

    def _parse_module_item(self, mod: ModuleDecl) -> None:
        t = self.peek()
        text = t.text
        if text in ("parameter", "localparam"):
            self._parse_param_decl(mod)
        elif text in ("input", "output", "inout"):
            self._parse_port_decl(mod)
        elif text in ("wire", "reg", "logic", "integer", "genvar"):
            self._parse_net_decl(mod)
        elif text == "assign":
            self._parse_continuous_assign(mod)
        elif text in ("always", "always_ff", "always_comb", "always_latch"):
            mod.items.append(self._parse_always())
        elif text == "generate":
            self.next()
            while not self.at("endgenerate"):
                self._parse_module_item(mod)
            self.expect("endgenerate")
        elif text == "for":
            mod.items.append(self._parse_generate_for())
        elif text in ("assert", "assume", "cover") or (
                t.kind is TokKind.IDENT and self.peek(1).text == ":" and
                self.peek(2).text in ("assert", "assume", "cover")):
            mod.items.append(self._parse_assertion_item())
        elif text == "initial":
            raise ParseError(
                "'initial' blocks are not allowed in a formal testbench", t)
        elif t.kind is TokKind.IDENT:
            mod.items.append(self._parse_instance())
        else:
            raise ParseError("unexpected module item", t)

    def _parse_param_decl(self, mod: ModuleDecl) -> None:
        local = self.next().text == "localparam"
        # optional type-ish tokens we ignore
        while self.peek().text in ("integer", "int", "unsigned"):
            self.next()
        while True:
            name = self._expect_ident()
            self.expect("=")
            value = self.parse_expression()
            mod.params.append(ParamDecl(name=name, value=value, local=local))
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_port_decl(self, mod: ModuleDecl) -> None:
        direction = self.next().text
        kind = None
        if self.peek().text in ("wire", "reg", "logic"):
            kind = self.next().text
        signed = self.accept("signed")
        packed = self._parse_packed_dims()
        names = [self._expect_ident()]
        while self.accept(","):
            names.append(self._expect_ident())
        self.expect(";")
        decl = PortDecl(direction=direction, names=names, packed=packed,
                        kind=kind, signed=signed)
        mod.ports.append(decl)
        mod.items.append(decl)

    def _parse_net_decl(self, mod: ModuleDecl) -> None:
        kind = self.next().text
        signed = self.accept("signed")
        packed = self._parse_packed_dims()
        names: list[str] = []
        unpacked: dict[str, list[Range]] = {}
        while True:
            name = self._expect_ident()
            names.append(name)
            dims = self._parse_packed_dims()
            if dims:
                unpacked[name] = dims
            if self.accept("="):
                # net declaration assignment: wire x = expr;
                rhs = self.parse_expression()
                mod.items.append(
                    ContinuousAssign(lhs=Identifier(name), rhs=rhs))
            if not self.accept(","):
                break
        self.expect(";")
        mod.items.append(NetDecl(kind=kind, names=names, packed=packed,
                                 unpacked=unpacked, signed=signed))

    def _parse_continuous_assign(self, mod: ModuleDecl) -> None:
        self.expect("assign")
        while True:
            lhs = self._parse_lvalue()
            self.expect("=")
            rhs = self.parse_expression()
            mod.items.append(ContinuousAssign(lhs=lhs, rhs=rhs))
            if not self.accept(","):
                break
        self.expect(";")

    # -- always blocks ------------------------------------------------------------

    def _parse_always(self) -> AlwaysBlock:
        kind = self.next().text
        sens: list[SensItem] = []
        if self.accept("@"):
            if self.accept("("):
                if self.accept("*"):
                    sens.append(SensItem(edge="*", signal=""))
                else:
                    while True:
                        edge = ""
                        if self.peek().text in ("posedge", "negedge"):
                            edge = self.next().text
                        sig = self._expect_ident()
                        sens.append(SensItem(edge=edge, signal=sig))
                        if not (self.accept("or") or self.accept(",")):
                            break
                self.expect(")")
            elif self.accept("*"):
                sens.append(SensItem(edge="*", signal=""))
        body = self._parse_statement()
        return AlwaysBlock(kind=kind, sensitivity=sens, body=body)

    def _parse_statement(self) -> Stmt:
        t = self.peek()
        if t.text == "begin":
            self.next()
            label = None
            if self.accept(":"):
                label = self._expect_ident()
            stmts: list[Stmt] = []
            while not self.at("end"):
                stmts.append(self._parse_statement())
            self.expect("end")
            if self.accept(":"):
                self._expect_ident()  # trailing label
            return Block(stmts=stmts, label=label)
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then_body = self._parse_statement()
            else_body = None
            if self.accept("else"):
                else_body = self._parse_statement()
            return IfStmt(cond=cond, then_body=then_body, else_body=else_body)
        if t.text in ("case", "casez", "casex"):
            return self._parse_case()
        if t.text == ";":
            self.next()
            return NullStmt()
        # assignment: lvalue (= | <=) rhs ;   (LHS parsed as an lvalue so
        # that '<=' is the nonblocking operator, not a comparison)
        lhs = self._parse_lvalue()
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            raise ParseError("expected '=' or '<=' in statement", self.peek())
        rhs = self.parse_expression()
        self.expect(";")
        return AssignStmt(lhs=lhs, rhs=rhs, blocking=blocking)

    def _parse_lvalue(self) -> Expr:
        from ..sva.ast_nodes import Concat
        if self.accept("{"):
            parts = [self._parse_lvalue()]
            while self.accept(","):
                parts.append(self._parse_lvalue())
            self.expect("}")
            return Concat(tuple(parts))
        name = self._expect_ident()
        return self._parse_select_postfix(Identifier(name))

    def _parse_case(self) -> CaseStmt:
        kind = self.next().text
        self.expect("(")
        subject = self.parse_expression()
        self.expect(")")
        items: list[CaseItem] = []
        while not self.at("endcase"):
            if self.accept("default"):
                self.accept(":")
                items.append(CaseItem(labels=None, body=self._parse_statement()))
                continue
            labels = [self.parse_expression()]
            while self.accept(","):
                labels.append(self.parse_expression())
            self.expect(":")
            items.append(CaseItem(labels=labels, body=self._parse_statement()))
        self.expect("endcase")
        return CaseStmt(subject=subject, items=items, kind=kind)

    # -- generate ------------------------------------------------------------

    def _parse_generate_for(self) -> GenerateFor:
        self.expect("for")
        self.expect("(")
        if self.accept("genvar"):
            gv = self._expect_ident()
        else:
            gv = self._expect_ident()
        self.expect("=")
        start = self.parse_expression()
        self.expect(";")
        cond = self.parse_expression()
        self.expect(";")
        step = self._parse_genvar_step(gv)
        self.expect(")")
        items: list = []
        label = None
        if self.accept("begin"):
            if self.accept(":"):
                label = self._expect_ident()
            inner = ModuleDecl(name="<generate>")
            while not self.at("end"):
                self._parse_module_item(inner)
            self.expect("end")
            items = inner.items
        else:
            inner = ModuleDecl(name="<generate>")
            self._parse_module_item(inner)
            items = inner.items
        return GenerateFor(genvar=gv, start=start, cond=cond, step=step,
                           items=items, label=label)

    def _parse_genvar_step(self, gv: str) -> Expr:
        name = self._expect_ident()
        if name != gv:
            raise ParseError(f"generate step must update {gv!r}", self.peek())
        if self.accept("++"):
            return Number(value=1, text="1")
        if self.accept("+="):
            return self.parse_expression()
        self.expect("=")
        expr = self.parse_expression()
        # normalize i = i + k
        if (isinstance(expr, Binary) and expr.op == "+"
                and isinstance(expr.left, Identifier) and expr.left.name == gv):
            return expr.right
        raise ParseError("unsupported generate step form", self.peek())

    # -- instances / assertions ------------------------------------------------------------

    def _parse_instance(self) -> Instance:
        module = self._expect_ident()
        overrides: dict[str, Expr] = {}
        if self.accept("#"):
            self.expect("(")
            while True:
                self.expect(".")
                pname = self._expect_ident()
                self.expect("(")
                overrides[pname] = self.parse_expression()
                self.expect(")")
                if not self.accept(","):
                    break
            self.expect(")")
        name = self._expect_ident()
        self.expect("(")
        conns: dict[str, Expr] = {}
        if not self.at(")"):
            while True:
                self.expect(".")
                port = self._expect_ident()
                self.expect("(")
                conns[port] = self.parse_expression()
                self.expect(")")
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return Instance(module=module, name=name, param_overrides=overrides,
                        connections=conns)

    def _parse_assertion_item(self) -> AssertionItem:
        start = self.pos
        assertion = self._parse_inline_assertion()
        text = " ".join(tok.text for tok in self.toks[start:self.pos])
        return AssertionItem(assertion=assertion, source_text=text)

    def _parse_inline_assertion(self):
        """Like :meth:`parse_assertion` but without the trailing-EOF check."""
        label = None
        if self.peek().kind is TokKind.IDENT and self.peek(1).text == ":":
            label = self.next().text
            self.next()
        kind = self.next().text
        self.expect("property")
        self.expect("(")
        clocking = self._parse_optional_clocking()
        disable = self._parse_optional_disable()
        if clocking is None:
            clocking = self._parse_optional_clocking()
        prop = self.parse_property()
        self.expect(")")
        self.expect(";")
        from ..sva.ast_nodes import Assertion
        return Assertion(prop=prop, clocking=clocking, disable=disable,
                         label=label, kind=kind)


#: parsed sources by text; a generated DUT is about 25 KB of AST.  The
#: texts that pass through are the DUTs and testbenches in flight and the
#: one wire ``prove`` source per problem that learns its frame (the
#: problem's other samples bind onto its base, :func:`elaborate`), so
#: the memo is kept small
_SOURCES = LruMemo("rtl.parser", 16)


def parse_rtl(source: str) -> SourceFile:
    """Preprocess and parse an RTL source file (one or more modules).

    Memoised on the text: the returned :class:`SourceFile` is shared
    between callers and must be treated as read-only (elaboration and
    the Design2SVA merge only ever read it).  It records the
    :class:`~repro.rtl.ast_nodes.Frame` of every module whose body ends
    in a run of assertion items (:func:`_frames`).
    """
    return _SOURCES.get(source, lambda: _parse_rtl(source))


def _parse_rtl(source: str) -> SourceFile:
    text, defines = preprocess(source)
    parser = RtlParser(text)
    modules = parser.parse_source()
    return SourceFile(modules=modules, defines=defines,
                      frames=_frames(text, parser))


_NEWLINE = re.compile("\n")


def _frames(text: str, parser: RtlParser) -> dict[str, Frame]:
    """The frames of a parse of the preprocessed *text*: each module's
    trailing run of assertion items, cut out of the text at token
    boundaries.

    A frame is kept only where the cut is safe to re-use on another
    text: the prefix ends and the suffix starts with whitespace, so no
    token can straddle either cut, and no directive is left in the text
    (a text with a frame then means exactly its preprocessed form).
    Token positions are line/column pairs, exact across tokens that
    span lines too.
    """
    toks = parser.toks
    if not parser.runs or "`" in text:
        return {}
    starts = [0, *(m.end() for m in _NEWLINE.finditer(text))]

    def offset(tok) -> int:
        return starts[tok.line - 1] + tok.col - 1

    frames = {}
    for name, (first, last, length) in parser.runs.items():
        prefix = text[:offset(toks[first])]
        suffix = text[offset(toks[last]) + len(toks[last].text):]
        if prefix[-1:].isspace() and suffix[:1].isspace():
            frames[name] = Frame(prefix, suffix, length)
    return frames


class SpliceError(ValueError):
    """A snippet of module items (a Design2SVA response's support code,
    or an assertion text bound into a design) does not parse."""


#: parsed snippets by (code, parameters): about 3 KB of AST each, shared
#: read-only like every memoised AST (merges copy the item lists, never
#: the items).  1024 covers one model's 960 Design2SVA responses (2
#: categories x 96 designs x 5 samples).
_SNIPPETS = LruMemo("design2sva.snippet", 1024)

_MISSING = object()


def parse_snippet_items(code: str,
                        params: dict[str, int] | None = None) -> ModuleDecl:
    """Parse a snippet of module items (declarations, assigns,
    assertions) as the body of an anonymous module; raises
    :class:`SpliceError` on bad syntax (this is the Design2SVA syntax
    gate for support code).  Memoised: the module is shared and
    read-only.

    *params* resolve constant delay and repetition bounds such as
    ``##DEPTH``, and macro uses such as ```WIDTH`` (each parameter is an
    object-like macro of its value).  Parameters are read nowhere else,
    so a snippet that parses without them parses to the same items with
    them: an entry already memoised without them (the Design2SVA task
    parses every response so before the service binds it) is the
    answer.
    """
    if not params:
        return _SNIPPETS.get(code, lambda: _parse_snippet(code, None))
    shared = _SNIPPETS.lookup(code, _MISSING)
    if shared is not _MISSING:
        return shared
    return _SNIPPETS.get((code, tuple(sorted(params.items()))),
                         lambda: _parse_snippet(code, params))


def _parse_snippet(code: str, params: dict[str, int] | None) -> ModuleDecl:
    wrapped = f"module __snippet__ (); {code} endmodule"
    try:
        text, _ = preprocess(wrapped, {
            name: str(value) for name, value in (params or {}).items()})
        modules = RtlParser(text, params).parse_source()
    except ParseError as exc:
        raise SpliceError(str(exc)) from exc
    return modules["__snippet__"]
