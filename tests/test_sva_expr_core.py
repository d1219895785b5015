"""Differential net for the expression core.

:meth:`~repro.sva.parser.Parser._parse_binary` parses the binary operators
of LRM Table 11-2 with one binding-power loop.  :class:`OracleCore` below
is the recursive descent it replaces -- one method per precedence level,
each through ``_binary_level`` -- kept here, and only here, as the
oracle, together with the token helpers, primaries and selects as they
were before they indexed the token list directly.

Both parse the same token streams, for SVA (:class:`~repro.sva.parser.
Parser`) and RTL (:class:`~repro.rtl.parser.RtlParser`), and must agree
exactly: the same AST, or the same :class:`~repro.sva.parser.ParseError`
text and token, and the same stream position afterwards.  Inputs:

* hypothesis-drawn *unparenthesized* expressions -- operator chains over
  every Table 11-2 operator, unary operators, ``? :``, ``**`` chains,
  selects, concatenation, replication, system calls -- inside assertions
  with constant delay and repetition bounds, and the same streams with
  some tokens relabelled to another kind (the loop's ``OP`` check);
* the NL2SVA-Human corpus (references, model responses, testbenches),
  NL2SVA-Machine problems and their responses, and every generated
  Design2SVA design and testbench;
* every token prefix of a sample of those texts (the error path).

A failing case is written, shrunk, to
``tests/regress/expr_core_last_failure.json``; every
``tests/regress/expr_core_*.json`` is replayed by
:func:`test_saved_regressions`.  Rename a file to keep it.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.design2sva import build_benchmark
from repro.datasets.nl2sva_human import corpus
from repro.datasets.nl2sva_machine.critic import build_problems
from repro.datasets.nl2sva_machine.generator import SIGNAL_WIDTHS
from repro.models.base import GenerationRequest, SimulatedModel
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import RtlParser, preprocess
from repro.sva.ast_nodes import (
    Binary, Expr, Identifier, Index, Number, RangeSelect, Ternary, Unary,
)
from repro.sva.lexer import (
    LexError, TokKind, Token, strip_code_fences, tokenize,
)
from repro.sva.parser import ParseError, Parser, parse_number

REGRESS = Path(__file__).parent / "regress"
LAST_FAILURE = REGRESS / "expr_core_last_failure.json"


class OracleCore:
    """The recursive-descent expression layer, eleven binary levels deep."""

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not TokKind.EOF:
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}", t)
        return self.next()

    def _parse_const_int(self) -> int:
        expr = self._parse_shift()
        value = self._const_eval(expr)
        if value is None:
            raise ParseError("expected a compile-time constant", self.peek())
        if value < 0:
            raise ParseError("negative bound", self.peek())
        return value

    def parse_expression(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_logical_or()
        if self.accept("?"):
            if_true = self._parse_ternary()
            self.expect(":")
            if_false = self._parse_ternary()
            return Ternary(cond=cond, if_true=if_true, if_false=if_false)
        return cond

    def _binary_level(self, ops: tuple[str, ...], sub) -> Expr:
        left = sub()
        while self.peek().text in ops and self.peek().kind is TokKind.OP:
            op = self.next().text
            right = sub()
            left = Binary(op=op, left=left, right=right)
        return left

    def _parse_logical_or(self) -> Expr:
        return self._binary_level(("||",), self._parse_logical_and)

    def _parse_logical_and(self) -> Expr:
        return self._binary_level(("&&",), self._parse_bitor)

    def _parse_bitor(self) -> Expr:
        return self._binary_level(("|",), self._parse_bitxor)

    def _parse_bitxor(self) -> Expr:
        return self._binary_level(("^", "^~", "~^"), self._parse_bitand)

    def _parse_bitand(self) -> Expr:
        return self._binary_level(("&",), self._parse_equality)

    def _parse_equality(self) -> Expr:
        return self._binary_level(("==", "!=", "===", "!=="),
                                  self._parse_relational)

    def _parse_relational(self) -> Expr:
        return self._binary_level(("<", "<=", ">", ">="), self._parse_shift)

    def _parse_shift(self) -> Expr:
        return self._binary_level(("<<", ">>", "<<<", ">>>"),
                                  self._parse_additive)

    def _parse_additive(self) -> Expr:
        return self._binary_level(("+", "-"), self._parse_multiplicative)

    def _parse_multiplicative(self) -> Expr:
        return self._binary_level(("*", "/", "%"), self._parse_power)

    def _parse_power(self) -> Expr:
        left = self._parse_unary()
        if self.at("**"):
            self.next()
            right = self._parse_power()
            return Binary(op="**", left=left, right=right)
        return left

    _UNARY_OPS = ("!", "~", "&", "|", "^", "~&", "~|", "~^", "^~", "+", "-")

    def _parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind is TokKind.OP and t.text in self._UNARY_OPS:
            self.next()
            return Unary(op=t.text, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind is TokKind.NUMBER:
            self.next()
            return parse_number(t.text, t)
        if t.kind is TokKind.SYSFUNC:
            return self._parse_syscall()
        if t.kind is TokKind.DIRECTIVE:
            self.next()
            name = t.text[1:]
            if name in self.params:
                return Number(value=self.params[name], text=t.text)
            return Identifier(name=t.text)
        if t.text == "(":
            self.next()
            inner = self.parse_expression()
            self.expect(")")
            return self._parse_select_postfix(inner)
        if t.text == "{":
            return self._parse_concat()
        if t.kind is TokKind.IDENT:
            self.next()
            return self._parse_select_postfix(Identifier(name=t.text))
        if t.kind is TokKind.KEYWORD:
            raise ParseError(f"keyword {t.text!r} not valid in expression", t)
        raise ParseError("expected expression", t)

    def _parse_select_postfix(self, base: Expr) -> Expr:
        while True:
            if self.at("["):
                self.next()
                msb = self.parse_expression()
                if self.accept(":"):
                    lsb = self.parse_expression()
                    self.expect("]")
                    base = RangeSelect(base=base, msb=msb, lsb=lsb)
                else:
                    self.expect("]")
                    base = Index(base=base, index=msb)
            elif self.at(".") and isinstance(base, Identifier):
                self.next()
                field_tok = self.peek()
                if field_tok.kind is not TokKind.IDENT:
                    raise ParseError("expected field name", field_tok)
                self.next()
                base = Identifier(name=f"{base.name}.{field_tok.text}")
            else:
                return base


class OracleSva(OracleCore, Parser):
    pass


class OracleRtl(OracleCore, RtlParser):
    pass


#: start rule -> (parser under test, oracle, entry point)
STARTS = {
    "assertion": (Parser, OracleSva, lambda p: p.parse_assertion()),
    "expression": (Parser, OracleSva,
                   lambda p: (p.parse_expression(), p.at_end())),
    "source": (RtlParser, OracleRtl, lambda p: p.parse_source()),
}


def _on_tokens(cls, toks: list[Token], params: dict):
    parser = cls.__new__(cls)
    parser.toks, parser.pos, parser.params = toks, 0, dict(params)
    return parser


def _outcome(cls, entry, toks: list[Token], params: dict) -> tuple:
    parser = _on_tokens(cls, toks, params)
    try:
        result = entry(parser)
    except ParseError as exc:
        return "error", str(exc), exc.token, parser.pos
    return "ok", result, parser.pos


def tokens_of(case: dict) -> list[Token] | None:
    """The token stream of *case*: its text lexed (after ``define``
    substitution for a source), cut to ``prefix`` tokens plus EOF, with
    the ``relabel`` pairs' tokens given another kind."""
    text = case["text"]
    try:
        if case["start"] == "source":
            text = preprocess(text)[0]
        toks = tokenize(text)
    except (LexError, ParseError):
        return None  # both parsers share the lexer and preprocessor
    if case.get("prefix") is not None:
        toks = toks[:case["prefix"]] + toks[-1:]
    for index, kind in case.get("relabel", ()):
        i = _relabelled(toks, index)
        t = toks[i]
        toks[i] = Token(TokKind(kind), t.text, t.line, t.col)
    return toks


def _relabelled(toks: list[Token], index: int) -> int:
    """The token a relabel index names: any but the closing EOF."""
    return index % (len(toks) - 1)


def run_case(case: dict) -> str | None:
    """Parse *case* with the loop and with the oracle; raises
    AssertionError on any difference.  Returns the outcome kind."""
    toks = tokens_of(case)
    if toks is None:
        return None
    cls, oracle, entry = STARTS[case["start"]]
    params = case.get("params", {})
    got = _outcome(cls, entry, toks, params)
    want = _outcome(oracle, entry, toks, params)
    assert got == want, (case, got, want)
    return got[0]


def check(case: dict) -> str | None:
    try:
        return run_case(case)
    except AssertionError:
        REGRESS.mkdir(exist_ok=True)
        LAST_FAILURE.write_text(json.dumps(case, indent=1) + "\n")
        raise


# -- generators ----------------------------------------------------------------

#: LRM Table 11-2's binary operators, tightest first
BINARY_OPS = ["**", "*", "/", "%", "+", "-", "<<", ">>", "<<<", ">>>",
              "<", "<=", ">", ">=", "==", "!=", "===", "!==", "&",
              "^", "^~", "~^", "|", "&&", "||"]
UNARY_OPS = ["!", "~", "&", "|", "^", "~&", "~|", "~^", "^~", "+", "-"]
IDENTS = ["a", "b", "sig_A", "data", "count", "N"]
NUMBERS = ["0", "1", "7", "20", "2'b01", "'d3", "4'hf", "'1", "8'd255"]
SYSCALLS = ["$past", "$countones", "$onehot0", "$rose", "$stable"]
PARAMS = {"N": 3, "DEPTH": 4, "W": 8}

_leaf = st.sampled_from(IDENTS + NUMBERS)
#: ``**`` drawn as often as all other operators together, for its chains
_binop = st.one_of(st.sampled_from(BINARY_OPS), st.just("**"))
_unary = st.lists(st.sampled_from(UNARY_OPS), max_size=2)


def _operands(sub: st.SearchStrategy[str] | None) -> st.SearchStrategy[str]:
    """A primary -- selected, concatenated, replicated or a system call
    when *sub* (the expressions inside it) is given -- behind zero to two
    unary operators."""
    base = _leaf
    if sub is not None:
        base = st.one_of(
            _leaf, _leaf, _leaf, _leaf,
            st.tuples(st.sampled_from(IDENTS), sub)
            .map(lambda t: f"{t[0]}[{t[1]}]"),
            st.tuples(st.sampled_from(IDENTS), sub, sub)
            .map(lambda t: f"{t[0]}[{t[1]}:{t[2]}]"),
            st.lists(sub, min_size=1, max_size=2)
            .map(lambda parts: "{" + ", ".join(parts) + "}"),
            st.tuples(sub, st.lists(sub, min_size=1, max_size=2))
            .map(lambda t: "{" + t[0] + " {" + ", ".join(t[1]) + "}}"),
            st.tuples(st.sampled_from(SYSCALLS), st.lists(sub, max_size=2))
            .map(lambda t: f"{t[0]}({', '.join(t[1])})"),
            st.sampled_from(SYSCALLS),
            sub.map(lambda s: f"({s})"))
    # spaced, so that '| |x' does not lex as '||x'
    return st.tuples(_unary, base).map(lambda t: " ".join([*t[0], t[1]]))


def _expressions(sub: st.SearchStrategy[str] | None) -> st.SearchStrategy[str]:
    """An unparenthesized operator chain; with *sub*, sometimes the
    condition of a (right-associative) conditional."""
    operand = _operands(sub)
    chain = st.tuples(operand, st.lists(st.tuples(_binop, operand),
                                        max_size=4)).map(
        lambda t: " ".join([t[0], *(f"{op} {x}" for op, x in t[1])]))
    if sub is None:
        return chain
    return st.one_of(chain, chain, chain, st.tuples(chain, sub, sub).map(
        lambda t: f"{t[0]} ? {t[1]} : {t[2]}"))


#: depth 0 (leaves only), 1 and 2 of nesting inside selects, concatenations,
#: calls, parentheses and conditionals
_DEPTHS = [_expressions(None)]
for _ in range(2):
    _DEPTHS.append(_expressions(_DEPTHS[-1]))
expressions = _DEPTHS[-1]

#: a delay or repetition bound: a chain over constants and parameters
#: (``Q`` is not one), sometimes negated or parenthesized
_bound_leaf = st.sampled_from(["0", "1", "2", "3", "N", "DEPTH", "W", "Q"])
_bound_op = st.sampled_from(["+", "-", "*", "/", "%", "<<", ">>", "**", "<"])
bounds = st.tuples(
    st.sampled_from(["", "- "]), _bound_leaf,
    st.lists(st.tuples(_bound_op, _bound_leaf), max_size=2),
    st.booleans(),
).map(lambda t: (lambda text: f"({text})" if t[3] else text)(
    t[0] + " ".join([t[1], *(f"{op} {x}" for op, x in t[2])])))

_side = _DEPTHS[1]
_repetition = st.tuples(
    st.sampled_from(["[*", "[=", "[->"]), bounds,
    st.one_of(st.just(""), bounds.map(lambda b: f":{b}"), st.just(":$")),
).map(lambda t: f"{t[0]}{t[1]}{t[2]}]")
sequences = st.one_of(
    _side,
    st.tuples(_side, bounds, _side).map(lambda t: f"{t[0]} ##{t[1]} {t[2]}"),
    st.tuples(_side, bounds, st.one_of(bounds, st.just("$")), _side)
    .map(lambda t: f"{t[0]} ##[{t[1]}:{t[2]}] {t[3]}"),
    st.tuples(_side, _repetition, _side)
    .map(lambda t: f"{t[0]} {t[1]} ##1 {t[2]}"),
    st.tuples(_side, st.sampled_from(["|->", "|=>"]), _side)
    .map(lambda t: " ".join(t)),
)
assertions = sequences.map(
    lambda s: f"assert property (@(posedge clk) {s});")


# -- the net over generated inputs ---------------------------------------------


@given(expressions)
@settings(max_examples=200, deadline=None)
def test_generated_expressions_match_oracle(text):
    assert check({"start": "expression", "text": text,
                  "params": PARAMS}) == "ok"


@given(assertions)
@settings(max_examples=200, deadline=None)
def test_generated_assertions_match_oracle(text):
    check({"start": "assertion", "text": text, "params": PARAMS})


#: what a token may be relabelled to: a NUMBER must spell a number
_KINDS = [k.value for k in TokKind
          if k not in (TokKind.EOF, TokKind.NUMBER)]


@given(_DEPTHS[1], st.lists(st.tuples(st.integers(0, 200),
                                         st.sampled_from(_KINDS)),
                               min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_relabelled_tokens_match_oracle(text, relabel):
    """An operator's text on a token of another kind is no operator (the
    loop's ``OP`` check).  The lexer never makes such a token, so ``**``
    is left alone: the oracle's ``_parse_power`` never checked its kind."""
    toks = tokenize(text)
    relabel = [(i, kind) for i, kind in relabel
               if toks[_relabelled(toks, i)].text != "**"]
    check({"start": "expression", "text": text, "params": PARAMS,
           "relabel": relabel})


def test_generated_streams_reach_errors_and_every_operator():
    """The net is only as strong as its inputs: over a fixed sample the
    generators produce failures as well as trees, and the trees hold
    every binary operator, unary chains, conditionals, selects,
    concatenations, replications and system calls."""
    outcomes, ops, shapes = [], set(), set()
    for text in _fixed_sample(assertions, 100):
        outcomes.append(check({"start": "assertion", "text": text,
                               "params": PARAMS}))
    for text in _fixed_sample(expressions, 100):
        parser = Parser(text, PARAMS)
        for node in parser.parse_expression().walk():
            if isinstance(node, Binary):
                ops.add(node.op)
            shapes.add(type(node).__name__)
            if isinstance(node, Unary) and isinstance(node.operand, Unary):
                shapes.add("unary chain")
    assert "ok" in outcomes and "error" in outcomes
    assert ops == set(BINARY_OPS)
    assert {"Ternary", "unary chain", "Replication", "Concat",
            "SystemCall", "RangeSelect", "Index"} <= shapes


def _fixed_sample(strategy, count: int) -> list[str]:
    """*count* draws of *strategy*, the same on every run."""
    out = []

    @given(strategy)
    @settings(max_examples=count, deadline=None, database=None,
              derandomize=True)
    def collect(value):
        out.append(value)

    collect()
    return out


# -- the net over the benchmark corpora ----------------------------------------


def _human_cases() -> list[dict]:
    model = SimulatedModel("gpt-4o")
    problems = corpus.problems()
    cases = [{"start": "source", "text": corpus.testbench_source(name)}
             for name in corpus.testbench_names()]
    for index, problem in enumerate(problems):
        design = elaborate(corpus.testbench_source(problem.testbench))
        params = dict(design.params)
        responses = model.generate(GenerationRequest(
            task="nl2sva_human", problem=problem, n_samples=5,
            temperature=0.8, widths=dict(design.widths), params=params,
            quantile=(index + 0.5) / len(problems)))
        for text in [problem.reference, *responses]:
            cases.append({"start": "assertion", "params": params,
                          "text": strip_code_fences(text)})
    return cases


def _machine_cases() -> list[dict]:
    model = SimulatedModel("gpt-4o")
    problems = build_problems(100, 0)
    cases = []
    for index, problem in enumerate(problems):
        responses = model.generate(GenerationRequest(
            task="nl2sva_machine", problem=problem, n_samples=5,
            temperature=0.8, widths=dict(SIGNAL_WIDTHS),
            quantile=(index + 0.5) / len(problems)))
        for text in [problem.sva, *responses]:
            cases.append({"start": "assertion",
                          "text": strip_code_fences(text)})
    return cases


def _design_cases() -> list[dict]:
    cases = []
    for category in ("fsm", "pipeline", "arbiter"):
        for design in build_benchmark(category, 96, 0):
            cases.append({"start": "source", "text": design.source})
            cases.append({"start": "source", "text": design.tb_source})
    return cases


CORPORA = {"human": _human_cases, "machine": _machine_cases,
           "design2sva": _design_cases}


@pytest.fixture(scope="module")
def corpora() -> dict[str, list[dict]]:
    return {name: build() for name, build in CORPORA.items()}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_matches_oracle(corpora, name):
    outcomes = [check(case) for case in corpora[name]]
    assert outcomes.count("ok") > len(outcomes) // 2


def test_every_prefix_matches_oracle(corpora):
    """Every token prefix of a sample -- one SVA text in eight, and the
    three smallest corpus testbenches -- runs the error path: nearly
    every cut ends in EOF where the grammar expects more."""
    sva = [case for name in ("human", "machine")
           for case in corpora[name][::8] if case["start"] == "assertion"]
    benches = sorted(corpora["human"][:len(corpus.testbench_names())],
                     key=lambda case: len(case["text"]))[:3]
    errors = 0
    for case in [*sva, *benches]:
        toks = tokens_of(case)
        if toks is None:
            continue
        for cut in range(len(toks) - 1):
            errors += check({**case, "prefix": cut}) == "error"
    assert errors > 1000


@pytest.mark.parametrize(
    "path", sorted(REGRESS.glob("expr_core_*.json")), ids=lambda p: p.stem)
def test_saved_regressions(path):
    case = json.loads(path.read_text())
    case.pop("comment", None)
    run_case(case)
