"""Unit tests for the SVA/SystemVerilog lexer."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.sva import lexer
from repro.sva.lexer import LexError, TokKind, strip_code_fences, tokenize


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)[:-1]]


class TestTokenKinds:
    def test_identifier(self):
        assert kinds("foo_bar") == [(TokKind.IDENT, "foo_bar")]

    def test_keyword(self):
        assert kinds("assert")[0][0] is TokKind.KEYWORD

    def test_sysfunc(self):
        assert kinds("$countones")[0][0] is TokKind.SYSFUNC

    def test_directive(self):
        assert kinds("`WIDTH")[0][0] is TokKind.DIRECTIVE

    def test_string(self):
        assert kinds('"hello"')[0][0] is TokKind.STRING

    def test_eof_terminates(self):
        toks = tokenize("a")
        assert toks[-1].kind is TokKind.EOF


class TestNumbers:
    @pytest.mark.parametrize("text", [
        "42", "2'b00", "'d0", "'b1", "128'hFF", "4'hf", "'1", "'0",
        "8'd255", "3'o7", "12'hA_B",
    ])
    def test_number_forms(self, text):
        toks = tokenize(text)
        assert toks[0].kind is TokKind.NUMBER
        assert len(toks) == 2  # number + EOF

    def test_sized_with_space(self):
        toks = tokenize("2 'b01")
        assert toks[0].kind is TokKind.NUMBER


class TestOperators:
    @pytest.mark.parametrize("op", [
        "##", "|->", "|=>", "===", "!==", "<<<", ">>>", "&&", "||",
        "==", "!=", "<=", ">=", "~&", "~|", "~^", "[*", "[->", "[=",
    ])
    def test_multichar_ops(self, op):
        toks = tokenize(op)
        assert toks[0].text == op
        assert toks[0].kind is TokKind.OP

    def test_maximal_munch(self):
        # '<<<' must not lex as '<<' '<'
        toks = tokenize("a <<< 2")
        assert toks[1].text == "<<<"

    def test_nonblocking_vs_le(self):
        toks = tokenize("a <= b")
        assert toks[1].text == "<="


class TestCommentsAndLines:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [
            (TokKind.IDENT, "a"), (TokKind.IDENT, "b")]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [
            (TokKind.IDENT, "a"), (TokKind.IDENT, "b")]

    def test_line_numbers_advance(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    @pytest.mark.parametrize("text", ["4\n'd3", "4 '\nd3", '"a\nb"'])
    def test_lines_after_a_token_that_spans_lines(self, text):
        toks = tokenize(f"assign x = {text};\nwire y;")
        tail = text.rsplit("\n", 1)[1]
        assert (toks[4].text, toks[4].line, toks[4].col) == (
            ";", 2, len(tail) + 1)
        assert [(t.text, t.line, t.col) for t in toks[5:7]] == [
            ("wire", 3, 1), ("y", 3, 6)]

    def test_column_tracking(self):
        toks = tokenize("  ab cd")
        assert toks[0].col == 3
        assert toks[1].col == 6


class TestErrors:
    def test_stray_backtick_like_char_rejected(self):
        with pytest.raises(LexError):
            tokenize("a \x01 b")

    def test_lexerror_has_position(self):
        try:
            tokenize("ok\n\x02")
        except LexError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected LexError")


class TestStripFences:
    def test_systemverilog_fence(self):
        text = "```systemverilog\nassert x;\n```"
        assert strip_code_fences(text) == "assert x;"

    def test_bare_fence(self):
        assert strip_code_fences("```\ncode\n```") == "code"

    def test_no_fence_passthrough(self):
        assert strip_code_fences("  plain  ") == "plain"

    def test_surrounding_prose_dropped(self):
        text = "Here is code:\n```sv\nfoo\n```\nThanks!"
        assert strip_code_fences(text) == "foo"


# -- differential: the master regex vs a brute-force longest-match lexer ------

_REFERENCE_GROUPS = [
    (None, re.compile(r"\s+")),
    (None, re.compile(r"//[^\n]*")),
    (None, re.compile(r"/\*.*?\*/", re.DOTALL)),
    (TokKind.NUMBER, re.compile(
        r"\d+\s*'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
        r"|'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
        r"|'[01xXzZ]"
        r"|\d[\d_]*(?:\.\d+)?")),
    (TokKind.STRING, re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)),
    (TokKind.SYSFUNC, re.compile(r"\$[a-zA-Z_][a-zA-Z0-9_]*")),
    (TokKind.DIRECTIVE, re.compile(r"`[a-zA-Z_][a-zA-Z0-9_]*")),
    (TokKind.IDENT, re.compile(r"[a-zA-Z_][a-zA-Z0-9_$]*")),
]


def reference_tokenize(source):
    """One token class at a time, operators by brute-force longest match
    over the lexer's own tables; returns the token tuples, or the
    ``LexError`` fields."""
    tokens, pos, line, line_start = [], 0, 1, 0
    while pos < len(source):
        col = pos - line_start + 1
        for kind, pattern in _REFERENCE_GROUPS:
            m = pattern.match(source, pos)
            if m:
                text = m.group()
                break
        else:
            fits = [op for op in lexer._OPERATORS + lexer._PUNCT
                    if source.startswith(op, pos)]
            if not fits:
                return ("error", f"unexpected character {source[pos]!r} "
                                 f"(line {line}, col {col})", line, col)
            text = max(fits, key=len)
            kind = TokKind.OP if text in lexer._OPERATORS else TokKind.PUNCT
        if kind is not None:
            if kind is TokKind.IDENT and text in lexer.KEYWORDS:
                kind = TokKind.KEYWORD
            tokens.append((kind, text, line, col))
        if "\n" in text:  # any lexeme that spans lines counts them
            line += text.count("\n")
            line_start = pos + text.rfind("\n") + 1
        pos += len(text)
    return tokens + [(TokKind.EOF, "", line, len(source) - line_start + 1)]


def lexed(source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    except LexError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _corpus():
    """Every kind of text the lexer sees: generated DUTs and testbenches,
    the Human testbenches and references, Machine references, and
    simulated responses (fenced, so backquotes and lex errors too)."""
    from repro.datasets.design2sva import arbiter_gen
    from repro.datasets.design2sva.sweep import build_benchmark
    from repro.datasets.nl2sva_human import corpus
    from repro.datasets.nl2sva_machine.critic import build_problems
    from repro.models.base import GenerationRequest, SimulatedModel
    model = SimulatedModel("gpt-4o")
    texts = [corpus.testbench_source(name)
             for name in corpus.testbench_names()]
    texts += [p.reference for p in corpus.problems()]
    for category in ("fsm", "pipeline", "arbiter"):
        for index, design in enumerate(build_benchmark(category, 3)):
            texts += [design.source, design.tb_source]
            if category == "arbiter":
                rng = random.Random(index)
                texts += [arbiter_gen.arbiter_correct_response(design, rng),
                          arbiter_gen.arbiter_flawed_response(design, rng)]
            else:
                texts += model.generate(GenerationRequest(
                    task="design2sva", problem=design, n_samples=3,
                    temperature=0.8))
    for problem in build_problems(24, 0):
        texts.append(problem.sva)
        texts += model.generate(GenerationRequest(
            task="nl2sva_machine", problem=problem, n_samples=2,
            temperature=0.8))
    return texts + [strip_code_fences(t) for t in texts]


class TestAgainstBruteForceReference:
    def test_whole_corpus(self):
        texts = _corpus()
        assert len(texts) > 300
        errors = 0
        for text in texts:
            got = lexed(text)
            assert got == reference_tokenize(text), text[:80]
            errors += got[0] == "error"
        # the corpus exercises the error path too (markdown fences)
        assert errors > 0

    def test_every_operator_and_punct_pair(self):
        # maximal munch across every adjacent pair of table entries
        marks = lexer._OPERATORS + lexer._PUNCT
        for a in marks:
            for b in marks:
                for text in (a + b, f"{a} {b}", f"x{a}{b}1"):
                    assert lexed(text) == reference_tokenize(text), text

    @settings(max_examples=300, deadline=None)
    @given(st.text(
        alphabet="ab_1 9'hx\"\\\n\t$`#@<>=!|&-+*/~^?:.[](){},;%\x01",
        max_size=40))
    def test_random_strings(self, text):
        assert lexed(text) == reference_tokenize(text)

    def test_error_position_after_multiline_comment(self):
        got = lexed("a /* x\ny */ b\n  \x01")
        assert got == ("error",
                       "unexpected character '\\x01' (line 3, col 3)", 3, 3)
        assert got == reference_tokenize("a /* x\ny */ b\n  \x01")

    def test_token_repr_is_the_parse_error_detail(self):
        # golden-pinned ParseError details embed this form
        assert repr(tokenize("a <= 4'hf")[1]) == "op:'<='@1:3"
