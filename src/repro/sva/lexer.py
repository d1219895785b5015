"""Tokenizer for the SystemVerilog subset used throughout the repo.

The same token stream feeds both the SVA property parser (``repro.sva.parser``)
and the RTL module parser (``repro.rtl.parser``).  The lexer is deliberately
strict: anything outside the supported token set raises :class:`LexError`,
which the syntax checker reports as a syntax failure -- mirroring how a formal
tool front end rejects malformed input.
"""

from __future__ import annotations

import re
from enum import Enum


class LexError(ValueError):
    """Raised when the input contains a character sequence that is not a token."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class TokKind(Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYSFUNC = "sysfunc"  # $countones, $past, ...
    OP = "op"
    PUNCT = "punct"
    KEYWORD = "keyword"
    DIRECTIVE = "directive"  # `define, `WIDTH ...
    EOF = "eof"


#: Keywords recognized by the parsers.  Everything else is an identifier.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg logic integer genvar parameter
    localparam assign always always_ff always_comb always_latch initial begin
    end if else case casez casex endcase default for generate endgenerate
    posedge negedge or and not assert assume cover property endproperty
    sequence endsequence disable iff within throughout intersect first_match
    strong weak s_eventually eventually s_until until s_until_with until_with
    nexttime s_nexttime s_always let function endfunction return signed
    unsigned
    """.split()
)

# Operators, longest first: regex alternation takes the first alternative
# that matches, so this order is what makes maximal munch work.
_OPERATORS = [
    "<<<", ">>>", "===", "!==", "##", "|->", "|=>", "->", "<->",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**", "~&", "~|",
    "~^", "^~", "++", "--", "+=", "-=", "[*", "[=", "[->",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "?",
]

_PUNCT = ["(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "@", "#", "$", "="]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<number>
        (?:\d+\s*'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+)   # sized based
      | (?:'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+)         # unsized based
      | (?:'[01xXzZ])                                        # fill literal '0 '1
      | (?:\d[\d_]*(?:\.\d+)?)                               # plain decimal
    )
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<sysfunc>\$[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<directive>`[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_$]*)
  | (?P<op>%s)
  | (?P<punct>%s)
    """ % ("|".join(map(re.escape, _OPERATORS)),
           "|".join(map(re.escape, _PUNCT))),
    re.VERBOSE | re.DOTALL,
)

#: regex group -> token kind (an ``ident`` in :data:`KEYWORDS` becomes a
#: keyword).  The groups not listed -- whitespace and comments -- produce
#: no token.  They advance the line count, and so do the two token kinds
#: whose text may span lines (a based number's ``\s*`` gaps, a string).
_KIND_OF_GROUP = {
    "ident": TokKind.IDENT,
    "number": TokKind.NUMBER,
    "string": TokKind.STRING,
    "sysfunc": TokKind.SYSFUNC,
    "directive": TokKind.DIRECTIVE,
    "op": TokKind.OP,
    "punct": TokKind.PUNCT,
}


class Token:
    """One lexeme with its 1-based source position."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: TokKind, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __eq__(self, other) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == (
            other.kind, other.text, other.line, other.col)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col))

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.col}"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list ending with an EOF token.

    Raises
    ------
    LexError
        If an unrecognized character sequence is encountered (e.g. a stray
        backquote or an unterminated string) -- these are syntax errors.
    """
    tokens: list[Token] = []
    append = tokens.append
    kind_of = _KIND_OF_GROUP.get
    ident, keyword = TokKind.IDENT, TokKind.KEYWORD
    number, string = TokKind.NUMBER, TokKind.STRING
    pos = 0
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if start != pos:
            break  # finditer skipped something no alternative matches
        pos = m.end()
        text = m.group()
        kind = kind_of(m.lastgroup)
        if kind is None:
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = start + text.rfind("\n") + 1
            continue
        if kind is ident and text in KEYWORDS:
            kind = keyword
        append(Token(kind, text, line, start - line_start + 1))
        if (kind is number or kind is string) and "\n" in text:
            line += text.count("\n")
            line_start = start + text.rfind("\n") + 1
    n = len(source)
    if pos < n:
        raise LexError(f"unexpected character {source[pos]!r}", line,
                       pos - line_start + 1)
    tokens.append(Token(TokKind.EOF, "", line, n - line_start + 1))
    return tokens


def strip_code_fences(text: str) -> str:
    """Remove markdown code fences from an LLM response.

    Models are instructed to wrap SVA output in ```systemverilog fences; the
    evaluation flow strips them before parsing, as the paper's flow does.
    """
    fence = re.compile(r"```(?:systemverilog|verilog|sv)?\s*\n?(.*?)```", re.DOTALL)
    m = fence.search(text)
    if m:
        return m.group(1).strip()
    return text.strip()
