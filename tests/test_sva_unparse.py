"""Round-trip tests: parse -> unparse -> parse yields the same tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sva.parser import parse_assertion, parse_expression
from repro.sva.unparse import unparse
from test_sva_expr_core import expressions as unparenthesized

ROUND_TRIP_CASES = [
    "assert property (@(posedge clk) a |-> b);",
    "asrt: assert property (@(posedge clk) disable iff (tb_reset) "
    "wr_push |-> strong(##[0:$] rd_pop));",
    "assert property (@(posedge clk) (sig_G && sig_J) |-> ##2 "
    "((^sig_G === 1'b1) && &sig_B));",
    "assert property (@(posedge clk) !$onehot0({hold, busy, cont_gnt}) "
    "!== 1'b1);",
    "assert property (@(posedge clk) a[*2:4] |-> b until c);",
    "assert property (@(posedge clk) $past(x, 2) == y[3:1]);",
    "assert property (@(posedge clk) {2{a}} == {b, c});",
    "assert property (@(posedge clk) a ? b : c);",
    "assert property (@(posedge clk) s_eventually (a && b));",
    "assert property (@(posedge clk) first_match(a ##[1:3] b) |-> c);",
    "assert property (@(posedge clk) nexttime [2] (a));",
    "assert property (@(posedge clk) not (a |=> b));",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip_fixed_cases(text):
    a1 = parse_assertion(text)
    a2 = parse_assertion(unparse(a1))
    assert unparse(a1) == unparse(a2)


# -- property-based round trip over generated expressions --------------------

_ident = st.sampled_from(["a", "b", "sig_A", "data", "count"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            _ident.map(lambda n: n),
            st.integers(0, 20).map(str),
            st.sampled_from(["2'b01", "'d3", "4'hf"]),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from(["&&", "||", "+", "-", "^", "==",
                                   "!=", "<", ">="]), sub, sub)
        .map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(st.sampled_from(["!", "~", "&", "|", "^"]), sub)
        .map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(sub, sub).map(lambda t: "{" + f"{t[0]}, {t[1]}" + "}"),
    )


@given(_exprs(3), unparenthesized)
@settings(max_examples=150, deadline=None)
def test_expression_round_trip(text, flat):
    """Fully parenthesized inputs, and the expression-core net's
    unparenthesized chains (where precedence and associativity decide
    the tree that unparse must reproduce)."""
    for source in (text, flat):
        e1 = parse_expression(source)
        text2 = unparse(e1)
        e2 = parse_expression(text2)
        assert e2 == e1
        assert unparse(e2) == text2
