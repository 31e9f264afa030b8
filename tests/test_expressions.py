import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmetric import ConfigurationError
from csmetric.expressions import compile_expression


@pytest.mark.parametrize("expr,t,expected", [
    ("2*t+1", 3.0, 7.0),
    ("2*sqrt(t)", 16.0, 8.0),
    ("exp(2*t)", 0.0, 1.0),
    ("t^2", 3.0, 9.0),
    ("(t+1)*2", 2.0, 6.0),
    ("t", 5.5, 5.5),
    ("3.5", 123.0, 3.5),
    ("1e2*t", 1.0, 100.0),
    ("exp(t)+sqrt(t)*2", 4.0, math.exp(4.0) + 4.0),
])
def test_eval(expr, t, expected):
    fn = compile_expression(expr)
    assert fn(t) == pytest.approx(expected, rel=1e-15)


def test_whitespace_ignored():
    assert compile_expression(" 2 * t + 1 ")(3.0) == 7.0


def test_exp_saturates_instead_of_overflowing():
    for expr, t in (("exp(t)", 1e6), ("t^400", 1e3)):
        assert compile_expression(expr)(t) == math.inf


@pytest.mark.parametrize("bad", [
    "", "   ", "t - 1", "2**t", "sqrt", "sqrt(", "q", "t +", "(t", "t)2",
    "-3", "2*", "exp 3", "t^t",
    # Names and literals the generated code must never contain.
    "__import__(1)", "t.real", "inf", "nan", "1e999", "t^inf", "sqrt(t)(t)", "t;1",
    pytest.param("(" * 250 + "t" + ")" * 250, id="deep-parens"),
    pytest.param("+".join(["t"] * 5000), id="long-sum"),
])
def test_rejects_malformed(bad):
    with pytest.raises(ConfigurationError):
        compile_expression(bad)


@given(st.floats(min_value=0.0, max_value=1e6))
def test_grammar_closed_over_nonnegatives(t):
    # No subtraction and no negative literals: images stay nonnegative.
    for expr in ("2*t+1", "2*sqrt(t)", "exp(2*t)", "t^3+0.25*t"):
        assert compile_expression(expr)(t) >= 0.0
