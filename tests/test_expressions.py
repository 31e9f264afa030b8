import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmetric import ConfigurationError
from csmetric import expressions
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
    ("1e-3*t", 2.0, 0.002),
    ("2.5e+1", 0.0, 25.0),
    (".5", 0.0, 0.5),
    ("3.", 0.0, 3.0),
    ("007*t", 2.0, 14.0),
    ("(t^2)^3", 2.0, 64.0),
    ("\t2\n*\tt +\n1 ", 3.0, 7.0),
])
def test_eval(expr, t, expected):
    fn = compile_expression(expr)
    assert fn(t) == pytest.approx(expected, rel=1e-15)


def test_whitespace_ignored():
    assert compile_expression(" 2 * t + 1 ")(3.0) == 7.0


def test_exp_saturates_instead_of_overflowing():
    for expr, t in (("exp(t)", 1e6), ("t^400", 1e3)):
        assert compile_expression(expr)(t) == math.inf


def _exp_by_overflow(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _neighbours(x, steps=64):
    below = above = x
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        yield below
        yield above


def test_safe_exp_matches_the_overflow_form():
    # 709.782712893384 is about log(DBL_MAX), where exp starts to overflow.
    rng = random.Random(20)
    values = [709.782712893384, 710.0, *_neighbours(709.782712893384), *_neighbours(710.0),
              math.inf, -math.inf, math.nan, -0.0, 5e-324, 10 ** 400,
              *(rng.uniform(-800.0, 800.0) for _ in range(10 ** 5))]
    for x in values:
        got, want = expressions._safe_exp(x), _exp_by_overflow(x)
        assert (type(got), repr(got)) == (type(want), repr(want)), x


@pytest.mark.parametrize("bad", [
    "", "   ", "t - 1", "2**t", "sqrt", "sqrt(", "q", "t +", "(t", "t)2",
    "-3", "2*", "exp 3", "t^t",
    # Names and literals the generated code must never contain.
    "__import__(1)", "t.real", "inf", "nan", "1e999", "t^inf", "sqrt(t)(t)", "t;1",
    # Literal forms and operators outside the grammar that Python would read.
    "0x10", "1_0", "t^(2)", "t**2", "2 (t)", "()", "t^2^3", "sqrt(t, t)", "t if t else t",
    "+t", "sqrt(*t)", "t(t)", "(sqrt)(t)", "((exp))(t)",
    pytest.param("1" * 400, id="400-digit-literal"),
    pytest.param("(" * 250 + "t" + ")" * 250, id="deep-parens"),
    pytest.param("+".join(["t"] * 5000), id="long-sum"),
])
def test_rejects_malformed(bad):
    with pytest.raises(ConfigurationError) as exc:
        compile_expression(bad)
    if bad.strip():  # the message names the expression, or its first 40 characters
        assert repr(bad[:40])[:-1] in str(exc.value)


@pytest.mark.parametrize("expr,value", [
    pytest.param("+".join(["t"] * 200), 200.0, id="200-term-sum"),
    pytest.param("+".join(["t"] * 450), 450.0, id="450-term-sum"),
    pytest.param("*".join(["2*t"] * 100), 2.0 ** 100, id="200-term-product"),
    pytest.param("(" * 100 + "t" + ")^1" * 100, 1.0, id="100-nested-powers"),
    pytest.param("sqrt(" * 50 + "exp(" * 50 + "t" + ")" * 100, math.inf, id="100-nested-calls"),
])
def test_large_expressions_compile(expr, value):
    assert compile_expression(expr)(1.0) == value


@pytest.mark.parametrize("bad", ["t" + " " * 200_000 + "~", "t^" + "\t" * 200_000 + "t",
                                 "0" * 200_000 + "x", "." * 200_000])
def test_long_rejections_take_linear_time(bad):
    start = time.perf_counter()
    with pytest.raises(ConfigurationError):
        compile_expression(bad)
    assert time.perf_counter() - start < 2.0  # a quadratic scan takes minutes


@given(st.floats(min_value=0.0, max_value=1e6))
def test_grammar_closed_over_nonnegatives(t):
    # No subtraction and no negative literals: images stay nonnegative.
    for expr in ("2*t+1", "2*sqrt(t)", "exp(2*t)", "t^3+0.25*t"):
        assert compile_expression(expr)(t) >= 0.0


# The grammar's characters and tokens, and near misses Python's parser would read.
ALPHABET = st.sampled_from(list("t()+*^0123456789.eE \t\n") + [
    "sqrt(", "exp(", "sqrt", "exp", "**", "^(", "-", "_", "0x", ",", "j", "/", "1e999",
    "1" * 400, "inf", "lambda", "if"])


@given(st.lists(ALPHABET, max_size=12).map("".join))
def test_any_text_compiles_or_is_a_configuration_error(text):
    try:
        fn = compile_expression(text)
    except ConfigurationError:
        return
    assert isinstance(fn(0.5), float)


LITERALS = st.one_of(
    st.sampled_from(["0", "2", "007", ".5", "3.", "2.5e+1", "1e-3", "1E2", "0.25"]),
    st.floats(min_value=0.0, max_value=1e300).map(repr))
LEAVES = st.one_of(st.just(("t", "t")), LITERALS.map(lambda x: (x, repr(float(x)))))


def _combine(parts):
    # Each composite is parenthesized in the text, so the grammar parses it
    # exactly as the reference source groups it.
    return st.one_of(
        st.tuples(parts, parts).map(lambda ab: (f"({ab[0][0]})+({ab[1][0]})",
                                                f"({ab[0][1]}) + ({ab[1][1]})")),
        st.tuples(parts, parts).map(lambda ab: (f"({ab[0][0]}) * ({ab[1][0]})",
                                                f"({ab[0][1]}) * ({ab[1][1]})")),
        st.tuples(st.sampled_from(["sqrt", "exp"]), parts).map(
            lambda fa: (f"{fa[0]}({fa[1][0]})", f"{fa[0]}({fa[1][1]})")),
        st.tuples(parts, LITERALS).map(lambda ap: (f"({ap[0][0]})^{ap[1]}",
                                                   f"pow({ap[0][1]}, {float(ap[1])!r})")))


@given(st.recursive(LEAVES, _combine, max_leaves=12),
       st.one_of(st.sampled_from([0.0, 0.25, 1.0, 7.5, 1e3, 700.0, 1e308, 1e-300]),
                 st.floats(min_value=0.0, allow_infinity=False)))
def test_compiles_to_the_reference_source(pair, t):
    text, source = pair
    reference = eval(f"lambda t: {source}", expressions._NAMESPACE)
    got, want = compile_expression(text)(t), reference(t)
    assert (type(got), repr(got)) == (type(want), repr(want))
