"""A tiny closed-form expression grammar for composing functions.

Grammar (whitespace ignored)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := atom ('^' number)?
    atom   := number | 't' | 'sqrt' '(' expr ')' | 'exp' '(' expr ')' | '(' expr ')'

Only nonnegative numeric literals are allowed, so every expression maps
[0, inf) into [0, inf) by construction.  An expression compiles to one
Python function whose source is generated by the parser and which can
reach no name but ``sqrt``, ``exp`` and ``pow``.  ``exp`` and ``^``
saturate to ``math.inf`` instead of overflowing so that inequality checks
involving huge right-hand sides stay well defined.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConfigurationError

__all__ = ["compile_expression"]

_TOKEN_CHARS = set("+*^()")


def _tokenize(src: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c in _TOKEN_CHARS:
            tokens.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] in ".eE" or
                             (src[j] in "+-" and src[j - 1] in "eE")):
                j += 1
            tokens.append(src[i:j])
            i = j
        elif c.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            tokens.append(src[i:j])
            i = j
        else:
            raise ConfigurationError(f"unexpected character {c!r} in expression {src!r}")
    return tokens


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _safe_pow(x: float, p: float) -> float:
    try:
        return x ** p
    except OverflowError:
        return math.inf


# The only names generated code can reach.
_NAMESPACE = {"sqrt": math.sqrt, "exp": _safe_exp, "pow": _safe_pow,
              "__builtins__": {}}


class _Parser:
    """Recursive-descent parser that emits Python source.  Sums and products
    are emitted flat (Python evaluates them left to right) and literals as
    the ``repr`` of their float value, so no operation is added or reordered."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ConfigurationError(f"unexpected end of expression {self.src!r}")
        if expected is not None and tok != expected:
            raise ConfigurationError(
                f"expected {expected!r} but found {tok!r} in expression {self.src!r}")
        self.pos += 1
        return tok

    def parse(self) -> str:
        code = self.expr()
        if self.peek() is not None:
            raise ConfigurationError(
                f"trailing input {self.peek()!r} in expression {self.src!r}")
        return code

    def expr(self) -> str:
        code = self.term()
        while self.peek() == "+":
            self.take("+")
            code += " + " + self.term()
        return code

    def term(self) -> str:
        code = self.factor()
        while self.peek() == "*":
            self.take("*")
            code += " * " + self.factor()
        return code

    def factor(self) -> str:
        code = self.atom()
        if self.peek() == "^":
            self.take("^")
            code = f"pow({code}, {self.number(self.take())!r})"
        return code

    def number(self, tok: str) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise ConfigurationError(
                f"expected a number but found {tok!r} in expression {self.src!r}") from None
        if value < 0 or not math.isfinite(value):
            raise ConfigurationError(f"numeric literals must be finite and nonnegative: {tok!r}")
        return value

    def atom(self) -> str:
        tok = self.take()
        if tok == "t":
            return "t"
        if tok in ("sqrt", "exp"):
            tok += self.take("(")
        if tok.endswith("("):
            code = tok + self.expr() + ")"
            self.take(")")
            return code
        return repr(self.number(tok))


def compile_expression(src: str) -> Callable[[float], float]:
    """Compile an expression in the variable ``t`` into a float -> float function."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigurationError("expression must be a non-empty string")
    try:
        return eval(f"lambda t: {_Parser(src).parse()}", _NAMESPACE)
    except (SyntaxError, RecursionError):  # Python caps nesting at 200 levels
        raise ConfigurationError(f"expression {src[:40]!r}... nests too deeply") from None
