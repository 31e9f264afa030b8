"""A tiny closed-form expression grammar for composing functions.

Grammar (whitespace ignored)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := atom ('^' number)?
    atom   := number | 't' | 'sqrt' '(' expr ')' | 'exp' '(' expr ')' | '(' expr ')'
    number := decimal literal with an optional exponent, such as 2, .5, 3. or 1e-3

Only nonnegative numeric literals are allowed, so every expression maps
[0, inf) into [0, inf) by construction.  A token scan rejects every
character and literal form outside the grammar, Python's own parser reads
the tokens with '^' as '**', and a transformer keeps only the grammar's
nodes.  The checked tree is compiled as the body of one Python function
that can reach no name but ``sqrt``, ``exp`` and ``pow``.  ``exp`` and
``^`` saturate to ``math.inf`` instead of overflowing so that inequality
checks involving huge right-hand sides stay well defined.
"""

from __future__ import annotations

import ast
import math
import re
from collections.abc import Callable

from .errors import ConfigurationError

__all__ = ["compile_expression"]

_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# A token and the whitespace after it.  A literal loses the leading zeros
# Python rejects in "01"; '^' must precede a literal and 'sqrt'/'exp' a '(',
# since Python's parser drops the parentheses of "t^(2)" and "(sqrt)(t)".
_TOKEN = re.compile(
    rf"(?:0(?=[0-9]))*([+*()t]|(?:sqrt|exp)(?=\s*\()|\^(?=\s*{_NUMBER})|{_NUMBER})\s*")


def _safe_exp(x: float) -> float:
    if x > 710.0:  # exp(710) overflows already, so skip raising OverflowError
        return math.inf
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


class _Grammar(ast.NodeTransformer):
    """Rejects every node outside the grammar and turns each literal into a
    float and each '^' into a call of ``pow``, adding or reordering nothing."""

    def __init__(self, src: str):
        self.src = src

    def generic_visit(self, node: ast.AST) -> ast.AST:
        raise ConfigurationError(
            f"{ast.unparse(node)!r} is outside the grammar in expression {self.src!r}")

    def visit_Name(self, node: ast.Name) -> ast.AST:
        return node if node.id == "t" else self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        try:
            value = float(node.value)
        except OverflowError:  # an integer literal beyond the floats
            value = math.inf
        if not math.isfinite(value):
            raise ConfigurationError(f"numeric literal out of range in expression {self.src!r}")
        return ast.Constant(value)

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        args = [self.visit(node.left), self.visit(node.right)]
        if isinstance(node.op, (ast.Add, ast.Mult)):
            return ast.BinOp(args[0], node.op, args[1])
        if isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant):
            return ast.Call(ast.Name("pow", ast.Load()), args, [])
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if (isinstance(node.func, ast.Name) and node.func.id in ("sqrt", "exp")
                and len(node.args) == 1 and not node.keywords):
            return ast.Call(node.func, [self.visit(node.args[0])], [])
        return self.generic_visit(node)


def compile_expression(src: str) -> Callable[[float], float]:
    """Compile an expression in the variable ``t`` into a float -> float function."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigurationError("expression must be a non-empty string")
    rest = _TOKEN.sub("", src.lstrip())
    if rest:
        raise ConfigurationError(f"unexpected character {rest[0]!r} in expression {src!r}")
    try:
        tree = ast.parse(" ".join(_TOKEN.findall(src)).replace("^", "**"), mode="eval")
        function = ast.parse("lambda t: t", mode="eval")
        function.body.body = _Grammar(src).visit(tree.body)
        return eval(compile(ast.fix_missing_locations(function), "<string>", "eval"), _NAMESPACE)
    except SyntaxError as exc:  # Python also caps nesting at 200 parentheses
        raise ConfigurationError(f"malformed expression {src!r}: {exc.msg}") from None
    except RecursionError:
        raise ConfigurationError(f"expression {src[:40]!r}... nests too deeply") from None
