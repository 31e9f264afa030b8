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
nodes.  The checked tree, ``lambda t: ...``, is compiled as one Python
function that can reach no name but ``sqrt``, ``exp`` and ``pow``.  ``exp``
and ``^`` saturate to ``math.inf`` instead of overflowing so that inequality
checks involving huge right-hand sides stay well defined.  A check of this
package is one template, a comprehension whose rows are (key, slack,
tolerance), which ``compile_template`` compiles in the same namespace: its
fused form inlines such a tree and a metric's body and reduces each row to
its slack, or to NaN where the slack is below minus its tolerance.
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


# The only names generated code can reach; the grammar admits no call of
# abs, float or zip, nor inf or nan, which only this package's lambdas use.
_NAMESPACE = {"sqrt": math.sqrt, "exp": _safe_exp, "pow": _safe_pow, "abs": abs,
              "float": float, "zip": zip, "inf": math.inf, "nan": math.nan,
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


def expression_tree(src: str) -> ast.Expression:
    """The checked tree of an expression in the variable ``t``, as the Python
    expression ``lambda t: ...``."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigurationError("expression must be a non-empty string")
    rest = _TOKEN.sub("", src.lstrip())
    if rest:
        raise ConfigurationError(f"unexpected character {rest[0]!r} in expression {src!r}")
    try:
        tree = ast.parse(" ".join(_TOKEN.findall(src)).replace("^", "**"), mode="eval")
        function = ast.parse("lambda t: t", mode="eval")
        function.body.body = _Grammar(src).visit(tree.body)
        return function
    except SyntaxError as exc:  # Python also caps nesting at 200 parentheses
        raise ConfigurationError(f"malformed expression {src!r}: {exc.msg}") from None
    except RecursionError:
        raise ConfigurationError(f"expression {src[:40]!r}... nests too deeply") from None


def compile_tree(tree: ast.Expression) -> Callable:
    """Compile a checked tree, or a fused one, in the float namespace."""
    return eval(compile(ast.fix_missing_locations(tree), "<string>", "eval"), _NAMESPACE)


def compile_expression(src: str) -> Callable[[float], float]:
    """Compile an expression in the variable ``t`` into a float -> float function."""
    return compile_tree(expression_tree(src))


def _inline(node, functions: dict, args: dict):
    """A copy of the tree node with each name in args replaced by its value,
    and each call of a name in functions by that function's body, its
    parameters bound to the call's arguments, inlined first.  An argument
    used twice is evaluated twice, which costs time but, as every function
    here is pure, no bit of the result."""
    if isinstance(node, list):
        return [_inline(x, functions, args) for x in node]
    if not isinstance(node, ast.AST):
        return node
    if isinstance(node, ast.Name) and node.id in args:
        return args[node.id]
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
        function = functions[node.func.id].body
        values = _inline(node.args, functions, args)
        return _inline(function.body, {}, dict(zip((a.arg for a in function.args.args), values)))
    return type(node)(**{f: _inline(getattr(node, f, None), functions, args)
                         for f in node._fields})


# A row's fused form: its slack, or NaN where the slack is below -tol.  A
# positive slack passes at once, as no tol is below -5e-324 and no float
# lies between 0 and 5e-324.
_GUARD = ast.parse("slack_ if (slack_ := slack) > 0.0 or slack_ >= -tol else nan",
                   mode="eval").body


def _fused_rows(row: ast.expr) -> ast.expr:
    """A row (key, slack, tol, slack, tol, ...), or a conditional choosing
    one, with the key dropped and each pair guarded: one value or a tuple."""
    if isinstance(row, ast.IfExp):
        return ast.IfExp(row.test, _fused_rows(row.body), _fused_rows(row.orelse))
    slacks = [_inline(_GUARD, {}, {"slack": slack, "tol": tol})
              for slack, tol in zip(row.elts[1::2], row.elts[2::2])]
    return slacks[0] if len(slacks) == 1 else ast.Tuple(slacks, ast.Load())


def compile_template(template: str, functions: dict, names: dict, fused: bool) -> Callable:
    """Compile template, a lambda of this package whose list comprehension
    yields rows (key, slack, tol, ...), in the float namespace with names
    added.  Each call of a name in functions is replaced by the body of its
    lambda, the text of one of this package or a checked tree, so no text
    from outside the package is compiled.  Where fused, each row is
    replaced by its fused form."""
    tree = _inline(ast.parse(template, mode="eval"), {
        name: ast.parse(f, mode="eval") if isinstance(f, str) else f
        for name, f in functions.items()}, {})
    if fused:
        tree.body.body.elt = _fused_rows(tree.body.body.elt)
    return eval(compile(ast.fix_missing_locations(tree), "<template>", "eval"),
                {**_NAMESPACE, **names})
