"""Tiny arithmetic expression compiler for config files.

Grammar: + - * / ** (also ^), unary minus, parentheses, the variables
x, y, r (r = sqrt(x^2 + y^2) from the origin), the functions
sin, cos, exp, sqrt, ln (alias log), abs, and the constants pi and e.
Expressions are compiled once and evaluated vectorized over numpy
arrays of points.
"""

import ast
import functools

import numpy as np

from .errors import InputError

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "ln": np.log,
    "log": np.log,
    "abs": np.abs,
}

_CONSTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile(node):
    """A function of the variables {x, y, r} that evaluates `node`, built
    in one walk that rejects whatever lies outside the grammar."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise InputError(f"operator not allowed in expression: {ast.dump(node.op)}")
        op, left, right = _BINOPS[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise InputError("only unary +/- allowed")
        operand = _compile(node.operand)
        return (lambda env: -operand(env)) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise InputError("unknown function in expression")
        if node.keywords or len(node.args) != 1:
            raise InputError("expression functions take exactly one argument")
        fn, arg = _FUNCS[node.func.id], _compile(node.args[0])
        return lambda env: fn(arg(env))
    if isinstance(node, ast.Name):
        name = node.id
        if name in ("x", "y", "r"):
            return lambda env: env[name]
        if name not in _CONSTS:
            raise InputError(f"unknown name in expression: {name!r}")
        value = _CONSTS[name]
    elif isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"literal not allowed: {value!r}")
    else:
        raise InputError(f"syntax not allowed in expression: {type(node).__name__}")
    return lambda env: value


@functools.lru_cache(maxsize=None)
def compile_expression(source):
    """Compile `source` into a callable of points with shape (..., 2).

    Returns a function P -> array of values broadcast over the leading
    axes of P, one function per source, so charts built from one text
    compare equal.  Raises InputError on disallowed syntax or names.
    """
    text = str(source).replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {source!r}: {exc}") from None
    evaluate_tree = _compile(tree)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        x = points[..., 0]
        y = points[..., 1]
        out = evaluate_tree({"x": x, "y": y, "r": np.sqrt(x * x + y * y)})
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return evaluate
