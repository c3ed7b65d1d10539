"""Tiny arithmetic expression compiler for config files.

Grammar: + - * / ** (also ^), unary minus, parentheses, the variables
x, y, r (r = sqrt(x^2 + y^2) from the origin), the functions
sin, cos, exp, sqrt, ln (alias log), abs, and the constants pi and e.
Expressions are compiled once and evaluated vectorized over numpy
arrays of points.
"""

import ast

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


def _check(node):
    if isinstance(node, ast.Expression):
        _check(node.body)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise InputError(f"operator not allowed in expression: {ast.dump(node.op)}")
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise InputError("only unary +/- allowed")
        _check(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise InputError(f"unknown function in expression")
        if node.keywords or len(node.args) != 1:
            raise InputError("expression functions take exactly one argument")
        _check(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in ("x", "y", "r") and node.id not in _CONSTS:
            raise InputError(f"unknown name in expression: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InputError(f"literal not allowed: {node.value!r}")
    else:
        raise InputError(f"syntax not allowed in expression: {type(node).__name__}")


def _evaluate(node, env):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = _evaluate(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_evaluate(node.args[0], env))
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        return _CONSTS[node.id]
    if isinstance(node, ast.Constant):
        return node.value
    raise InputError(f"unexpected node {type(node).__name__}")


def compile_expression(source):
    """Compile `source` into a callable of points with shape (..., 2).

    Returns a function P -> array of values broadcast over the leading
    axes of P.  Raises InputError on disallowed syntax or names.
    """
    text = str(source).replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {source!r}: {exc}") from None
    _check(tree)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        x = points[..., 0]
        y = points[..., 1]
        out = _evaluate(tree, {"x": x, "y": y, "r": np.sqrt(x * x + y * y)})
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return evaluate
