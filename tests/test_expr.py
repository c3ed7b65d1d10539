"""The config expression compiler: what it evaluates and what it rejects."""

import numpy as np
import pytest

from kgraph.errors import InputError
from kgraph.expr import compile_expression

POINTS = np.random.default_rng(3).uniform(-0.5, 0.5, size=(5, 4, 2))


@pytest.mark.parametrize("source, message", [
    ("x % 2", "operator not allowed in expression: Mod()"),
    ("not x", "only unary +/- allowed"),
    ("~x", "only unary +/- allowed"),
    ("foo(x)", "unknown function in expression"),
    ("sin(x, y)", "expression functions take exactly one argument"),
    ("sin(x=1)", "expression functions take exactly one argument"),
    ("'a'", "literal not allowed: 'a'"),
    ("True", "literal not allowed: True"),
    ("False", "literal not allowed: False"),
    ("x if y else 1", "syntax not allowed in expression: IfExp"),
    ("[x]", "syntax not allowed in expression: List"),
    ("x.y", "syntax not allowed in expression: Attribute"),
    ("x < y", "syntax not allowed in expression: Compare"),
    ("(x)(y)", "unknown function in expression"),
])
def test_rejected_syntax_names_the_reason(source, message):
    with pytest.raises(InputError) as err:
        compile_expression(source)
    assert str(err.value) == message


@pytest.mark.parametrize("source, numpy_form", [
    ("-x^2 + 3*y", lambda x, y, r: -np.power(x, 2) + 3 * y),
    ("2^3^x", lambda x, y, r: np.power(2, np.power(3, x))),
    ("sqrt(abs(x)) - ln(1+r^2)", lambda x, y, r: np.sqrt(np.abs(x)) - np.log(1 + np.power(r, 2))),
])
def test_values_equal_their_numpy_form(source, numpy_form):
    x, y = POINTS[..., 0], POINTS[..., 1]
    expected = numpy_form(x, y, np.sqrt(x * x + y * y))
    assert np.array_equal(compile_expression(source)(POINTS), expected)
