"""Custom-formula grammar: identifiers, arithmetic, sqrt, floor."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import KernelError, ValidationError
from featurespace.expressions import MAX_DEPTH, evaluate, expression_names, parse_expression


def run(text, **env):
    return evaluate(parse_expression(text), env)


def test_arithmetic_and_precedence():
    assert run("1 + 2 * 3") == 7.0
    assert run("(1 + 2) * 3") == 9.0
    assert run("10 / 4") == 2.5
    assert run("-x + 2", x=3.0) == -1.0


def test_backtick_identifiers_allow_spaces():
    value = run("sqrt(`Horizontal Distance`*`Horizontal Distance` + v*v)",
                **{"Horizontal Distance": 3.0, "v": 4.0})
    assert value == 5.0


def test_floor_function():
    assert run("floor(sqrt(2) * 10)") == 14


def test_expression_names_collects_identifiers():
    ast = parse_expression("`a b` + c * sqrt(d)")
    assert expression_names(ast) == {"a b", "c", "d"}


def test_unknown_function_rejected():
    with pytest.raises(ValidationError, match="unknown function"):
        parse_expression("log(x)")


def test_malformed_expressions_rejected():
    for bad in ("", "1 +", "(1", "x y", "1 @ 2"):
        with pytest.raises(ValidationError):
            parse_expression(bad)


def test_division_by_zero_is_a_kernel_error():
    with pytest.raises(KernelError, match="division by zero"):
        run("1 / x", x=0.0)


def test_sqrt_of_negative_is_a_kernel_error():
    with pytest.raises(KernelError, match="sqrt"):
        run("sqrt(x)", x=-1.0)


LEAVES = st.sampled_from(["a", "b", "c", "0.0", "1.0", "2.5", "1e3"])  # Python reads floats


def _nested(children):
    return st.one_of(
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["sqrt", "floor"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
    )


def _outcome(evaluate_text):
    try:
        return repr(evaluate_text())
    except (KernelError, ArithmeticError, ValueError):
        return "fails"


@settings(max_examples=300, deadline=None)
@given(text=st.recursive(LEAVES, _nested, max_leaves=12),
       values=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_an_expression_evaluates_as_python_does(text, values):
    """Python reads these operators with the same binding and left-to-right
    order, so each result has Python's bits, and fails where Python does."""
    env = dict(zip("abc", values))
    assert _outcome(lambda: run(text, **env)) == _outcome(
        lambda: eval(text, {"sqrt": math.sqrt, "floor": math.floor}, env))


@pytest.mark.parametrize("nest", [
    lambda depth: "(" * depth + "a" + ")" * depth,
    lambda depth: "-" * depth + "a",
    lambda depth: "sqrt(" * depth + "a" + ")" * depth,
    lambda depth: " / ".join(["a"] * (depth + 1)),
], ids=["parentheses", "unary_minus", "calls", "chain"])
def test_an_expression_nests_at_most_max_depth_levels(nest):
    assert run(nest(MAX_DEPTH), a=1.0) == 1.0
    with pytest.raises(ValidationError, match=r"^expression: nested too deeply$"):
        parse_expression(nest(MAX_DEPTH + 1))
