"""Minimal arithmetic expression grammar for custom column formulas.

Supported: identifiers (backtick-quoted when they contain spaces or
punctuation), numeric literals, + - * /, unary minus, sqrt(), floor(), and
parentheses. No other functions.

A value outside a function's domain is a ``KernelError`` of the row being
evaluated, as division by zero is: ``sqrt`` of a negative value, and
``floor`` of a non-finite one (an infinity or a NaN has no integer floor).
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from .errors import KernelError, ValidationError

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|`(?P<quoted>[^`]+)`"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/()])"
    r")"
)

FUNCTIONS = {"sqrt": math.sqrt, "floor": math.floor}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ValidationError(f"expression: cannot tokenize at {remainder[:20]!r}")
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number")))
        elif match.lastgroup == "quoted":
            tokens.append(("name", match.group("quoted")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


# How tightly each operator binds its operands. A unary minus binds tighter
# than any binary operator, and a binary operator binds its left operand
# before a later one of equal strength: ``a - b - c`` is ``(a - b) - c``.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG = 3

# The deepest an expression may nest. Each parenthesized group, function
# call, unary minus and binary operation is one level, so a chain such as
# ``a + b + c`` is two levels deep. Parsing and evaluating use no recursion.
MAX_DEPTH = 1_000


def _postfix(tokens: list[tuple[str, str]]) -> tuple[tuple, ...]:
    """The expression's instructions in evaluation order: ``("num", value)``,
    ``("name", name)``, ``("neg",)``, ``("call", function)`` and
    ``("bin", op)``. An operator or group waits, as ``(binding, instruction,
    operand count)``, until its operands are done; ``depths`` holds the depth
    of each operand done so far."""
    program, depths, waiting = [], [], []

    def finish():
        _, instruction, count = waiting.pop()
        depth = max(depths.pop() for _ in range(count)) + 1
        if depth > MAX_DEPTH:
            raise ValidationError("expression: nested too deeply")
        if instruction is not None:  # a parenthesized group has none
            program.append(instruction)
        depths.append(depth)

    def close(binding):
        while waiting and waiting[-1][0] >= binding:
            finish()

    pos, want_operand = 0, True
    while True:
        kind, value = tokens[pos] if pos < len(tokens) else (None, None)
        pos += 1
        if want_operand:
            if (kind, value) == ("op", "-"):
                waiting.append((_NEG, ("neg",), 1))
            elif (kind, value) == ("op", "("):
                waiting.append((0, None, 1))
            elif kind == "name" and tokens[pos:pos + 1] == [("op", "(")]:
                if value not in FUNCTIONS:
                    raise ValidationError(
                        f"expression: unknown function {value!r} (only sqrt and floor)")
                waiting.append((0, ("call", value), 1))
                pos += 1
            elif kind in ("number", "name"):
                program.append(("num", float(value)) if kind == "number" else ("name", value))
                depths.append(0)
                want_operand = False
            else:
                raise ValidationError(f"expression: unexpected token {value!r}")
        elif kind == "op" and value in _BINDING:
            close(_BINDING[value])
            waiting.append((_BINDING[value], ("bin", value), 2))
            want_operand = True
        else:
            close(1)  # every operator down to the innermost open group
            if not waiting:
                if kind is None:
                    return tuple(program)
                raise ValidationError(f"expression: trailing input at {value!r}")
            if (kind, value) != ("op", ")"):
                raise ValidationError(f"expression: expected ')', got {value!r}")
            finish()


def parse_expression(text: str) -> tuple[tuple, ...]:
    """Parse to the instructions ``evaluate`` runs; raises ValidationError on
    malformed input."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError("expression must be a non-empty string")
    tokens = _tokenize(text)
    if not tokens:
        raise ValidationError("expression must be a non-empty string")
    return _postfix(tokens)


def expression_names(program) -> set[str]:
    return {instruction[1] for instruction in program if instruction[0] == "name"}


def evaluate(program, env: Mapping[str, float]):
    stack = []
    for instruction in program:
        kind = instruction[0]
        if kind == "num":
            stack.append(instruction[1])
        elif kind == "name":
            stack.append(env[instruction[1]])
        elif kind == "neg":
            stack.append(-stack.pop())
        elif kind == "call":
            value = stack.pop()
            if instruction[1] == "sqrt" and value < 0:
                raise KernelError(f"sqrt of negative value {value!r}")
            if instruction[1] == "floor" and not math.isfinite(value):
                raise KernelError(f"floor of non-finite value {value!r}")
            stack.append(FUNCTIONS[instruction[1]](value))
        else:
            right, left = stack.pop(), stack.pop()
            op = instruction[1]
            if op == "+":
                stack.append(left + right)
            elif op == "-":
                stack.append(left - right)
            elif op == "*":
                stack.append(left * right)
            elif right == 0:
                raise KernelError("division by zero in expression")
            else:
                stack.append(left / right)
    return stack.pop()
