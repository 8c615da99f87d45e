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


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def expect_op(self, op: str):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ValidationError(f"expression: expected {op!r}, got {value!r}")

    def parse(self):
        node = self.sum()
        if self.pos != len(self.tokens):
            raise ValidationError(f"expression: trailing input at {self.peek()[1]!r}")
        return node

    def sum(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, value = self.take()
        if kind == "number":
            return ("num", float(value))
        if kind == "name":
            if self.peek() == ("op", "("):
                if value not in FUNCTIONS:
                    raise ValidationError(
                        f"expression: unknown function {value!r} (only sqrt and floor)")
                self.take()
                arg = self.sum()
                self.expect_op(")")
                return ("call", value, arg)
            return ("name", value)
        if (kind, value) == ("op", "("):
            node = self.sum()
            self.expect_op(")")
            return node
        raise ValidationError(f"expression: unexpected token {value!r}")


def parse_expression(text: str):
    """Parse to an AST; raises ValidationError on malformed input."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError("expression must be a non-empty string")
    tokens = _tokenize(text)
    if not tokens:
        raise ValidationError("expression must be a non-empty string")
    return _Parser(tokens).parse()


def expression_names(node) -> set[str]:
    kind = node[0]
    if kind == "name":
        return {node[1]}
    if kind == "num":
        return set()
    if kind == "neg":
        return expression_names(node[1])
    if kind == "call":
        return expression_names(node[2])
    return expression_names(node[2]) | expression_names(node[3])


def evaluate(node, env: Mapping[str, float]):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "name":
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "call":
        value = evaluate(node[2], env)
        if node[1] == "sqrt" and value < 0:
            raise KernelError(f"sqrt of negative value {value!r}")
        if node[1] == "floor" and not math.isfinite(value):
            raise KernelError(f"floor of non-finite value {value!r}")
        return FUNCTIONS[node[1]](value)
    op, left, right = node[1], evaluate(node[2], env), evaluate(node[3], env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise KernelError("division by zero in expression")
    return left / right
