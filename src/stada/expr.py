"""Small expression language over multivector literals.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'^') factor)*
    factor := '-' factor | atom
    atom   := 'star' '(' expr ')' | 'rev' '(' expr ')' | '(' expr ')'
            | complex-literal | number blade? | blade

'*' is Clifford multiplication, '^' the exterior product, star(...) the
Hodge star, rev(...) the conjugating reversion.  A number directly
followed by a blade token scales it, matching the literal grammar.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .exterior import hodge_star
from .multivector import Multivector, _NUM, _parse_coeff, _blade_mask
from .scalars import EXACT

_EXPR_TOKEN = re.compile(
    r"(?:"
    rf"(?P<complex>\((?P<cre>[+-]?{_NUM})?(?P<cim>[+-](?:{_NUM})?)i\))"
    rf"|(?P<number>{_NUM})"
    r"|(?P<name>star|rev)"
    r"|(?P<blade>[el][0-9]*)"
    r"|(?P<op>[-+*^()])"
    r")")

# parentheses, star/rev calls and unary signs recurse; deeper input is rejected
MAX_NESTING = 200


def _scan(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _EXPR_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized input {text[pos:pos + 8]!r}", pos)
        kind = next(n for n in ("complex", "number", "name", "blade", "op") if m.group(n))
        tokens.append((kind, m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, backend: str, length: int):
        self.tokens = tokens
        self.i = 0
        self.backend = backend
        self.length = length
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, value, pos = self._next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Multivector:
        value = self.expr()
        kind, _, pos = self._peek()
        if kind is not None:
            raise ParseError("trailing input after expression", pos)
        return value

    def expr(self) -> Multivector:
        value = self.term()
        while True:
            kind, op, _ = self._peek()
            if kind == "op" and op in "+-":
                self.i += 1
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> Multivector:
        value = self.factor()
        while True:
            kind, op, _ = self._peek()
            if kind == "op" and op in "*^":
                self.i += 1
                rhs = self.factor()
                value = value * rhs if op == "*" else value ^ rhs
            else:
                return value

    def _enter(self, pos: int) -> None:
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1

    def factor(self) -> Multivector:
        kind, op, pos = self._peek()
        if kind == "op" and op in "+-":
            self.i += 1
            self._enter(pos)
            value = self.factor()
            self.depth -= 1
            return -value if op == "-" else value
        return self.atom()

    def atom(self) -> Multivector:
        kind, value, pos = self._next()
        if kind == "name" or (kind == "op" and value == "("):
            if kind == "name":
                self._expect_op("(")
            self._enter(pos)
            inner = self.expr()
            self._expect_op(")")
            self.depth -= 1
            if kind == "name":
                return hodge_star(inner) if value == "star" else inner.star()
            return inner
        if kind == "complex":
            coeff = _parse_coeff("complex", value, pos, self.backend)
            return self._maybe_blade(coeff)
        if kind == "number":
            coeff = _parse_coeff("number", value, pos, self.backend)
            return self._maybe_blade(coeff)
        if kind == "blade":
            return Multivector.basis(_blade_mask(value, pos), self.backend)
        raise ParseError("expected a value", pos)

    def _maybe_blade(self, coeff) -> Multivector:
        kind, value, pos = self._peek()
        if kind == "blade":
            self.i += 1
            return Multivector.basis(_blade_mask(value, pos), self.backend).scale(coeff)
        return Multivector.scalar(coeff, self.backend)


def eval_expr(text: str, backend: str = EXACT) -> Multivector:
    """Evaluate an expression to a multivector."""
    tokens = _scan(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    return _Parser(tokens, backend, len(text)).parse()
