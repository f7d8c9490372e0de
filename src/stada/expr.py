"""The one reader of text: a scanner and a recursive-descent parser.

Two grammars share one literal rule.  Both are whitespace-insensitive:

    literal := (complex | number) blade? | blade

Expressions (`eval_expr`):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'^') factor)*
    factor := ('+'|'-') factor | atom
    atom   := 'star' '(' expr ')' | 'rev' '(' expr ')' | '(' expr ')' | literal

'*' is Clifford multiplication, '^' the exterior product, star(...) the
Hodge star, rev(...) the conjugating reversion.  A number directly
followed by a blade scales it.

Fields (`parse_field`), a signed sum of waves:

    field  := sign? wave (sign wave)*
    wave   := literal | literal? 'exp' '(' 'i' '[' real ',' real ',' real ',' real ']' ')'
    real   := sign? number
    sign   := '+' | '-'

A wave `c eK exp(i[p0,p1,p2,p3])` is c eK exp(i p.x); a missing
coefficient is 1 and a missing blade is the scalar blade `e`.

Numbers are decimals with an optional exponent of at most
`MAX_EXPONENT_DIGITS` digits, or fractions `a/b`; a complex literal is
`(re+imi)` with the real part optional.  A blade is `e` or `l` followed by
strictly ascending axis digits 0-3.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from . import scalars
from .errors import ParseError
from .exterior import hodge_star
from .multivector import Multivector
from .scalars import EXACT, QQi, Scalar

if TYPE_CHECKING:
    from .fields import AnalyticField

_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?:/[0-9]+)?"
_TOKEN = re.compile(
    r"(?:"
    rf"(?P<complex>\((?P<cre>[+-]?{_NUM})?(?P<cim>[+-](?:{_NUM})?)i\))"
    rf"|(?P<number>{_NUM})"
    r"|(?P<name>star|rev|exp)"
    r"|(?P<blade>[el][0-9]*)"
    r"|(?P<op>[-+*^()\[\],i])"
    r")")

# longer decimal exponents lie far outside float range and make exact numerals huge
MAX_EXPONENT_DIGITS = 3

# parentheses, star/rev calls and unary signs recurse; deeper input is rejected
MAX_NESTING = 200


def _scan(text: str):
    """Tokens as (kind, text, position, match)."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized input {text[pos:pos + 8]!r}", pos)
        tokens.append((m.lastgroup, m.group(0), pos, m))
        pos = m.end()
    return tokens


def _parse_real(text: str, position: int) -> Fraction:
    exponent = re.search(r"[eE][+-]?0*([0-9]*)", text)
    if exponent and len(exponent[1]) > MAX_EXPONENT_DIGITS:
        raise ParseError(f"exponent over {MAX_EXPONENT_DIGITS} digits in {text!r}", position)
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(num) / Fraction(den)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {text!r}: {exc}", position) from None


def _coeff(value: str, position: int, backend: str, match=None) -> Scalar:
    """A number, signed or not, or the complex literal that `match` scanned."""
    if match is None:
        re_val, im_val = _parse_real(value, position), 0
    else:
        cim = match.group("cim")
        re_val = _parse_real(match.group("cre") or "0", position)
        im_val = _parse_real(cim + "1" if cim in ("+", "-") else cim, position)
    if backend == EXACT:
        return QQi.from_rational(re_val, im_val)
    try:
        return complex(float(re_val), float(im_val))
    except OverflowError:
        raise ParseError(f"number {value!r} is beyond float range", position) from None


def _blade_mask(token: str, position: int) -> int:
    mask = 0
    last = -1
    for ch in token[1:]:
        mu = ord(ch) - ord("0")
        if mu > 3 or mu <= last:
            raise ParseError(f"blade {token!r} must use strictly ascending digits 0-3", position)
        mask |= 1 << mu
        last = mu
    return mask


class _Parser:
    def __init__(self, text: str, backend: str):
        self.tokens = _scan(text)
        self.i = 0
        self.backend = backend
        self.length = len(text)
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length, None)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _sign(self):
        """Consume a '+' or '-' if one is next; return it or None."""
        kind, op, _, _ = self._peek()
        if kind == "op" and op in "+-":
            self.i += 1
            return op
        return None

    def _expect_ops(self, ops: str):
        for op in ops:
            kind, value, pos, _ = self._next()
            if kind != "op" or value != op:
                raise ParseError(f"expected {op!r}", pos)

    def literal(self):
        """(complex | number) blade? | blade, as (coeff, mask); either is None when absent."""
        coeff = mask = None
        kind, value, pos, m = self._peek()
        if kind in ("complex", "number"):
            self.i += 1
            coeff = _coeff(value, pos, self.backend, m if kind == "complex" else None)
            kind, value, pos, _ = self._peek()
        if kind == "blade":
            self.i += 1
            mask = _blade_mask(value, pos)
        return coeff, mask

    # ---- expressions

    def expr(self) -> Multivector:
        value = self.term()
        while op := self._sign():
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Multivector:
        value = self.factor()
        while True:
            kind, op, _, _ = self._peek()
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
        pos = self._peek()[2]
        op = self._sign()
        if op is None:
            return self.atom()
        self._enter(pos)
        value = self.factor()
        self.depth -= 1
        return -value if op == "-" else value

    def atom(self) -> Multivector:
        kind, value, pos, _ = self._peek()
        if (kind == "name" and value != "exp") or (kind == "op" and value == "("):
            self.i += 1
            if kind == "name":
                self._expect_ops("(")
            self._enter(pos)
            inner = self.expr()
            self._expect_ops(")")
            self.depth -= 1
            if kind == "name":
                return hodge_star(inner) if value == "star" else inner.star()
            return inner
        coeff, mask = self.literal()
        if mask is not None:
            blade = Multivector.basis(mask, self.backend)
            return blade if coeff is None else blade.scale(coeff)
        if coeff is None:
            raise ParseError("expected a value", pos)
        return Multivector.scalar(coeff, self.backend)

    # ---- fields

    def field(self) -> AnalyticField:
        from .fields import AnalyticField

        out = AnalyticField.zero(self.backend)
        while True:
            pos = self._peek()[2]
            sign = self._sign()
            if sign is None and self.i:  # only the first wave may go unsigned
                raise ParseError("missing '+' or '-' between terms", pos)
            mv, phases = self.wave(sign)
            out = out + (AnalyticField.constant(mv) if phases is None
                         else AnalyticField.plane_wave(mv, phases))
            if self.i == len(self.tokens):
                return out

    def wave(self, sign) -> tuple:
        """(amplitude, phases) of one wave; phases is None for a constant."""
        # a bad phase is reported at the start of its wave
        start = self._peek()[2]
        coeff, mask = self.literal()
        phases = None
        kind, value, pos, _ = self._peek()
        if kind == "name" and value == "exp":
            self.i += 1
            self._expect_ops("(i[")
            phases = [self._real(start)]
            for _ in range(3):
                self._expect_ops(",")
                phases.append(self._real(start))
            self._expect_ops("])")
        elif coeff is None and mask is None:
            raise ParseError("expected a coefficient, blade or exp(...)", pos)
        if coeff is None:
            coeff = scalars.one(self.backend)
        mv = Multivector.basis(mask or 0, self.backend).scale(-coeff if sign == "-" else coeff)
        return mv, phases

    def _real(self, position: int):
        """sign? number, as a real on the backend; errors point at `position`."""
        sign = self._sign() or ""
        kind, value, pos, _ = self._next()
        if kind != "number":
            raise ParseError("expected a number", pos)
        return _coeff(sign + value, position, self.backend).real


def eval_expr(text: str, backend: str = EXACT) -> Multivector:
    """Evaluate an expression to a multivector."""
    parser = _Parser(text, backend)
    if not parser.tokens:
        raise ParseError("empty expression", 0)
    value = parser.expr()
    kind, _, pos, _ = parser._peek()
    if kind is not None:
        raise ParseError("trailing input after expression", pos)
    return value


def parse_field(text: str, backend: str = EXACT) -> AnalyticField:
    """Read a signed sum of constant and plane-wave terms as an analytic field."""
    parser = _Parser(text, backend)
    if not parser.tokens:
        raise ParseError("empty field expression", 0)
    return parser.field()
