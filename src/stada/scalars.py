"""Two interchangeable coefficient backends: exact Gaussian rationals and floats.

The exact backend stores (a + b*i)/d with integers a, b and a positive
integer d, so every algebraic identity can be asserted as equality.
The float backend is a plain Python complex, compared within a tolerance
that every approximate check receives as an argument; `DEFAULT_TOLERANCE`
is the value a check uses when its caller passes none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import BackendMismatchError

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOLERANCE = 1e-12


RealLike = Union[int, Fraction, float]


def nan_max(*values):
    """The largest of the values, or NaN if any of them is NaN.

    The builtin max compares with `>`, which is false against NaN, so
    max(0.0, nan) is 0.0 and a NaN measurement would read as no error at
    all.  Apart from that, the result is the one max would give."""
    worst = values[0]
    for v in values:
        if v != v:
            return math.nan
        if v > worst:
            worst = v
    return worst


class QQi:
    """Gaussian rational (a + b*i)/d, normalized so gcd(a, b, d) == 1 and d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1):
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(math.gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def from_rational(cls, re: RealLike, im: RealLike = 0) -> "QQi":
        re = Fraction(re)
        im = Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        return cls(int(re * d), int(im * d), d)

    @property
    def real(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.b, self.d)

    def conjugate(self) -> "QQi":
        return QQi(self.a, -self.b, self.d)

    def is_real(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QQi):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.a == other * self.d
        if isinstance(other, Fraction):
            return self.b == 0 and self.real == other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.a * other.d + other.a * self.d,
                   self.b * other.d + other.b * self.d,
                   self.d * other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.a * other.d - other.a * self.d,
                   self.b * other.d - other.b * self.d,
                   self.d * other.d)

    def __rsub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QQi(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, int):
            return QQi(self.a * other, self.b * other, self.d)
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.a * other.a - self.b * other.b,
                   self.a * other.b + self.b * other.a,
                   self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return QQi(self.a, self.b, self.d * other)
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.a * other.a + other.b * other.b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # 1/((a+bi)/d) = d*(a-bi)/(a^2+b^2)
        return QQi((self.a * other.a + self.b * other.b) * other.d,
                   (self.b * other.a - self.a * other.b) * other.d,
                   self.d * n)

    def __rtruediv__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __complex__(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QQi({self.a}, {self.b}, {self.d})"


_QQI_ZERO = QQi(0)
_QQI_ONE = QQi(1)
_QQI_I = QQi(0, 1)


def _as_qqi(value):
    if isinstance(value, QQi):
        return value
    if isinstance(value, int):
        return QQi(value)
    if isinstance(value, Fraction):
        return QQi(value.numerator, 0, value.denominator)
    return NotImplemented


Scalar = Union[QQi, complex]


def zero(backend: str) -> Scalar:
    return _QQI_ZERO if backend == EXACT else 0j


def one(backend: str) -> Scalar:
    return _QQI_ONE if backend == EXACT else 1 + 0j


def imaginary_unit(backend: str) -> Scalar:
    return _QQI_I if backend == EXACT else 1j


def coerce(value, backend: str) -> Scalar:
    """Convert a Python number (or QQi) into a scalar of the given backend."""
    if backend == EXACT:
        if isinstance(value, QQi):
            return value
        if isinstance(value, (int, Fraction)):
            return QQi.from_rational(value)
        if isinstance(value, (float, complex)):
            raise BackendMismatchError(f"a {type(value).__name__} cannot enter the exact backend")
        raise TypeError(f"cannot coerce {type(value).__name__} into an exact scalar")
    return complex(value)


def to_complex(value: Scalar) -> complex:
    return complex(value)


def modulus(value: Scalar) -> float:
    """|value| as a float; inf where a finite value's modulus is beyond the
    float range, where abs() raises.  NaN for a NaN even right after such an
    overflow: CPython's complex abs leaves errno at ERANGE then, and its NaN
    path, which does not reset errno, raises as well."""
    try:
        return abs(to_complex(value))
    except OverflowError:
        return math.nan if value != value else math.inf


def is_zero(value: Scalar, tol: float = DEFAULT_TOLERANCE) -> bool:
    if isinstance(value, QQi):
        return not value
    try:
        return abs(value) <= tol
    except OverflowError:  # as in `modulus`: a NaN right after an overflow reads False
        return modulus(value) <= tol


def close(x: Scalar, y: Scalar, tol: float = DEFAULT_TOLERANCE) -> bool:
    if isinstance(x, QQi) and isinstance(y, QQi):
        return x == y
    diff = to_complex(x) - to_complex(y)
    try:
        return abs(diff) <= tol
    except OverflowError:  # as in `modulus`: a NaN right after an overflow reads False
        return modulus(diff) <= tol

