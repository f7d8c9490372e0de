"""The bilinear kernel behind every blade-table product in the package.

A blade product table maps an ordered pair of basis blades (i, j) to a
signed blade (sign, mask), with sign 0 where the product vanishes.
`BladeProduct` keeps only the nonzero terms (i, j, sign, mask) of one
table, grouped by left factor, and evaluates the
bilinear product they define on 16-entry coefficient sequences:

* exact coefficients (`QQi`) are put over one shared denominator per
  operand; the Gaussian-integer numerators are multiplied and summed per
  output blade in integer arithmetic, and each nonzero output coefficient
  is normalised once, by one `QQi` construction.  Normalised Gaussian
  rationals are unique, so the result equals term-by-term `QQi`
  arithmetic exactly;
* any other coefficient ring (complex floats, polynomials) is summed term
  by term in ascending (i, j) order from the given zero, the order of the
  plain table loop, so float results keep their rounding bit for bit.

The dual-route oracles (`suites.oracle_blade_product`,
`exterior.clifford_product_via_table`, the brute-force Hodge star and the
grade-pair table) check products computed here and never use this module.
"""

from __future__ import annotations

import math
from typing import Sequence

from .scalars import EXACT, QQi, Scalar, zero

_ZERO = zero(EXACT)

# live flags for an operand whose every blade takes part, as in a matrix
EVERY_BLADE = (True,) * 16


def _numerators(coeffs: Sequence[QQi]) -> tuple[int, list]:
    """(D, nums): D is the least common denominator of the coefficients and
    nums[k] is the Gaussian integer (re, im) equal to D * coeffs[k], or None
    where the coefficient is zero."""
    den = 1
    for c in coeffs:
        # a zero QQi is normalised to denominator 1
        if c.d != 1:
            den = math.lcm(den, c.d)
    if den == 1:
        return 1, [(c.a, c.b) if c else None for c in coeffs]
    return den, [(c.a * (den // c.d), c.b * (den // c.d)) if c else None for c in coeffs]


class BladeProduct:
    """The nonzero terms of one blade product table and the product they define."""

    __slots__ = ("rows", "scalar_terms")

    def __init__(self, table):
        # rows[i]: the terms (j, sign, mask) with blade i on the left, ascending j
        self.rows = tuple(tuple((j, sign, mask) for j, (sign, mask) in enumerate(table[i]) if sign)
                          for i in range(16))
        # (i, j, sign) of the terms landing on the unit blade
        self.scalar_terms = tuple((i, j, sign) for i, row in enumerate(self.rows)
                                  for j, sign, mask in row if mask == 0)

    def product(self, a: Sequence[Scalar], b: Sequence[Scalar], backend: str) -> list:
        """Coefficients of the product of two blade expansions."""
        if backend == EXACT:
            return self._exact(a, b)
        return self.generic(a, b, 0j)

    def generic(self, a: Sequence, b: Sequence, zero_value) -> list:
        """The product over any coefficient ring whose zero is falsy."""
        out = [zero_value] * 16
        rows = self.rows
        for i, x in enumerate(a):
            if not x:
                continue
            for j, sign, mask in rows[i]:
                y = b[j]
                if not y:
                    continue
                p = x * y
                out[mask] = out[mask] + p if sign > 0 else out[mask] - p
        return out

    def _exact(self, a: Sequence[QQi], b: Sequence[QQi]) -> list:
        da, na = _numerators(a)
        db, nb = _numerators(b)
        re = [0] * 16
        im = [0] * 16
        rows = self.rows
        for i, x in enumerate(na):
            if x is None:
                continue
            xr, xi = x
            for j, sign, mask in rows[i]:
                y = nb[j]
                if y is None:
                    continue
                yr, yi = y
                if sign > 0:
                    re[mask] += xr * yr - xi * yi
                    im[mask] += xr * yi + xi * yr
                else:
                    re[mask] -= xr * yr - xi * yi
                    im[mask] -= xr * yi + xi * yr
        den = da * db
        return [QQi(r, s, den) if r or s else _ZERO for r, s in zip(re, im)]

    def scalar_part(self, a: Sequence[Scalar], b: Sequence[Scalar], backend: str) -> Scalar:
        """Unit-blade coefficient of the product, without forming the rest."""
        if backend == EXACT:
            da, na = _numerators(a)
            db, nb = _numerators(b)
            re = im = 0
            for i, j, sign in self.scalar_terms:
                x, y = na[i], nb[j]
                if x is None or y is None:
                    continue
                r = x[0] * y[0] - x[1] * y[1]
                s = x[0] * y[1] + x[1] * y[0]
                if sign > 0:
                    re, im = re + r, im + s
                else:
                    re, im = re - r, im - s
            return QQi(re, im, da * db) if re or im else _ZERO
        acc = 0j
        for i, j, sign in self.scalar_terms:
            x, y = a[i], b[j]
            if not x or not y:
                continue
            p = x * y
            acc = acc + p if sign > 0 else acc - p
        return acc

    def live_terms(self, a: Sequence, b: Sequence) -> list:
        """The terms (i, j, sign, mask) with a[i] and b[j] both truthy, in
        ascending (i, j) order.  a and b are coefficients or live flags.
        With `EVERY_BLADE` on one side these are the entries of a
        multiplication matrix, one term per matrix entry."""
        return [(i, j, sign, mask) for i, x in enumerate(a) if x
                for j, sign, mask in self.rows[i] if b[j]]


class ExactLinearMap:
    """An exact linear map on blade coefficients, given by the images of the
    16 basis blades.

    The images are put over one shared denominator when the map is built,
    so applying it accumulates Gaussian integers and normalises each output
    once, like `BladeProduct` does for products.
    """

    __slots__ = ("den", "rows")

    def __init__(self, images: Sequence[Sequence[QQi]]):
        den = 1
        for image in images:
            den = math.lcm(den, _numerators(image)[0])
        self.den = den
        # rows[e]: (m, re, im) with den * images[m][e] == re + im*i, nonzero only
        self.rows = tuple(
            tuple((m, c.a * (den // c.d), c.b * (den // c.d))
                  for m, image in enumerate(images) for c in (image[e],) if c)
            for e in range(len(images[0])))

    def __call__(self, coeffs: Sequence[QQi]) -> list:
        du, nums = _numerators(coeffs)
        den = du * self.den
        out = []
        for row in self.rows:
            re = im = 0
            for m, p, q in row:
                x = nums[m]
                if x is None:
                    continue
                re += x[0] * p - x[1] * q
                im += x[0] * q + x[1] * p
            out.append(QQi(re, im, den) if re or im else _ZERO)
        return out
