"""The exact number format and the bilinear kernel behind every blade-table
product in the package.

Exact coefficients below `Multivector` have one format, the numerator
form (den, re, im): a positive integer denominator and two tuples of
integers, coefficient k being (re[k] + i*im[k]) / den.  `lowest_terms`
divides all three by gcd(den, *re, *im), one `math.gcd` per result; the
form is then unique, so two exact values are equal exactly when their
forms are.  `numerator_form` puts normalised `QQi` coefficients over their
least common denominator, which is already in lowest terms, and
`coefficients` turns a form back into `QQi`, one per nonzero entry, at the
API boundary.

A blade product table maps an ordered pair of basis blades (i, j) to a
signed blade (sign, mask), with sign 0 where the product vanishes.
`BladeProduct` holds one table and evaluates the bilinear product it
defines:

* `exact` multiplies two numerator forms: Gaussian-integer numerators are
  multiplied and summed per output blade, and the result is brought to
  lowest terms once.  Normalised forms are unique, so the result equals
  term-by-term `QQi` arithmetic exactly.  The sums take one of two
  routes, picked by the operands alone, with no option:
  - the int64 route, for a dense product: the live blades of `a` and `b`
    pair up at least `DENSE_PAIRS` times and every numerator is below
    `INT64_BOUND` in absolute value.  A gather index and a sign matrix,
    built once per table on the first such product, lay the numerators of
    `b` out as the signed 32x32 matrix of x -> x*b, and one int64
    matrix-vector product with the 32 numerators of `a` gives the 32 sums.
    The bound keeps every sum below 2^61, so int64 never overflows and the
    sums are the loop's integers (the proof is at `_int64_sums`);
  - the Python loop over the live blades, on integers of any size, for
    every other product: a sparse operand, a numerator at or above the
    bound, or a table that is not an XOR table (see `gather_tables`).
    `exact_scalar_part`, `sparse` and `ExactLinearMap` always loop;
* `sparse` multiplies two blade-sparse maps from keys to Gaussian-integer
  numerator pairs, the exact term format of `fields.AnalyticField`: a key
  carries its blade in the low four bits, and the bits above add under the
  product (there, the packed exponents of a monomial);
* `generic` sums any other coefficient ring (complex floats, float
  polynomials) term by term from the given zero, over the live blades of
  `b`, collected once, in ascending (i, j) order: the order of the plain
  table loop, so float results keep their rounding bit for bit.

The dual-route oracles (`suites.oracle_blade_product`,
`exterior.clifford_product_via_table`, the brute-force Hodge star and the
grade-pair table) check products computed here, read only `QQi`
coefficients, and never use this module.
"""

from __future__ import annotations

import math
from operator import or_
from typing import Sequence

from .scalars import EXACT, QQi, Scalar, zero

_ZERO = zero(EXACT)

# live flags for an operand whose every blade takes part, as in a matrix
EVERY_BLADE = (True,) * 16

# the bits of a blade-sparse key above its blade
_ABOVE_BLADE = -16

# An exact product takes the int64 route when the live blades of its
# operands pair up at least this often (8 x 8, two even multivectors, say)
# and every numerator is below INT64_BOUND in absolute value.  Below this
# count the Python loop, which skips dead blades, is the faster of the two.
DENSE_PAIRS = 64
INT64_BOUND = 1 << 28


def lowest_terms(den: int, re: Sequence[int], im: Sequence[int]) -> tuple:
    """The numerator form (den, re, im) divided by gcd(den, *re, *im); den > 0.
    Zero comes out as denominator 1 over zero numerators."""
    g = math.gcd(den, *re, *im)
    if g == 1:
        return den, tuple(re), tuple(im)
    return den // g, tuple([x // g for x in re]), tuple([x // g for x in im])


def numerator_form(coeffs: Sequence[QQi]) -> tuple:
    """The numerator form of normalised QQi coefficients, over their least
    common denominator.  It is in lowest terms: a prime dividing that
    denominator and every numerator would divide some coefficient's own
    a, b and d."""
    den = 1
    for c in coeffs:
        # a zero QQi is normalised to denominator 1
        if c.d != 1:
            den = math.lcm(den, c.d)
    if den == 1:
        return 1, tuple([c.a for c in coeffs]), tuple([c.b for c in coeffs])
    return (den, tuple([c.a * (den // c.d) for c in coeffs]),
            tuple([c.b * (den // c.d) for c in coeffs]))


def coefficients(den: int, re: Sequence[int], im: Sequence[int]) -> tuple:
    """The QQi coefficients of a numerator form, one QQi per nonzero entry."""
    return tuple([QQi(r, s, den) if r or s else _ZERO for r, s in zip(re, im)])


def add_forms(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """a + sign*b for numerator forms, sign = 1 or -1, in lowest terms."""
    da, ar, ai = a
    db, br, bi = b
    if da == db:
        fa = fb = 1
    else:
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
    fb *= sign
    return lowest_terms(da * fa, [x * fa + y * fb for x, y in zip(ar, br)],
                        [x * fa + y * fb for x, y in zip(ai, bi)])


def scale_form(a: tuple, s: QQi) -> tuple:
    """s*a for a numerator form and a Gaussian rational s, in lowest terms."""
    den, ar, ai = a
    p, q = s.a, s.b
    if not q:
        return lowest_terms(den * s.d, [x * p for x in ar], [y * p for y in ai])
    return lowest_terms(den * s.d, [x * p - y * q for x, y in zip(ar, ai)],
                        [x * q + y * p for x, y in zip(ar, ai)])


def map_form(a: tuple, table, conjugate: bool = False) -> tuple:
    """A blade map in the (sign, target) format of `exterior.STAR_TABLE`
    applied to a numerator form, optionally conjugating, in lowest terms."""
    den, ar, ai = a
    re = [0] * 16
    im = [0] * 16
    for x, y, (sign, target) in zip(ar, ai, table):
        if sign:
            if conjugate:
                y = -y
            re[target], im[target] = (x, y) if sign > 0 else (-x, -y)
    return lowest_terms(den, re, im)


def gather_tables(table) -> tuple:
    """The int64 tables (index, sign) of a blade table, for the vector
    v = ar + ai + br + bi of two numerator forms: (v[index] * sign) @ v[:32]
    gives the 16 real, then 16 imaginary, numerator sums of the product.

    Row k (real) and 16 + k (imaginary) of output blade k take, in column
    i (of ar[i]) and 16 + i (of ai[i]), the numerator of b on blade j with
    (i, j) -> (sign, k), since (ar + i ai)(br + i bi) = (ar br - ai bi) +
    i (ar bi + ai br).  That j must be unique for each (i, k), so the table
    must be an XOR table, each nonzero entry (i, j) landing on blade i ^ j,
    as the Clifford and exterior tables do; any other table is refused with
    ValueError.  Both arrays are read-only.
    """
    import numpy as np

    index = np.zeros((32, 32), dtype=np.intp)
    signs = np.zeros((32, 32), dtype=np.int64)
    for i, row in enumerate(table):
        for j, (sign, mask) in enumerate(row):
            if not sign:
                continue
            if mask != i ^ j:
                raise ValueError(f"blade {i} times blade {j} lands on {mask}, not on {i ^ j}")
            re_b, im_b = 32 + j, 48 + j
            index[mask, i], signs[mask, i] = re_b, sign
            index[mask, 16 + i], signs[mask, 16 + i] = im_b, -sign
            index[16 + mask, i], signs[16 + mask, i] = im_b, sign
            index[16 + mask, 16 + i], signs[16 + mask, 16 + i] = re_b, sign
    index.flags.writeable = False
    signs.flags.writeable = False
    return index, signs


class BladeProduct:
    """One blade product table and the bilinear product it defines."""

    __slots__ = ("table", "rows", "scalar_terms", "_gather")

    def __init__(self, table):
        # table[i][j]: (sign, mask) of blade i times blade j
        self.table = tuple(tuple(row) for row in table)
        # rows[i]: the nonzero terms (j, sign, mask) with blade i on the left, ascending j
        self.rows = tuple(tuple((j, sign, mask) for j, (sign, mask) in enumerate(self.table[i])
                                if sign)
                          for i in range(16))
        # (i, j, sign) of the terms landing on the unit blade
        self.scalar_terms = tuple((i, j, sign) for i, row in enumerate(self.rows)
                                  for j, sign, mask in row if mask == 0)
        # the int64 tables of `exact`, built on its first dense product
        self._gather = None

    def generic(self, a: Sequence, b: Sequence, zero_value) -> list:
        """The product over any coefficient ring whose zero is falsy, summed
        over the live blades of b in ascending (i, j) order."""
        out = [zero_value] * 16
        table = self.table
        live = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if not x:
                continue
            row = table[i]
            for j, y in live:
                sign, mask = row[j]
                if sign:
                    out[mask] = out[mask] + x * y if sign > 0 else out[mask] - x * y
        return out

    def exact(self, a: tuple, b: tuple) -> tuple:
        """The product of two numerator forms, in lowest terms."""
        da, ar, ai = a
        db, br, bi = b
        live = [(j, y, z) for j, y, z in zip(range(16), br, bi) if y or z]
        n = len(live)
        # live pairs are n times the live blades of a, which are not counted
        # when b alone is too sparse; x | y is zero exactly when x and y both
        # are, so the zeros of map(or_, ar, ai) are the dead blades of a
        if n * 16 >= DENSE_PAIRS and n * (16 - list(map(or_, ar, ai)).count(0)) >= DENSE_PAIRS:
            v = ar + ai + br + bi
            if -INT64_BOUND < min(v) and max(v) < INT64_BOUND and self._int64_tables():
                sums = self._int64_sums(v)
                return lowest_terms(da * db, sums[:16], sums[16:])
        re, im = self._loop_sums(ar, ai, live)
        return lowest_terms(da * db, re, im)

    def _loop_sums(self, ar: Sequence[int], ai: Sequence[int], live: list) -> tuple:
        """The unreduced real and imaginary numerator sums of a product, by
        the table loop over the live blades (j, br[j], bi[j]) of b."""
        re = [0] * 16
        im = [0] * 16
        table = self.table
        for i in range(16):
            xr = ar[i]
            xi = ai[i]
            if not (xr or xi):
                continue
            row = table[i]
            for j, yr, yi in live:
                sign, mask = row[j]
                if sign > 0:
                    re[mask] += xr * yr - xi * yi
                    im[mask] += xr * yi + xi * yr
                elif sign:
                    re[mask] -= xr * yr - xi * yi
                    im[mask] -= xr * yi + xi * yr
        return re, im

    def _int64_tables(self):
        """The (index, sign) pair of `gather_tables`, built on first use;
        False for a table that `gather_tables` refuses."""
        if self._gather is None:
            try:
                self._gather = gather_tables(self.table)
            except ValueError:
                self._gather = False
        return self._gather

    def _int64_sums(self, v: tuple) -> list:
        """The 16 real, then 16 imaginary, unreduced numerator sums of a
        product, as Python ints, from v = ar + ai + br + bi with every
        |entry| < INT64_BOUND.

        Bound: output k sums the 32 products sign * x_i * y, one per
        numerator x_i of a, each y a numerator of b.  With |x|, |y| < 2^28
        each product is below 2^56 in absolute value, so every partial sum,
        in whatever order the matrix product adds them, is below
        32 * 2^56 = 2^61 < 2^63 and int64 cannot overflow: the sums are
        exactly the integers the loop forms.
        """
        import numpy as np

        index, sign = self._gather
        x = np.fromiter(v, np.int64, 64)
        m = x[index]
        m *= sign
        return (m @ x[:32]).tolist()

    def sparse(self, a: dict, b: dict) -> dict:
        """The product of two blade-sparse maps key -> (re, im), over the
        product of their denominators, neither reduced nor freed of zeros."""
        by_blade = [[] for _ in range(16)]
        for k, (r, s) in b.items():
            by_blade[k & 15].append((k & _ABOVE_BLADE, r, s))
        live = [j for j in range(16) if by_blade[j]]
        acc = {}
        for ka, (ar, ai) in a.items():
            row = self.table[ka & 15]
            base = ka & _ABOVE_BLADE
            for j in live:
                sign, mask = row[j]
                if not sign:
                    continue
                for above, br, bi in by_blade[j]:
                    k = (base + above) | mask
                    re = ar * br - ai * bi
                    im = ar * bi + ai * br
                    if sign < 0:
                        re, im = -re, -im
                    o = acc.get(k)
                    acc[k] = (re, im) if o is None else (o[0] + re, o[1] + im)
        return acc

    def scalar_part(self, a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
        """Unit-blade coefficient of the product of two float expansions,
        without forming the rest."""
        acc = 0j
        for i, j, sign in self.scalar_terms:
            x, y = a[i], b[j]
            if not x or not y:
                continue
            p = x * y
            acc = acc + p if sign > 0 else acc - p
        return acc

    def exact_scalar_part(self, a: tuple, b: tuple) -> tuple:
        """(re, im, den): the unit-blade coefficient of the product of two
        numerator forms, (re + i*im)/den, not reduced."""
        da, ar, ai = a
        db, br, bi = b
        re = im = 0
        for i, j, sign in self.scalar_terms:
            xr, xi, yr, yi = ar[i], ai[i], br[j], bi[j]
            if not (xr or xi) or not (yr or yi):
                continue
            if sign > 0:
                re += xr * yr - xi * yi
                im += xr * yi + xi * yr
            else:
                re -= xr * yr - xi * yi
                im -= xr * yi + xi * yr
        return re, im, da * db

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
    so applying it to a numerator form accumulates Gaussian integers and
    builds one `QQi` per nonzero output.
    """

    __slots__ = ("den", "size", "cols")

    def __init__(self, images: Sequence[Sequence[QQi]]):
        forms = [numerator_form(image) for image in images]
        den = math.lcm(*(d for d, _, _ in forms))
        self.den = den
        self.size = len(images[0])
        # cols[m]: (e, re, im) with den * images[m][e] == re + im*i, nonzero only
        self.cols = tuple(
            tuple((e, r * (den // d), s * (den // d))
                  for e, (r, s) in enumerate(zip(re, im)) if r or s)
            for d, re, im in forms)

    def __call__(self, form: tuple) -> tuple:
        """The QQi image of a numerator form."""
        du, ur, ui = form
        re = [0] * self.size
        im = [0] * self.size
        for col, xr, xi in zip(self.cols, ur, ui):
            if not (xr or xi):
                continue
            for e, p, q in col:
                re[e] += xr * p - xi * q
                im[e] += xr * q + xi * p
        return coefficients(du * self.den, re, im)
