"""Small dense linear algebra over the package's scalar backends, on
matrices no larger than 48x16.

A matrix whose entries are all exact (`QQi`, `Fraction` or `int`) is
eliminated in integers: each row is put over its own common denominator,
which is dropped, and fraction-free Gauss-Jordan elimination keeps every
row primitive by dividing it by its integer content after each update.
Each pivot is made a real integer, so dividing a pivot row by its pivot
gives the unique reduced row echelon form, whatever the pivot order.
Ranks, solves and null spaces are then exact: `Fraction`s for real input
and `QQi` for input with a `QQi` entry.  Exact `mat_mul` sums integer
numerators over one denominator per matrix and normalises once per entry.

Float matrices go to numpy: `solve` is `numpy.linalg.solve`, the null
space is spanned by the right singular vectors whose singular values are
at most 1e-9 times the largest, and the rank is the column count less the
dimension of that null space, so rank and nullity share one cutoff.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import QQi

# singular-value cutoff of the float null space and rank, relative to the
# largest singular value
_SINGULAR_CUTOFF = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x, (QQi, Fraction, int))


def _all_exact(rows) -> bool:
    return all(_is_exact(v) for row in rows for v in row)


def _numerators(values: Sequence) -> tuple[int, list[int], list[int]]:
    """(den, re, im): exact values as Gaussian-integer numerators re + i*im
    over their least common denominator den."""
    den = 1
    for v in values:
        d = v.d if isinstance(v, QQi) else v.denominator
        if d != 1:
            den = math.lcm(den, d)
    re = []
    im = []
    for v in values:
        if isinstance(v, QQi):
            f = den // v.d
            re.append(v.a * f)
            im.append(v.b * f)
        else:
            re.append(v.numerator * (den // v.denominator))
            im.append(0)
    return den, re, im


def _primitive(values: list[int]) -> list[int]:
    g = math.gcd(*values)
    return [v // g for v in values] if g > 1 else values


class _IntegerRows:
    """An exact matrix as rows of Gaussian-integer numerators, reduced in
    place by fraction-free Gauss-Jordan steps.

    Row i of an n-column matrix is one list of 2n integers, the real parts
    of its numerators followed by the imaginary parts.  `gaussian` says
    whether any input entry was a `QQi`, which fixes the type of every
    value read back.
    """

    def __init__(self, rows: Sequence[Sequence]):
        self.gaussian = any(isinstance(v, QQi) for row in rows for v in row)
        self.n_cols = len(rows[0])
        # a row's common denominator only scales the row, so it is dropped
        self.rows = [_primitive(re + im) for _, re, im in map(_numerators, rows)]
        self.pivots = self._eliminate()

    def _eliminate(self) -> list[int]:
        rows, n = self.rows, self.n_cols
        pivots = []
        for c in range(n):
            r = len(pivots)
            live = [i for i in range(r, len(rows)) if rows[i][c] or rows[i][n + c]]
            if not live:
                continue
            # any nonzero pivot gives the same reduced form; the smallest
            # keeps the integers small
            best = min(live, key=lambda i: abs(rows[i][c]) + abs(rows[i][n + c]))
            rows[r], rows[best] = rows[best], rows[r]
            p, q = rows[r][c], rows[r][n + c]
            if q:
                # times the conjugate p - i*q, which makes the pivot real
                re, im = rows[r][:n], rows[r][n:]
                rows[r] = _primitive([x * p + y * q for x, y in zip(re, im)]
                                     + [y * p - x * q for x, y in zip(re, im)])
            pivot_row = rows[r]
            pivot = pivot_row[c]
            turned = None
            for i, row in enumerate(rows):
                f, g = row[c], row[n + c]
                if i == r or not (f or g):
                    continue
                # row i becomes pivot * row_i - (f + i*g) * pivot_row
                k = math.gcd(pivot, f, g)
                scale, f, g = pivot // k, f // k, g // k
                if g:
                    if turned is None:
                        # i * pivot_row
                        turned = [-y for y in pivot_row[n:]] + pivot_row[:n]
                    rows[i] = _primitive([scale * x - f * y - g * z
                                          for x, y, z in zip(row, pivot_row, turned)])
                else:
                    rows[i] = _primitive([scale * x - f * y for x, y in zip(row, pivot_row)])
            pivots.append(c)
            if len(pivots) == len(rows):
                break
        return pivots

    def value(self, r: int, col: int, negate: bool = False):
        """Entry `col` of row r of the reduced row echelon form, negated on
        request: a Fraction for real input, a QQi for Gaussian input."""
        row = self.rows[r]
        x, y = row[col], row[self.n_cols + col]
        if negate:
            x, y = -x, -y
        pivot = row[self.pivots[r]]
        return QQi(x, y, pivot) if self.gaussian else Fraction(x, pivot)


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank by elimination when every entry is exact; otherwise the
    column count less the nullity of `null_space`."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    if not _all_exact(rows):
        return len(rows[0]) - len(null_space(rows))
    return len(_IntegerRows(rows).pivots)


def solve(matrix: Sequence[Sequence], rhs: Sequence):
    """Solve A x = b; returns None when A is singular, or when a float A or
    b holds a NaN or an infinity.  Float solutions are Python complexes."""
    n = len(matrix)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if _all_exact(rows):
        reduced = _IntegerRows(rows)
        if reduced.pivots != list(range(n)):
            return None
        return [reduced.value(i, n) for i in range(n)]
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    try:
        return np.linalg.solve(a, b).tolist()
    except np.linalg.LinAlgError:
        return None


def null_space(matrix: Sequence[Sequence]) -> list[list]:
    """Basis of the kernel of A (list of coordinate vectors).

    Exact input gives one vector per free column of the reduced row echelon
    form.  Float input gives the orthonormal right singular vectors whose
    singular values are at most 1e-9 times the largest, as Python scalars;
    a nonempty float or complex ndarray goes to the SVD as it is."""
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind in "fc" and len(matrix):
        return _float_null_space(matrix)
    rows = [list(row) for row in matrix]
    if not rows:
        return []
    if not _all_exact(rows):
        return _float_null_space(np.array(rows))
    reduced = _IntegerRows(rows)
    zero, one = (QQi(0), QQi(1)) if reduced.gaussian else (Fraction(0), Fraction(1))
    basis = []
    for free in (c for c in range(reduced.n_cols) if c not in reduced.pivots):
        vec = [zero] * reduced.n_cols
        vec[free] = one
        for r, c in enumerate(reduced.pivots):
            vec[c] = reduced.value(r, free, negate=True)
        basis.append(vec)
    return basis


def _float_null_space(a) -> list[list]:
    _, sing, vh = np.linalg.svd(a)
    cutoff = _SINGULAR_CUTOFF * (sing[0] if len(sing) else 1.0)
    return [vh[i].conj().tolist() for i in range(len(vh))
            if i >= len(sing) or sing[i] <= cutoff]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """Product of two small dense matrices as nested tuples.

    Two matrices of `QQi`, or two of `Fraction`s, are multiplied as integer
    numerators over one denominator per matrix, with one normalised value
    per entry; other entries are summed term by term."""
    n, k, m = len(a), len(b), len(b[0])
    for kind in (QQi, Fraction):
        if all(type(v) is kind for row in (*a, *b) for v in row):
            da, ar, ai = _numerators([v for row in a for v in row])
            db, br, bi = _numerators([v for row in b for v in row])
            den = da * db
            out = []
            for i in range(n):
                row = []
                for j in range(m):
                    re = im = 0
                    for t in range(k):
                        x, y = i * k + t, t * m + j
                        re += ar[x] * br[y] - ai[x] * bi[y]
                        im += ar[x] * bi[y] + ai[x] * br[y]
                    row.append(QQi(re, im, den) if kind is QQi else Fraction(re, den))
                out.append(tuple(row))
            return tuple(out)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def det(matrix: Sequence[Sequence]):
    """Determinant by elimination-free cofactor expansion (tiny matrices only)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc
