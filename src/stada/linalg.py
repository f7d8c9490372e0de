"""Small dense linear algebra over the package's scalar backends.

Everything here is Gaussian elimination with magnitude pivoting on
matrices no larger than 48x16, generic over exact Gaussian rationals,
Fractions, and Python complex.  Exact scalars give exact ranks, solves
and null spaces; the rank of a float matrix is the rank-revealing SVD
count of numpy instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from . import scalars
from .scalars import QQi

# absolute singular-value cutoff of the float rank
_FLOAT_RANK_TOL = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x, (QQi, Fraction, int))


def _nonzero(x) -> bool:
    """An exact nonzero, or a float with abs(x) > 0, which refuses NaN."""
    if _is_exact(x):
        return bool(x)
    return abs(x) > 0


def _magnitude(x):
    return scalars.magnitude_key(x) if isinstance(x, QQi) else abs(x)


def _forward_eliminate(rows: list[list]) -> list[int]:
    """In-place row echelon reduction; returns the pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = max(range(r, n_rows), key=lambda i: _magnitude(rows[i][c]), default=None)
        if pivot is None or not _nonzero(rows[pivot][c]):
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and _nonzero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank by elimination when every entry is exact; otherwise the
    number of singular values above an absolute 1e-9."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    if not all(_is_exact(v) for row in rows for v in row):
        return int(np.linalg.matrix_rank(np.array(rows), tol=_FLOAT_RANK_TOL))
    return len(_forward_eliminate(rows))


def solve(matrix: Sequence[Sequence], rhs: Sequence):
    """Solve A x = b; returns None when A is singular."""
    n = len(matrix)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = _forward_eliminate(rows)
    if pivots != list(range(n)):
        return None
    return [rows[i][n] for i in range(n)]


def _one_like(x):
    if isinstance(x, QQi):
        return QQi(1)
    if isinstance(x, Fraction):
        return Fraction(1)
    if isinstance(x, int):
        return 1
    return 1.0 + 0.0j if isinstance(x, complex) else 1.0


def null_space(matrix: Sequence[Sequence]) -> list[list]:
    """Basis of the kernel of A (list of coordinate vectors)."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots = _forward_eliminate(rows)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    zero = matrix[0][0] - matrix[0][0]
    one = _one_like(matrix[0][0])
    for free in free_cols:
        vec = [zero] * n_cols
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    return basis


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """Product of two small dense matrices as nested tuples."""
    n, k, m = len(a), len(b), len(b[0])
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


def mat_identity(n: int, like) -> tuple:
    one = _one_like(like)
    zero = like - like
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


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
