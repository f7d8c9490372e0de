"""Small dense linear algebra over the package's scalar backends.

Everything here is Gaussian elimination with magnitude pivoting on
matrices no larger than 48x16, generic over exact Gaussian rationals,
Fractions, and Python complex.  Exact scalars give exact ranks, solves,
inverses, and null spaces; float callers that need rank-revealing
robustness (SVD) go through numpy instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import scalars
from .scalars import QQi


def _is_exact(x) -> bool:
    return isinstance(x, (QQi, Fraction, int))


def _nonzero(x, tol: float) -> bool:
    if _is_exact(x):
        return bool(x)
    return abs(x) > tol


def _magnitude(x):
    if isinstance(x, QQi):
        return scalars.magnitude_key(x)
    if isinstance(x, (Fraction, int)):
        return abs(x)
    return abs(x)


def _forward_eliminate(rows: list[list], tol: float) -> list[int]:
    """In-place row echelon reduction; returns the pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = max(range(r, n_rows), key=lambda i: _magnitude(rows[i][c]), default=None)
        if pivot is None or not _nonzero(rows[pivot][c], tol):
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and _nonzero(rows[i][c], 0.0 if _is_exact(rows[i][c]) else tol):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rank(matrix: Sequence[Sequence], tol: float = 0.0) -> int:
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return len(_forward_eliminate(rows, tol))


def solve(matrix: Sequence[Sequence], rhs: Sequence, tol: float = 0.0):
    """Solve A x = b; returns None when A is singular."""
    n = len(matrix)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = _forward_eliminate(rows, tol)
    if pivots != list(range(n)):
        return None
    return [rows[i][n] for i in range(n)]


def inverse(matrix: Sequence[Sequence], tol: float = 0.0):
    """Inverse of a square matrix; returns None when singular."""
    n = len(matrix)
    zero = matrix[0][0] - matrix[0][0]
    one = _one_like(matrix[0][0])
    rows = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(matrix)]
    pivots = _forward_eliminate(rows, tol)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def _one_like(x):
    if isinstance(x, QQi):
        return QQi(1)
    if isinstance(x, Fraction):
        return Fraction(1)
    if isinstance(x, int):
        return 1
    return 1.0 + 0.0j if isinstance(x, complex) else 1.0


def null_space(matrix: Sequence[Sequence], tol: float = 0.0) -> list[list]:
    """Basis of the kernel of A (list of coordinate vectors)."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots = _forward_eliminate(rows, tol)
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


def mat_transpose(a: Sequence[Sequence]) -> tuple:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


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
