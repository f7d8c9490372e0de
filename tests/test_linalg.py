"""Exact linear algebra: integer-only input, the fraction-free elimination
against the QQi elimination it replaced, the multivector inverse, and the
exact matrix product against term-by-term arithmetic.  Float linear
algebra: numpy's solver against the exact solve, and the SVD null space on
badly scaled matrices."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from stada import linalg
from stada.multivector import Multivector, format_multivector, inverse, left_matrix
from stada.scalars import EXACT, QQi


def reference_eliminate(matrix):
    """The elimination of earlier versions, kept as a reference: Gauss-Jordan
    in QQi or Fraction arithmetic with magnitude pivoting.  Returns the pivot
    columns and the nonzero rows of the reduced row echelon form."""
    rows = [list(row) for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])

    def magnitude(x):
        # |z|^2, exact for QQi
        return Fraction(x.a * x.a + x.b * x.b, x.d * x.d) if isinstance(x, QQi) else abs(x)

    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = max(range(r, n_rows), key=lambda i: magnitude(rows[i][c]), default=None)
        if pivot is None or not rows[pivot][c]:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots, rows[:len(pivots)]


def reference_mat_mul(a, b):
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(1, len(b))), a[i][0] * b[0][j])
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def _entry(rng, kind, span):
    d = rng.choice((1, 1, 2, 3, 5, 12))
    if kind == "fraction":
        return Fraction(rng.randint(-span, span), d)
    if kind == "real_qqi":
        return QQi(rng.randint(-span, span), 0, d)
    return QQi(rng.randint(-span, span), rng.randint(-span, span), d)


def random_matrix(rng, n_rows, n_cols, kind, rank=None, span=4):
    """A random exact matrix; with `rank`, a product of n_rows x rank and
    rank x n_cols factors, so its rank is at most `rank`."""
    if rank is None:
        rows = [[_entry(rng, kind, span) for _ in range(n_cols)] for _ in range(n_rows)]
        # some zeros, as in the sparse matrices of the algebra
        for _ in range(n_rows * n_cols // 4):
            rows[rng.randrange(n_rows)][rng.randrange(n_cols)] = (
                Fraction(0) if kind == "fraction" else QQi(0))
        return rows
    left = random_matrix(rng, n_rows, rank, kind, span=span)
    right = random_matrix(rng, rank, n_cols, kind, span=span)
    return [list(row) for row in reference_mat_mul(left, right)]


SHAPES = [(3, 3), (4, 5), (6, 4), (8, 8), (12, 16), (16, 17), (32, 8)]


def test_integer_matrices_are_eliminated_exactly():
    assert linalg.rank([[7, -5, -6], [0, -8, -6], [35, -41, -42]]) == 2
    solution = linalg.solve([[3, 1], [1, 2]], [1, 1])
    assert solution == [Fraction(1, 5), Fraction(2, 5)]
    assert all(type(x) is Fraction for x in solution)
    kernel = linalg.null_space([[1, 2], [2, 4]])
    assert kernel == [[-2, 1]]
    assert all(type(x) is Fraction for x in kernel[0])


def test_singular_integer_ranks():
    rng = random.Random(5)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([a * x + b * y for x, y in zip(*rows)])
        want, _ = reference_eliminate([[Fraction(v) for v in row] for row in rows])
        assert linalg.rank(rows) == len(want) <= 2


def integer_row_reduce(matrix):
    """(pivot columns, nonzero rows of the reduced row echelon form) of the
    integer elimination behind exact rank, solve and null_space."""
    rows = linalg._IntegerRows(matrix)
    return rows.pivots, [[rows.value(r, c) for c in range(rows.n_cols)]
                         for r in range(len(rows.pivots))]


@pytest.mark.parametrize("kind", ["qqi", "real_qqi", "fraction"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("deficient", [False, True])
def test_elimination_matches_qqi_reference(kind, shape, deficient):
    n_rows, n_cols = shape
    rng = random.Random(f"{kind}:{shape}:{deficient}")
    rank = max(1, min(shape) // 2) if deficient else None
    for _ in range(2):
        matrix = random_matrix(rng, n_rows, n_cols, kind, rank)
        want_pivots, want_rows = reference_eliminate(matrix)
        got_pivots, got_rows = integer_row_reduce(matrix)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        assert [[type(v) for v in row] for row in got_rows] == \
            [[type(v) for v in row] for row in want_rows]
        assert linalg.rank(matrix) == len(want_pivots)
        if deficient:
            assert len(want_pivots) <= rank


def test_elimination_past_64_bits():
    rng = random.Random(64)
    big = 2 ** 90
    for kind in ("qqi", "fraction"):
        matrix = random_matrix(rng, 6, 7, kind, span=big)
        matrix += [[2 * v for v in matrix[0]]]
        want_pivots, want_rows = reference_eliminate(matrix)
        assert integer_row_reduce(matrix) == (want_pivots, want_rows)
        assert any(abs(v.a if kind == "qqi" else v.numerator) > 2 ** 64
                   for row in want_rows for v in row)


@pytest.mark.parametrize("kind", ["qqi", "fraction"])
def test_solve_and_null_space_match_reference(kind):
    rng = random.Random(kind)
    for n, deficient in ((4, False), (8, True), (16, False), (16, True)):
        matrix = random_matrix(rng, n, n, kind, n - 2 if deficient else None)
        rhs = [_entry(rng, kind, 4) for _ in range(n)]
        pivots, rows = reference_eliminate([row + [b] for row, b in zip(matrix, rhs)])
        got = linalg.solve(matrix, rhs)
        if pivots == list(range(n)):
            assert got == [row[n] for row in rows]
        else:
            assert got is None
        pivots, rows = reference_eliminate(matrix)
        zero, one = (QQi(0), QQi(1)) if kind == "qqi" else (Fraction(0), Fraction(1))
        want = []
        for free in (c for c in range(n) if c not in pivots):
            vec = [zero] * n
            vec[free] = one
            for r, c in enumerate(pivots):
                vec[c] = -rows[r][free]
            want.append(vec)
        got = linalg.null_space(matrix)
        assert got == want
        assert [[type(v) for v in vec] for vec in got] == [[type(v) for v in vec] for vec in want]


def test_inverse_matches_reference_solve():
    rng = random.Random(17)
    for _ in range(20):
        u = Multivector([_entry(rng, "qqi", 6) for _ in range(16)], EXACT)
        rhs = [QQi(1)] + [QQi(0)] * 15
        pivots, rows = reference_eliminate([row + [b] for row, b in zip(left_matrix(u), rhs)])
        if pivots != list(range(16)):
            with pytest.raises(ZeroDivisionError):
                inverse(u)
            continue
        inv = inverse(u)
        assert inv.coeffs == tuple(row[16] for row in rows)
        assert u * inv == Multivector.unit() == inv * u
    singular = Multivector.from_terms([(0, QQi(1)), (1, QQi(1))])
    with pytest.raises(ZeroDivisionError):
        inverse(singular)


def test_exact_mat_mul_matches_term_by_term():
    rng = random.Random(3)
    for kind in ("qqi", "real_qqi", "fraction"):
        for _ in range(20):
            a = random_matrix(rng, 4, 4, kind, span=9)
            b = random_matrix(rng, 4, 4, kind, span=9)
            got = linalg.mat_mul(a, b)
            want = reference_mat_mul(a, b)
            assert got == want
            assert [[type(v) for v in row] for row in got] == \
                [[type(v) for v in row] for row in want]
    # mixed entry types take the term-by-term loop
    assert linalg.mat_mul([[1, Fraction(1, 2)]], [[2], [4]]) == ((Fraction(4),),)
    assert linalg.mat_mul([[1, 2]], [[3], [4]]) == ((11,),)


# ---- float routes: numpy's solver and the SVD null space ------------------------------


@pytest.mark.parametrize("kind", ["qqi", "fraction"])
def test_float_solve_matches_exact_solve(kind):
    rng = random.Random(f"float:{kind}")
    solved = 0
    for n in (2, 4, 8, 16):
        for _ in range(5):
            matrix = random_matrix(rng, n, n, kind)
            rhs = [_entry(rng, kind, 4) for _ in range(n)]
            want = linalg.solve(matrix, rhs)
            got = linalg.solve([[complex(v) for v in row] for row in matrix],
                               [complex(v) for v in rhs])
            if want is None:
                continue
            solved += 1
            assert all(type(x) is complex for x in got)
            size = max(abs(complex(x)) for x in want)
            assert max(abs(x - complex(y)) for x, y in zip(got, want)) <= 1e-12 * size
    assert solved >= 15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_solve_refuses_singular_and_non_finite(bad):
    assert linalg.solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0]) is None
    assert linalg.solve([[1j, 0j], [0j, 0j]], [1j, 0j]) is None
    assert linalg.solve([[1.0, bad], [0.0, 1.0]], [1.0, 1.0]) is None
    assert linalg.solve([[1.0, 0.0], [0.0, 1.0]], [bad, 1.0]) is None


def test_float_inverse_prints_plain_numbers():
    u = Multivector.from_terms([(0, QQi(2)), (1, QQi(1)), (0b0110, QQi(1, 0, 2))])
    text = format_multivector(inverse(u.to_float()))
    assert "np." not in text and "float64" not in text
    assert text.startswith("0.56216216216216")
    assert all(type(c) is complex for c in inverse(u.to_float()).coeffs)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("kind", ["qqi", "fraction"])
def test_float_null_space_is_orthonormal_and_scale_free(kind, scale):
    rng = random.Random(f"null:{kind}")
    for n_rows, n_cols in ((4, 6), (8, 8), (16, 16), (48, 16)):
        matrix = random_matrix(rng, n_rows, n_cols, kind, rank=n_cols // 2)
        nullity = n_cols - linalg.rank(matrix)
        floats = [[complex(v) * scale for v in row] for row in matrix]
        if kind == "fraction":
            floats = [[v.real for v in row] for row in floats]
        kernel = linalg.null_space(floats)
        assert len(kernel) == nullity
        assert all(type(x) is (complex if kind == "qqi" else float)
                   for vec in kernel for x in vec)
        a, v = np.array(floats), np.array(kernel).T
        assert np.abs(v.conj().T @ v - np.eye(nullity)).max() <= 1e-12
        assert np.abs(a @ v).max() <= 1e-12 * np.abs(a).max()


def test_float_rank_and_nullity_share_one_cutoff():
    # every entry is below an absolute 1e-9; the relative cutoff sees rank 2
    matrix = [[1e-12, 2e-12, 0.0], [2e-12, 4e-12, 0.0], [0.0, 0.0, 1e-12]]
    assert linalg.rank(matrix) == 2
    assert linalg.rank(matrix) + len(linalg.null_space(matrix)) == 3
    scaled = [[v * 1e12 for v in row] for row in matrix]
    assert linalg.rank(scaled) == 2 and len(linalg.null_space(scaled)) == 1
