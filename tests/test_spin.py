"""Spin group: exponentials, the sandwich action, the Lorentz double cover,
and recovery of spin elements from transported generators."""

import math
import random

import pytest

from stada import generators, spin
from stada.errors import ConvergenceError, DomainError, InvalidSpinError
from stada.multivector import MASKS_OF_GRADE, Multivector, basis_vector
from stada.scalars import EXACT, FLOAT, QQi


def test_exponential_of_zero():
    s = spin.spin_from_bivector(Multivector.zero(FLOAT).grade_part(2))
    assert (s.element - Multivector.unit(FLOAT)).max_abs() == 0.0


def test_exponential_rotation_closed_form():
    theta = math.pi / 2
    s = spin.spin_from_bivector(Multivector.basis(0b0110, FLOAT).scale(complex(theta)))
    want = (Multivector.unit(FLOAT).scale(complex(math.cos(theta)))
            + Multivector.basis(0b0110, FLOAT).scale(complex(math.sin(theta))))
    assert (s.element - want).max_abs() < 1e-14


def test_exponential_boost_closed_form():
    alpha = 0.5
    s = spin.spin_from_bivector(Multivector.basis(0b0011, FLOAT).scale(complex(alpha / 1)))
    want = (Multivector.unit(FLOAT).scale(complex(math.cosh(alpha)))
            + Multivector.basis(0b0011, FLOAT).scale(complex(math.sinh(alpha))))
    assert (s.element - want).max_abs() < 1e-14


def test_exponential_rejects_non_bivector():
    with pytest.raises(DomainError):
        spin.spin_from_bivector(basis_vector(0, FLOAT))


def test_exponential_rejects_a_complex_bivector():
    with pytest.raises(DomainError, match="must be real"):
        spin.spin_from_bivector(Multivector.basis(0b0110, FLOAT).scale(1j))


def _series_on_multivectors(b):
    """The exponential series with a whole multivector per term: the
    reference for the bits of `spin_from_bivector`."""
    total = term = Multivector.unit(FLOAT)
    for n in range(1, 257):
        term = (term * b).scale(1.0 / n)
        total = total + term
        if term.max_abs() < 1e-18:
            return total
    raise AssertionError("the reference series did not settle")


def test_exponential_keeps_the_bits_of_the_multivector_series():
    rng = random.Random(29)
    for _ in range(50):
        scale = rng.uniform(0.0, 1.5)
        b = Multivector.from_terms(
            [(m, complex(rng.uniform(-scale, scale))) for m in MASKS_OF_GRADE[2]], FLOAT)
        got = spin.spin_from_bivector(b)
        assert repr(got.element.coeffs) == repr(_series_on_multivectors(b).coeffs)


def test_exponential_series_exits():
    e01, e12 = Multivector.basis(0b0011, FLOAT), Multivector.basis(0b0110, FLOAT)
    with pytest.raises(ConvergenceError, match="grew without bound"):
        spin.spin_from_bivector(e01.scale(1000.0))
    with pytest.raises(ConvergenceError, match="did not settle in 256 terms"):
        spin.spin_from_bivector(e12.scale(150.0))
    # nan * (1 + 0j) has a NaN imaginary part, which the reality check refuses
    with pytest.raises(DomainError):
        spin.spin_from_bivector(e12.scale(math.nan))


def test_spin_membership_checks():
    with pytest.raises(InvalidSpinError):
        spin.SpinElement.of(basis_vector(0))  # odd
    with pytest.raises(InvalidSpinError):
        spin.SpinElement.of(Multivector.unit().scale(2))  # wrong normalization
    with pytest.raises(InvalidSpinError):
        spin.SpinElement.of(Multivector.unit().scale(QQi(0, 1)))  # not real


def test_sandwich_identity():
    s = spin.SpinElement.identity(FLOAT)
    u = Multivector.basis(0b0110, FLOAT)
    assert (spin.sandwich(s, u) - u).max_abs() == 0.0


def test_sandwich_grade_preservation():
    rng = random.Random(0)
    for _ in range(20):
        s = spin.random_spin(rng)
        for k in range(5):
            for m in MASKS_OF_GRADE[k]:
                moved = spin.sandwich(s, Multivector.basis(m, FLOAT))
                assert (moved - moved.grade_part(k)).max_abs() < 1e-10


def test_odd_conjugation_parity():
    rng = random.Random(1)
    for _ in range(20):
        odd = Multivector.from_terms(
            [(m, complex(rng.uniform(-1, 1)))
             for m in range(16) if len([b for b in range(4) if m >> b & 1]) % 2],
            FLOAT)
        for k in (1, 2, 3):
            for m in MASKS_OF_GRADE[k]:
                moved = odd.star() * Multivector.basis(m, FLOAT) * odd
                assert (moved - moved.grade_part(k)).max_abs() < 1e-10
        for m in (0, 0b1111):
            moved = odd.star() * Multivector.basis(m, FLOAT) * odd
            keep = moved.grade_part(0) + moved.grade_part(4)
            assert (moved - keep).max_abs() < 1e-10


def test_group_closure():
    rng = random.Random(2)
    for _ in range(30):
        s = spin.random_spin(rng) * spin.random_spin(rng)
        gap = (s.reverse * s.element - Multivector.unit(FLOAT)).max_abs()
        assert gap < 1e-10


def test_lorentz_of_identity():
    p = spin.lorentz_of(spin.SpinElement.identity(FLOAT))
    for i in range(4):
        for j in range(4):
            assert p.rows[i][j] == (1.0 if i == j else 0.0)


def test_lorentz_of_rotation_matches_standard_matrix():
    # pins the orientation: exp(-theta/2 l12) acts on coordinates as the
    # passive 1-2 rotation, the transpose of the active R(theta)
    theta = 0.3
    s = spin.spin_from_bivector(
        Multivector.basis(0b0110, FLOAT).scale(complex(-theta / 2)))
    p = spin.lorentz_of(s).as_floats()
    c, sn = math.cos(theta), math.sin(theta)
    want = ((1, 0, 0, 0), (0, c, sn, 0), (0, -sn, c, 0), (0, 0, 0, 1))
    for i in range(4):
        for j in range(4):
            assert abs(p[i][j] - want[i][j]) < 1e-12, (i, j)
    # the opposite generator sign gives the transpose
    s2 = spin.spin_from_bivector(
        Multivector.basis(0b0110, FLOAT).scale(complex(theta / 2)))
    p2 = spin.lorentz_of(s2).as_floats()
    for i in range(4):
        for j in range(4):
            assert abs(p2[i][j] - want[j][i]) < 1e-12, (i, j)


def test_lorentz_properties_and_double_cover():
    rng = random.Random(3)
    for _ in range(100):
        s = spin.random_spin(rng)
        p = spin.lorentz_of(s)
        assert p.metric_residual() <= 1e-10
        assert abs(float(p.det()) - 1.0) <= 1e-10
        assert float(p.rows[0][0]) > 0
        assert spin.lorentz_of(-s).rows == p.rows


def test_lorentz_inverse_action():
    rng = random.Random(4)
    for _ in range(25):
        s = spin.random_spin(rng)
        pq = spin.lorentz_of(s).matmul(spin.lorentz_of(s, inverse=True)).as_floats()
        for i in range(4):
            for j in range(4):
                assert abs(pq[i][j] - (1.0 if i == j else 0.0)) <= 1e-9


def test_lorentz_homomorphism_order():
    # pinned by a small case: a 1-2 rotation followed by a 1-3 rotation
    a = spin.spin_from_bivector(Multivector.basis(0b0110, FLOAT).scale(0.4 + 0j))
    b = spin.spin_from_bivector(Multivector.basis(0b1010, FLOAT).scale(-0.7 + 0j))
    lhs = spin.lorentz_of(a * b).as_floats()
    rhs = spin.lorentz_of(a).matmul(spin.lorentz_of(b)).as_floats()
    for i in range(4):
        for j in range(4):
            assert abs(lhs[i][j] - rhs[i][j]) <= 1e-12
    # and asserted globally
    rng = random.Random(5)
    for _ in range(30):
        s1, s2 = spin.random_spin(rng), spin.random_spin(rng)
        lhs = spin.lorentz_of(s1 * s2).as_floats()
        rhs = spin.lorentz_of(s1).matmul(spin.lorentz_of(s2)).as_floats()
        gap = max(abs(x - y) for ra, rb in zip(lhs, rhs) for x, y in zip(ra, rb))
        assert gap <= 1e-9


def test_rational_spin_is_exact():
    rng = random.Random(6)
    for _ in range(25):
        s = spin.random_rational_spin(rng)
        assert s.backend == EXACT
        assert s.reverse * s.element == Multivector.unit()
        p = spin.lorentz_of(s)
        assert p.det() == 1
        q = spin.lorentz_of(s, inverse=True)
        from stada import linalg
        assert linalg.mat_eq(p.matmul(q).rows, [[int(r == c) for c in range(4)] for r in range(4)])


def test_recover_spin_canonical_is_exact_identity():
    g = generators.canonical_generators()
    s = spin.recover_spin(g.h, g.i2, g.k2)
    assert s.element == Multivector.unit()


def test_recover_spin_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        s = spin.random_spin(rng, scale=0.8)
        gt = generators.transported_generators(
            s, generators.canonical_generators(FLOAT))
        r = spin.recover_spin(gt.h, gt.i2, gt.k2)
        d_plus = (r.element - s.reverse).max_abs()
        d_minus = (r.element + s.reverse).max_abs()
        assert min(d_plus, d_minus) < 1e-8
        assert (spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)).max_abs() < 1e-8
        assert (spin.sandwich(r, gt.i2)
                + Multivector.basis(0b0110, FLOAT)).max_abs() < 1e-8
        assert (spin.sandwich(r, gt.k2)
                + Multivector.basis(0b1010, FLOAT)).max_abs() < 1e-8


def test_recover_spin_candidates_differ_by_sign():
    rng = random.Random(8)
    s = spin.random_spin(rng, scale=0.5)
    gt = generators.transported_generators(s, generators.canonical_generators(FLOAT))
    a, b = spin.recover_spin_candidates(gt.h, gt.i2, gt.k2)
    assert (a.element + b.element).max_abs() < 1e-12
    # both satisfy the defining equations
    for cand in (a, b):
        assert (spin.sandwich(cand, gt.h) - basis_vector(0, FLOAT)).max_abs() < 1e-8


def test_recover_spin_rejects_bad_generators():
    from stada.errors import InvalidGeneratorError

    with pytest.raises(InvalidGeneratorError):
        spin.recover_spin(basis_vector(1),
                          -Multivector.basis(0b0110),
                          -Multivector.basis(0b1010))


def test_recover_pair_two_conditions():
    rng = random.Random(9)
    for _ in range(25):
        s = spin.random_spin(rng, scale=0.7)
        gt = generators.transported_generators(
            s, generators.canonical_generators(FLOAT))
        r = spin.recover_spin_pair(gt.h, gt.i2)
        assert (spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)).max_abs() < 1e-8
        assert (spin.sandwich(r, gt.i2)
                + Multivector.basis(0b0110, FLOAT)).max_abs() < 1e-8


def test_recover_pair_on_exact_generators_rounds_an_irrational_norm():
    # the kernel element of an exact pair is normalized exactly where its norm
    # is rational and rounded to a float spin element where it is not; both
    # kinds occur among these draws, and each solves both sandwich equations
    rng = random.Random(5)
    backends = set()
    for _ in range(20):
        gt = generators.transported_generators(spin.random_rational_spin(rng),
                                               generators.canonical_generators())
        r = spin.recover_spin_pair(gt.h, gt.i2)
        backends.add(r.element.backend)
        if r.element.backend == EXACT:
            assert spin.sandwich(r, gt.h) == basis_vector(0)
            assert spin.sandwich(r, gt.i2) == -Multivector.basis(0b0110)
        else:
            h, i2 = gt.h.to_float(), gt.i2.to_float()
            assert (spin.sandwich(r, h) - basis_vector(0, FLOAT)).max_abs() < 1e-8
            assert (spin.sandwich(r, i2) + Multivector.basis(0b0110, FLOAT)).max_abs() < 1e-8
    assert backends == {EXACT, FLOAT}
