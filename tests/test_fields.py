"""Analytic form fields and the first- and second-order operators."""

import cmath
import random
from fractions import Fraction

import pytest

from stada.errors import DomainError
from stada.exterior import hodge_star
from stada.fields import (
    AnalyticField,
    Poly,
    d,
    delta,
    laplace,
    phase_cos,
    phase_key,
    phase_sin,
    real_polynomial,
    upsilon,
    upsilon_gradient,
)
from stada.multivector import CLIFFORD, WEDGE, Multivector, basis_vector
from stada.scalars import EXACT, FLOAT, QQi


def random_exact_field(rng, nterms=3):
    entries = []
    for _ in range(nterms):
        phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                      Fraction(rng.randint(-2, 2))})
        coeffs = [Poly() for _ in range(16)]
        for _ in range(3):
            m = rng.randrange(16)
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            coeffs[m] = coeffs[m] + Poly(
                {exps: QQi(rng.randint(-2, 2), rng.randint(-2, 2))})
        entries.append((phase, coeffs))
    return AnalyticField(EXACT, entries)


# ---- Poly ------------------------------------------------------------------


def test_poly_arithmetic():
    x1 = Poly.coordinate(1, QQi(1))
    p = x1 * x1 + Poly.constant(QQi(2))
    assert p.diff(1) == x1.scale(QQi(2))
    assert p.diff(0).is_zero()
    assert p.eval((0.0, 3.0, 0.0, 0.0)) == 11.0


def test_poly_compose_linear():
    x0 = Poly.coordinate(0, QQi(1))
    m = [[QQi(0), QQi(1), QQi(0), QQi(0)],
         [QQi(1), QQi(0), QQi(0), QQi(0)],
         [QQi(0), QQi(0), QQi(1), QQi(0)],
         [QQi(0), QQi(0), QQi(0), QQi(1)]]
    assert x0.compose_linear(m) == Poly.coordinate(1, QQi(1))


# ---- structure --------------------------------------------------------------


def test_constant_and_eval():
    mv = Multivector.unit(FLOAT).scale(2.0) + basis_vector(1, FLOAT)
    f = AnalyticField.constant(mv)
    assert f.eval((0.3, 0.1, -0.2, 0.9)).isclose(mv)


def test_plane_wave_eval():
    wave = (0.5, -1.0, 0.0, 2.0)
    f = AnalyticField.plane_wave(Multivector.unit(FLOAT), wave)
    x = (0.2, 0.3, 0.4, 0.5)
    phase = sum(wave[mu] * x[mu] for mu in range(4))
    assert abs(complex(f.eval(x).coeffs[0]) - cmath.exp(1j * phase)) < 1e-15


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_plane_wave_phase_is_keyed_as_its_polynomial(backend):
    # the key is built without a Poly; it must be the key phase_key gives
    for wave in [(0.5, -1.0, 0.0, 2.0), (0, -0.0, Fraction(3, 7), 0), (0, 0, 0, 0),
                 (1e-300, -2.5, 0.1, -0.0)]:
        entries = {tuple(int(i == mu) for i in range(4)): w for mu, w in enumerate(wave) if w}
        f = AnalyticField.plane_wave(Multivector.unit(backend), wave)
        assert list(f._forms) == [phase_key(real_polynomial(entries, backend), backend)]


def test_grade_part_and_component():
    f = AnalyticField.constant(Multivector.unit() + Multivector.basis(0b0011))
    assert f.grade_part(2) == AnalyticField.constant(Multivector.basis(0b0011))
    assert f.component(0b0011) == AnalyticField.constant(Multivector.unit())
    with pytest.raises(DomainError):
        f.grade_part(7)


def test_real_imag_split():
    rng = random.Random(0)
    for _ in range(10):
        f = random_exact_field(rng)
        re, im = f.real_part(), f.imag_part()
        assert re.is_real() and im.is_real()
        i_unit = QQi(0, 1)
        assert re + im.scale(i_unit) == f


# ---- first-order operators ---------------------------------------------------


def test_d_fixed_values():
    assert d(AnalyticField.constant(Multivector.unit())).is_zero()
    f = AnalyticField.monomial(Multivector.unit(), (0, 1, 0, 0))
    assert d(f) == AnalyticField.constant(basis_vector(1))


def test_d_raises_grade():
    rng = random.Random(1)
    for _ in range(10):
        f = random_exact_field(rng).grade_part(1)
        assert d(f).grades() <= {2}


def test_d_squared_zero():
    rng = random.Random(2)
    for _ in range(40):
        f = random_exact_field(rng)
        assert d(d(f)).is_zero()


def test_d_leibniz_rule():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randrange(5)
        u = random_exact_field(rng, nterms=1).grade_part(k)
        v = random_exact_field(rng, nterms=1)
        lhs = d(u.wedge(v))
        rhs = d(u).wedge(v)
        sign_term = u.wedge(d(v))
        rhs = rhs + (sign_term if k % 2 == 0 else -sign_term)
        assert lhs == rhs


def test_delta_fixed_values():
    assert delta(AnalyticField.constant(Multivector.unit())).is_zero()
    # composition of the three building blocks on a simple 1-form
    f = AnalyticField.monomial(basis_vector(0), (1, 0, 0, 0))
    got = delta(f)
    want = d(f.hodge_star()).hodge_star()
    assert got == want
    assert got.grades() <= {0}


def test_delta_squared_zero():
    rng = random.Random(4)
    for _ in range(40):
        f = random_exact_field(rng)
        assert delta(delta(f)).is_zero()


def test_upsilon_forms_agree():
    rng = random.Random(5)
    for _ in range(40):
        f = random_exact_field(rng)
        assert upsilon(f) == upsilon_gradient(f)


def test_upsilon_plane_wave():
    p = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    f = AnalyticField.plane_wave(Multivector.unit(), p)
    got = upsilon_gradient(f)
    amplitude = Multivector.from_terms(
        [(1 << mu, QQi.from_rational(0, p[mu])) for mu in range(4)], EXACT)
    assert got == AnalyticField.plane_wave(amplitude, p)


def test_upsilon_constant_zero():
    assert upsilon(AnalyticField.constant(Multivector.basis(0b0110))).is_zero()


# ---- the second-order operator -------------------------------------------------


def test_laplace_routes_agree():
    rng = random.Random(6)
    for _ in range(25):
        f = random_exact_field(rng)
        l1 = laplace(f, "direct")
        assert l1 == laplace(f, "upsilon")
        assert l1 == laplace(f, "d_minus_delta")
        assert l1 == laplace(f, "de_rham")


def test_laplace_plane_wave_eigenvalue():
    p = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    f = AnalyticField.plane_wave(Multivector.unit(), p)
    # -(p.p) with p.p = 1 - 4 - 0 - 1 = -4
    assert laplace(f) == AnalyticField.plane_wave(Multivector.unit().scale(4), p)


def test_laplace_commutes():
    rng = random.Random(7)
    for _ in range(20):
        f = random_exact_field(rng)
        assert laplace(d(f)) == d(laplace(f))
        assert laplace(delta(f)) == delta(laplace(f))
        assert laplace(upsilon(f)) == upsilon(laplace(f))
        assert laplace(f.hodge_star()) == laplace(f).hodge_star()


def test_laplace_rejects_unknown_route():
    with pytest.raises(DomainError):
        laplace(AnalyticField.zero(EXACT), "nonsense")


# ---- algebraic closure ----------------------------------------------------------


def test_field_products_match_pointwise():
    rng = random.Random(8)
    for _ in range(10):
        f = random_exact_field(rng, nterms=2).to_float()
        g = random_exact_field(rng, nterms=2).to_float()
        x = tuple(rng.uniform(-1, 1) for _ in range(4))
        prod = f.clifford(g).eval(x)
        want = f.eval(x) * g.eval(x)
        assert (prod - want).max_abs() < 1e-12
        wedge = f.wedge(g).eval(x)
        assert (wedge - (f.eval(x) ^ g.eval(x))).max_abs() < 1e-12


def random_float_field(rng, nterms=3, linear=False):
    """Dense float coefficients, some parts signed zeros, on several phases;
    `linear` phases are plane waves."""
    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-2, 2)))

    entries = []
    for _ in range(nterms):
        axis = rng.randrange(4)
        exps = (tuple(int(i == axis) for i in range(4)) if linear
                else tuple(rng.randint(0, 1) for _ in range(4)))
        phase = Poly({exps: rng.uniform(-2, 2)})
        coeffs = [Poly() for _ in range(16)]
        for _ in range(10):
            m = rng.randrange(16)
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            coeffs[m] = coeffs[m] + Poly({exps: complex(part(), rng.uniform(-2, 2))})
        entries.append((phase, coeffs))
    return AnalyticField(FLOAT, entries)


def coefficient_bits(f):
    """Every phase key with its coefficients, floats as the hex of both parts."""
    def bits(c):
        return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c

    return {key: [[(e, bits(c)) for e, c in q.terms.items()] for q in coeffs]
            for key, (_, coeffs) in f.terms.items()}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("product", [CLIFFORD, WEDGE], ids=["clifford", "wedge"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_mul_const_equals_the_field_product_bit_for_bit(side, product, backend):
    rng = random.Random(12)
    for _ in range(10):
        if backend == EXACT:
            f = random_exact_field(rng)
            mv = Multivector([QQi(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(16)],
                             EXACT)
        else:
            f = random_float_field(rng)
            mv = Multivector([complex(rng.choice((0.0, -0.0, rng.uniform(-2, 2))),
                                      rng.choice((0.0, -0.0, rng.uniform(-2, 2))))
                              for _ in range(16)], FLOAT)
        const = AnalyticField.constant(mv)
        want = f._blade_mul(const, product) if side == "right" else const._blade_mul(f, product)
        got = f.mul_const(mv, side, product)
        assert got == want
        assert coefficient_bits(got) == coefficient_bits(want)


def test_unit_blade_part_of_a_const_product_is_the_full_products():
    rng = random.Random(13)
    for f, mv in [(random_float_field(rng), Multivector(
                      [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(16)],
                      FLOAT)),
                  (random_exact_field(rng), Multivector.basis(5, EXACT).scale(QQi(1, 2)))]:
        want = f.mul_const(mv, "right").component(0)
        got = f.scalar_part_of_mul(mv)
        assert coefficient_bits(got) == coefficient_bits(want)


def test_partial_by_a_constant_phase_slope_is_the_chain_product():
    # a plane-wave phase has a constant derivative, applied as a scale; the
    # polynomial product of the chain rule gives the same bits
    rng = random.Random(14)
    for _ in range(5):
        f = random_float_field(rng, linear=True)
        for mu in range(4):
            want = []
            for phase, coeffs in f.terms.values():
                slope = phase.linear_coefficients()[mu]
                chain = Poly({(0, 0, 0, 0): complex(0.0, slope)})
                want.append((phase, [q.diff(mu) + chain * q for q in coeffs]))
            want = AnalyticField(FLOAT, want)
            assert coefficient_bits(f.partial(mu)) == coefficient_bits(want)


# each blade map of a field, with its reference on the field's value at a point
BLADE_MAPS = {
    **{f"grade{k}": (lambda f, k=k: f.grade_part(k), lambda u, k=k: u.grade_part(k))
       for k in range(5)},
    "even": (AnalyticField.even_part, Multivector.even_part),
    "odd": (AnalyticField.odd_part, Multivector.odd_part),
    "star_involution": (AnalyticField.star_involution, Multivector.star),
    "hodge_star": (AnalyticField.hodge_star, hodge_star),
    **{f"component{mask}": (lambda f, mask=mask: f.component(mask),
                            lambda u, mask=mask: Multivector.scalar(u.coeffs[mask], FLOAT))
       for mask in (0, 6, 13, 15)},
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("op", list(BLADE_MAPS))
def test_blade_maps_match_multivector(op, backend):
    field_map, reference = BLADE_MAPS[op]
    rng = random.Random(9)
    for _ in range(10):
        dense = Multivector([QQi(rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(16)],
                            EXACT)
        f = random_exact_field(rng) + AnalyticField.plane_wave(dense, (1, 0, -2, 1))
        if backend == FLOAT:
            f = f.to_float()
        x = tuple(rng.uniform(-1, 1) for _ in range(4))
        assert (field_map(f).eval(x) - reference(f.eval(x))).max_abs() < 1e-12


def test_phase_rotors():
    lam = real_polynomial({(0, 1, 0, 0): Fraction(3, 10)}, EXACT)
    c, s = phase_cos(lam, EXACT), phase_sin(lam, EXACT)
    unit_field = AnalyticField.constant(Multivector.unit())
    assert c.clifford(c) + s.clifford(s) == unit_field
    # derivative of cos is -sin times the gauge slope
    slope = QQi(3, 0, 10)
    assert c.partial(1) == s.scale(-slope)


def test_multiply_phase_composes():
    lam = real_polynomial({(1, 0, 0, 0): Fraction(1, 2)}, EXACT)
    f = AnalyticField.constant(Multivector.unit())
    g = f.multiply_phase(lam).multiply_phase(lam)
    h = f.multiply_phase(lam.scale(Fraction(2)))
    assert g == h


def test_compose_linear_swaps_axes():
    f = AnalyticField.monomial(Multivector.unit(), (1, 0, 0, 0))
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert f.compose_linear(swap) == AnalyticField.monomial(Multivector.unit(),
                                                            (0, 1, 0, 0))


def test_a_kept_float_term_form_gives_the_bits_of_a_fresh_value():
    # a float multivector keeps its term form from its first use on; signed
    # zeros, infinities and NaN must come out of the kept form as they do
    # out of a value that never had one
    nan, inf = float("nan"), float("inf")
    coeffs = [0j] * 16
    coeffs[0], coeffs[1], coeffs[6] = complex(-0.0, 0.0), complex(inf, -0.0), complex(nan, 1.5)
    coeffs[9], coeffs[15] = complex(0.0, -0.0), complex(-2.5, -inf)
    kept = Multivector(coeffs, FLOAT)
    wave = AnalyticField.plane_wave(Multivector.unit(FLOAT).scale(0.5 - 1j), (0.75, 0.5, 0, 0))
    field = wave + AnalyticField.monomial(basis_vector(2, FLOAT).scale(-0.0 + 2j), (0, 1, 0, 1))
    for _ in range(2):  # the second pass reads the form the first one kept
        fresh = Multivector(list(coeffs), FLOAT)
        for side in ("left", "right"):
            assert (repr(field.mul_const(kept, side=side)._forms)
                    == repr(field.mul_const(fresh, side=side)._forms))
        assert (repr(field.scalar_part_of_mul(kept)._forms)
                == repr(field.scalar_part_of_mul(fresh)._forms))
        assert repr(AnalyticField.constant(kept)._forms) == repr(AnalyticField.constant(fresh)._forms)
