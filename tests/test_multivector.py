"""Core algebra: products against the transposition oracle, involutions,
trace laws, inversion, and the literal grammar."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stada.errors import BackendMismatchError, InvalidGeneratorError, ParseError
from stada.expr import eval_expr
from stada.generators import random_generators
from stada.multivector import (
    EVEN_MASKS,
    GRADE,
    Multivector,
    basis_vector,
    format_multivector,
    hermitian_conjugate,
    inverse,
    l5,
    multivector_from_json,
    multivector_to_json,
    require_unit_square,
    scalar_part_of_product,
)
from stada.scalars import EXACT, FLOAT, QQi, modulus, nan_max
from stada.suites import oracle_blade_product

small = st.integers(min_value=-3, max_value=3)
mv_exact = st.builds(
    lambda vals: Multivector([QQi(a, b) for a, b in vals], EXACT),
    st.lists(st.tuples(small, small), min_size=16, max_size=16))


def test_generator_squares():
    assert basis_vector(0) * basis_vector(0) == Multivector.unit()
    for mu in (1, 2, 3):
        assert basis_vector(mu) * basis_vector(mu) == -Multivector.unit()


def test_generator_products():
    l0, l1 = basis_vector(0), basis_vector(1)
    assert l0 * l1 == Multivector.basis(0b0011)
    assert l1 * l0 == -Multivector.basis(0b0011)


def test_pseudoscalar_square():
    assert l5() * l5() == -Multivector.unit()


def test_blade_products_match_oracle():
    for a in range(16):
        for b in range(16):
            sign, mask = oracle_blade_product(a, b)
            got = Multivector.basis(a) * Multivector.basis(b)
            assert got == Multivector.basis(mask).scale(sign), (a, b)


def test_pseudoscalar_parity():
    ps = l5()
    for m in range(16):
        blade = Multivector.basis(m)
        if GRADE[m] % 2 == 0:
            assert ps * blade == blade * ps
        else:
            assert ps * blade == -(blade * ps)


@settings(max_examples=60, deadline=None)
@given(mv_exact, mv_exact, mv_exact)
def test_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@settings(max_examples=60, deadline=None)
@given(mv_exact, mv_exact)
def test_star_involution_laws(u, v):
    assert u.star().star() == u
    assert (u * v).star() == v.star() * u.star()


@settings(max_examples=60, deadline=None)
@given(mv_exact, mv_exact)
def test_trace_of_commutator(u, v):
    assert (u * v - v * u).trace() == QQi(0)
    assert scalar_part_of_product(u, v) == (u * v).trace()


def test_star_signs_per_grade():
    assert Multivector.basis(0b0011).star() == -Multivector.basis(0b0011)
    assert basis_vector(0).star() == basis_vector(0)
    i_unit = Multivector.unit().scale(QQi(0, 1))
    assert i_unit.star() == -i_unit


def test_grade_parts():
    u = Multivector.unit() + Multivector.basis(0b0011)
    assert u.grade_part(2) == Multivector.basis(0b0011)
    assert u.grade_part(0) == Multivector.unit()
    assert l5().grade_part(4) == l5()
    with pytest.raises(ValueError):
        u.grade_part(5)


@settings(max_examples=40, deadline=None)
@given(mv_exact)
def test_grade_decomposition(u):
    total = Multivector.zero()
    for k in range(5):
        total = total + u.grade_part(k)
    assert total == u
    assert u.even_part() + u.odd_part() == u


def test_even_odd_parts():
    u = basis_vector(0) + Multivector.basis(0b0110)
    assert u.even_part() == Multivector.basis(0b0110)
    assert u.odd_part() == basis_vector(0)


def test_trace_values():
    assert Multivector.unit().trace() == QQi(1)
    assert l5().trace() == QQi(0)


def test_trace_similarity():
    rng = random.Random(0)
    for _ in range(30):
        u = Multivector.from_terms(
            [(m, QQi(rng.randint(-3, 3), rng.randint(-3, 3))) for m in range(16)], EXACT)
        v = Multivector.unit() + Multivector.from_terms(
            [(m, QQi(rng.randint(-1, 1), 0, 4)) for m in EVEN_MASKS], EXACT)
        try:
            v_inv = inverse(v)
        except ZeroDivisionError:
            continue
        assert (v_inv * u * v).trace() == u.trace()


def test_inverse_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        u = Multivector.unit() + Multivector.from_terms(
            [(m, QQi(rng.randint(-1, 1), rng.randint(-1, 1), 5)) for m in range(16)],
            EXACT)
        try:
            u_inv = inverse(u)
        except ZeroDivisionError:
            continue
        assert u * u_inv == Multivector.unit()
        assert u_inv * u == Multivector.unit()


def test_inverse_rejects_singular():
    # (1 + l0)/... squares to itself up to scale: 1 + l0 is a zero divisor
    u = Multivector.unit() + basis_vector(0)
    with pytest.raises(ZeroDivisionError):
        inverse(u)


def test_hermitian_conjugation():
    h = basis_vector(0)
    assert hermitian_conjugate(Multivector.unit(), h) == Multivector.unit()
    assert hermitian_conjugate(basis_vector(1), h) == -basis_vector(1)
    rng = random.Random(2)
    for _ in range(20):
        u = Multivector.from_terms(
            [(m, QQi(rng.randint(-2, 2), rng.randint(-2, 2))) for m in range(16)], EXACT)
        v = Multivector.from_terms(
            [(m, QQi(rng.randint(-2, 2), rng.randint(-2, 2))) for m in range(16)], EXACT)
        assert hermitian_conjugate(u * v, h) == (
            hermitian_conjugate(v, h) * hermitian_conjugate(u, h))


def test_hermitian_conjugation_rejects_bad_h():
    with pytest.raises(InvalidGeneratorError):
        hermitian_conjugate(Multivector.unit(), basis_vector(1))


def test_unit_square_check_allows_the_rounding_of_h_times_h():
    # the rounded random:1 H (max |h_i| 184.5) squares to the unit within
    # 7.3e-12, beyond the absolute 1e-12, and within its rounding bound
    h = random_generators(random.Random(1)).h.to_float()
    assert not (h * h).isclose(Multivector.unit(FLOAT), 1e-12)
    require_unit_square(h)


@pytest.mark.parametrize("h", [
    basis_vector(0, FLOAT).scale(1 + 1e-9),
    Multivector.from_terms([(1, 1.0 + 0j), (2, complex("nan"))], FLOAT),
    basis_vector(0, FLOAT).scale(1e200),  # H*H and its rounding bound overflow
])
def test_unit_square_check_refuses(h):
    with pytest.raises(InvalidGeneratorError):
        require_unit_square(h)


def test_backend_mismatch():
    with pytest.raises(BackendMismatchError):
        Multivector.unit(EXACT) * Multivector.unit(FLOAT)


def test_float_tracks_exact():
    rng = random.Random(3)
    for _ in range(50):
        u = Multivector.from_terms(
            [(m, QQi(rng.randint(-64, 64), rng.randint(-64, 64), 64))
             for m in range(16)], EXACT)
        v = Multivector.from_terms(
            [(m, QQi(rng.randint(-64, 64), rng.randint(-64, 64), 64))
             for m in range(16)], EXACT)
        gap = ((u * v).to_float() - u.to_float() * v.to_float()).max_abs()
        assert gap <= 1e-12


# ---- literals ---------------------------------------------------------------


def test_parse_examples():
    assert eval_expr("1 + 2 e01") == (
        Multivector.unit() + Multivector.basis(0b0011).scale(2))
    assert eval_expr("(1+2i) e0123") == l5().scale(QQi(1, 2))
    got = eval_expr("1/2 + (0-1i) e12 - 3 e0123")
    want = (Multivector.scalar(Fraction(1, 2))
            + Multivector.basis(0b0110).scale(QQi(0, -1))
            - l5().scale(3))
    assert got == want


def test_parse_rejects_juxtaposition():
    with pytest.raises(ParseError) as err:
        eval_expr("e0 e1")
    assert err.value.position == 3


def test_parse_rejects_bad_blades():
    with pytest.raises(ParseError):
        eval_expr("e21")
    with pytest.raises(ParseError):
        eval_expr("e4")
    with pytest.raises(ParseError):
        eval_expr("")
    with pytest.raises(ParseError):
        eval_expr("1 +")


def test_parse_bare_unit_blade():
    assert eval_expr("e") == Multivector.unit()
    assert eval_expr("-e12") == -Multivector.basis(0b0110)


@settings(max_examples=60, deadline=None)
@given(mv_exact)
def test_format_parse_roundtrip(u):
    assert eval_expr(format_multivector(u)) == u
    assert eval_expr(format_multivector(u, basis="l")) == u


def test_float_roundtrip():
    u = Multivector.from_terms([(0, 0.5 + 0j), (3, complex(1e-17, -2.25))], FLOAT)
    assert eval_expr(format_multivector(u), FLOAT) == u


def test_json_roundtrip():
    u = Multivector.from_terms([(0, QQi(1, 0, 2)), (0b0110, QQi(0, -1))], EXACT)
    data = multivector_to_json(u)
    assert set(data) == {"", "0", "1", "2", "3", "01", "02", "03", "12", "13",
                         "23", "012", "013", "023", "123", "0123"}
    assert multivector_from_json(data) == u
    uf = u.to_float()
    assert multivector_from_json(multivector_to_json(uf)).isclose(uf)


def test_format_zero():
    assert format_multivector(Multivector.zero()) == "0"


@pytest.mark.parametrize("values", [
    [],
    [math.nan],
    [math.inf],
    [-math.inf],
    [complex(math.inf, math.nan), 2.0],
    [complex(math.nan, -math.inf)],
    [1e308 + 1e308j, complex(1.7e308, 1.7e308)],
    [complex(1.7e308, -1.7e308), math.nan],
    [math.nan, -1.7e308 - 1.7e308j, 1.0],
    [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)],
    [0.5 - 2j, -3.0, 1e-300j, complex(-1e308, 1e308)],
])
def test_float_max_abs_is_the_per_coefficient_modulus_rule(values):
    # the one-map route for floats gives the bits of nan_max over modulus,
    # also where abs raises on a finite value's modulus beyond the float range
    coeffs = [complex(v) for v in values] + [0j] * (16 - len(values))
    for order in (coeffs, coeffs[::-1]):
        got = Multivector(order, FLOAT).max_abs()
        assert repr(got) == repr(nan_max(*(modulus(c) for c in order)))


def test_float_max_abs_keeps_a_nan_after_an_overflow():
    u = Multivector([complex(1.7e308, 1.7e308), complex(math.nan, 0.0)] + [0j] * 14, FLOAT)
    assert math.isnan(u.max_abs())


# the edge values and the verdicts the per-coefficient rule gave them:
# (is_zero(), is_zero(1e-9)), then for each other value in this order,
# "T" where isclose() holds, and the same row for isclose(tol=1e-9)
_PREDICATE_TABLE = {
    "0j": (0j, True, True, "TTT.....", "TTTT...."),
    "-0-0j": (complex(-0.0, -0.0), True, True, "TTT.....", "TTTT...."),
    "1e-13": (1e-13 + 0j, True, True, "TTT.....", "TTTT...."),
    "1e-11": (1e-11 + 0j, False, True, "...T....", "TTTT...."),
    "1e308+1e308j": (complex(1e308, 1e308), False, False, "....T...", "....T..."),
    "inf": (complex(math.inf, 0.0), False, False, "........", "........"),
    "nan": (complex(math.nan, 0.0), False, False, "........", "........"),
    "nan j": (complex(0.0, math.nan), False, False, "........", "........"),
}


@pytest.mark.parametrize("name", list(_PREDICATE_TABLE))
def test_float_predicate_verdicts_on_edge_values(name):
    def on_a_blade(value):
        return Multivector.from_terms([(0b0101, value)], FLOAT)

    value, zero, zero_loose, close, close_loose = _PREDICATE_TABLE[name]
    u = on_a_blade(value)
    assert (u.is_zero(), u.is_zero(1e-9)) == (zero, zero_loose)
    others = [on_a_blade(row[0]) for row in _PREDICATE_TABLE.values()]
    assert "".join("T" if u.isclose(v) else "." for v in others) == close
    assert "".join("T" if u.isclose(v, tol=1e-9) else "." for v in others) == close_loose


def test_isclose_across_backends_compares_the_float_values():
    half = Multivector.basis(0b0101, EXACT).scale(Fraction(1, 2))
    for value, close, close_loose in [(0.5 + 0j, True, True), (0.5 + 1e-13, True, True),
                                      (0.5 + 1e-11, False, True), (0j, False, False),
                                      (complex(math.nan, 0.0), False, False),
                                      (complex(math.inf, 0.0), False, False)]:
        f = Multivector.from_terms([(0b0101, value)], FLOAT)
        assert (half.isclose(f), half.isclose(f, tol=1e-9)) == (close, close_loose)
        assert (f.isclose(half), f.isclose(half, tol=1e-9)) == (close, close_loose)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_basis_vectors_and_l5_are_shared_values(backend):
    for mu in range(4):
        assert basis_vector(mu, backend) == Multivector.basis(1 << mu, backend)
        assert basis_vector(mu, backend) is basis_vector(mu, backend)
    assert l5(backend) == Multivector.basis(0b1111, backend) and l5(backend) is l5(backend)
    with pytest.raises(ValueError):
        basis_vector(4, backend)
