"""Exact Gaussian-rational scalar arithmetic."""

import ast
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import stada
from stada.scalars import EXACT, FLOAT, QQi, close, coerce, is_zero, modulus

ints = st.integers(min_value=-30, max_value=30)
denoms = st.integers(min_value=1, max_value=12)
qqis = st.builds(QQi, ints, ints, denoms)


def test_normalization():
    assert QQi(2, 4, 6) == QQi(1, 2, 3)
    assert QQi(1, 0, -2) == QQi(-1, 0, 2)
    assert QQi(0, 0, 5) == QQi(0)


def test_basic_identities():
    i = QQi(0, 1)
    assert i * i == QQi(-1)
    assert QQi(1, 2, 3).conjugate() == QQi(1, -2, 3)
    assert complex(QQi(1, 2, 4)) == 0.25 + 0.5j
    assert QQi.from_rational(Fraction(1, 2), Fraction(-3, 4)) == QQi(2, -3, 4)


def test_real_imag_properties():
    q = QQi(3, -6, 4)
    assert q.real == Fraction(3, 4)
    assert q.imag == Fraction(-3, 2)
    assert not q.is_real()
    assert QQi(5, 0, 5).is_real()


@settings(max_examples=80, deadline=None)
@given(qqis, qqis, qqis)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=80, deadline=None)
@given(qqis)
def test_division_inverts(a):
    if a:
        assert a / a == QQi(1)
        assert (QQi(1) / a) * a == QQi(1)


@settings(max_examples=50, deadline=None)
@given(qqis, qqis)
def test_conjugation_distributes(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_int_mixing():
    assert QQi(1, 0, 2) * 2 == QQi(1)
    assert 3 + QQi(1, 1) == QQi(4, 1)
    assert QQi(1) - 1 == QQi(0)
    assert QQi(3) / 2 == QQi(3, 0, 2)


def test_coercion_and_tolerance():
    assert coerce(Fraction(1, 3), EXACT) == QQi(1, 0, 3)
    assert coerce(QQi(1, 2), FLOAT) == 1 + 2j
    assert is_zero(QQi(0))
    assert not is_zero(QQi(0, 1))
    assert is_zero(1e-15 + 0j)
    assert not is_zero(1e-9 + 0j)


def test_no_module_state_holds_a_tolerance():
    # a tolerance is an argument; module state would carry it from one run to the next
    package = Path(stada.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name
    for module in (stada, stada.scalars):  # no setter or getter beside the constant
        assert [name for name in dir(module) if "tolerance" in name.lower()] == [
            "DEFAULT_TOLERANCE"]
    assert stada.DEFAULT_TOLERANCE == 1e-12


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_modulus_keeps_the_bits_of_abs(z):
    try:
        want = abs(z)
    except OverflowError:
        want = math.inf
    assert modulus(z).hex() == want.hex()


def test_modulus_beyond_the_float_range_is_inf():
    assert modulus(complex(1.5e308, 1.5e308)) == math.inf
    assert modulus(QQi(10 ** 400, 1)) == math.inf
    assert modulus(complex(3.0, 4.0)) == modulus(QQi(3, 4)) == 5.0
    assert math.isnan(modulus(complex(math.nan, 0.0)))


def test_a_nan_right_after_an_overflow_stays_nan():
    # CPython's complex abs keeps errno at ERANGE after an overflow, and
    # abs of a NaN then raises as well; read as inf, a NaN would be lost
    for nan in (complex(math.nan, 0.0), complex(2.0, math.nan), math.nan):
        moduli = [modulus(z) for z in (complex(1.7e308, 1.7e308), nan, complex(math.inf, math.nan))]
        assert moduli[0] == math.inf and math.isnan(moduli[1]) and moduli[2] == math.inf


def test_is_zero_and_close_read_a_nan_after_an_overflow_as_false():
    # the same errno state makes abs raise; a NaN is neither zero nor close to anything
    huge = complex(1.7e308, 1.7e308)
    for nan in (complex(math.nan, 0.0), complex(2.0, math.nan)):
        modulus(huge)
        assert not is_zero(nan)
        modulus(huge)
        assert not close(nan, 0j)
        modulus(huge)
        assert not close(QQi(1), nan)
    assert not is_zero(huge) and not close(huge, 0j)
    assert is_zero(1e-13 + 0j) and close(1 + 0j, 1 + 1e-13j)
