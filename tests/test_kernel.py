"""The bilinear kernel against naive per-coefficient table loops, the cached
gamma images against the product route, and the independence of the
oracles from the kernel."""

import ast
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stada import exterior, ideal, spin, suites
from stada.multivector import (
    CLIFFORD_TABLE,
    WEDGE_TABLE,
    Multivector,
    exterior_product,
    left_matrix,
    scalar_part_of_product,
)
from stada.scalars import EXACT, FLOAT, QQi


def naive_product(table, a, b, zero):
    """The table loop with one scalar operation per term."""
    out = [zero] * 16
    for i in range(16):
        for j in range(16):
            sign, mask = table[i][j]
            if sign == 0 or not a[i] or not b[j]:
                continue
            p = a[i] * b[j]
            out[mask] = out[mask] + p if sign > 0 else out[mask] - p
    return out


ints = st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30))
gaussian = st.builds(QQi, ints, ints, st.sampled_from((1, 1, 2, 3, 4, 6, 7, 12, 10 ** 20 + 39)))
real = st.builds(QQi, ints, st.just(0), st.integers(1, 30))
coeff = st.one_of(st.just(QQi(0)), real, gaussian)
mv_exact = st.lists(coeff, min_size=16, max_size=16).map(lambda cs: Multivector(cs, EXACT))


@settings(max_examples=150, deadline=None)
@given(mv_exact, mv_exact)
def test_exact_products_match_naive_loop(u, v):
    zero = QQi(0)
    assert (u * v).coeffs == tuple(naive_product(CLIFFORD_TABLE, u.coeffs, v.coeffs, zero))
    assert exterior_product(u, v).coeffs == tuple(
        naive_product(WEDGE_TABLE, u.coeffs, v.coeffs, zero))
    assert scalar_part_of_product(u, v) == naive_product(
        CLIFFORD_TABLE, u.coeffs, v.coeffs, zero)[0]


@settings(max_examples=60, deadline=None)
@given(mv_exact)
def test_exact_left_matrix_matches_naive_loop(u):
    zero = QQi(0)
    got = left_matrix(u)
    for j in range(16):
        col = naive_product(CLIFFORD_TABLE, u.coeffs, Multivector.basis(j).coeffs, zero)
        assert tuple(row[j] for row in got) == tuple(col)


@settings(max_examples=100, deadline=None)
@given(mv_exact, mv_exact)
def test_float_products_keep_the_naive_summation_order(u, v):
    # repr tells -0.0 from 0.0, so this asks for the same bits
    fu, fv = u.to_float(), v.to_float()
    assert repr((fu * fv).coeffs) == repr(tuple(
        naive_product(CLIFFORD_TABLE, fu.coeffs, fv.coeffs, 0j)))
    assert repr(exterior_product(fu, fv).coeffs) == repr(tuple(
        naive_product(WEDGE_TABLE, fu.coeffs, fv.coeffs, 0j)))
    assert repr(scalar_part_of_product(fu, fv)) == repr(
        naive_product(CLIFFORD_TABLE, fu.coeffs, fv.coeffs, 0j)[0])


def _random_exact_mv(rng):
    return Multivector([QQi(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice((1, 2, 3)))
                        for _ in range(16)], EXACT)


def test_cached_gamma_matches_product_route():
    rng = random.Random(11)
    canonical = ideal.canonical_basis()
    bases = [canonical] + [
        ideal.representation_change(spin.random_rational_spin(rng, factors=2), canonical)
        for _ in range(3)]
    for basis in bases:
        elements = [Multivector.basis(m) for m in range(16)]
        elements += [_random_exact_mv(rng) for _ in range(10)]
        for u in elements:
            cached = ideal.gamma_of(u, basis)
            checked = ideal._gamma_matrix(u, basis)
            assert cached == checked
            assert all(type(v) is QQi for row in cached for v in row)
        assert "blade_images" in vars(basis)


def test_basis_construction_builds_no_image_cache():
    basis = ideal.canonical_basis()
    assert "blade_images" not in vars(basis)
    new_basis = ideal.representation_change(spin.random_rational_spin(random.Random(2)), basis)
    assert "blade_images" not in vars(basis)
    assert "blade_images" not in vars(new_basis)
    # the first exact gamma_of builds the images of its own basis only
    ideal.gamma_of(Multivector.basis(1), basis)
    assert "blade_images" in vars(basis)
    assert "blade_images" not in vars(new_basis)


def test_float_gamma_builds_no_image_cache():
    basis = ideal.canonical_basis(FLOAT)
    ideal.gamma_of(Multivector.basis(1, FLOAT), basis)
    assert "blade_images" not in vars(basis)


def _names_in_source(module) -> set:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def test_oracles_do_not_use_the_kernel():
    kernel_names = {"kernel", "BladeProduct", "ExactLinearMap", "EVERY_BLADE",
                    "CLIFFORD", "WEDGE"}
    for module in (exterior, suites):
        assert not kernel_names & _names_in_source(module), module.__name__
