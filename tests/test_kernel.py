"""The bilinear kernel against naive per-coefficient table loops, its two
exact routes (int64 and the Python loop) against each other and the rule
that picks between them, the exact number format against term-by-term QQi
references, the cached gamma images against the product route, and the
independence of the oracles from the kernel."""

import ast
import dataclasses
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stada import exterior, generators, ideal, kernel, linalg, spin, suites
from stada.errors import ConsistencyError
from stada.kernel import (
    DENSE_PAIRS,
    INT64_BOUND,
    BladeProduct,
    ExactLinearMap,
    coefficients,
    gather_tables,
    lowest_terms,
)
from stada.multivector import (
    CLIFFORD,
    CLIFFORD_TABLE,
    WEDGE,
    EVEN_MAP,
    GRADE_MAPS,
    ODD_MAP,
    REVERSION_MAP,
    WEDGE_TABLE,
    Multivector,
    exterior_product,
    left_matrix,
    numerators,
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


# signed zeros (falsy, so skipped), non-finite parts and products that overflow
_FLOAT_EDGES = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(math.nan, 0.0),
                complex(0.0, math.nan), complex(1e308, 0.0), complex(-1e308, 1e308),
                complex(1e-300, -1e-300), 1j, -1 + 0j)


def test_float_products_keep_the_bits_on_edge_operands():
    rng = random.Random(29)

    def operand(kind):
        if kind == "zero":
            return [0j] * 16
        if kind == "one blade":
            out = [0j] * 16
            out[rng.randrange(16)] = rng.choice(_FLOAT_EDGES + (complex(rng.uniform(-2, 2)),))
            return out
        return [rng.choice(_FLOAT_EDGES) if rng.random() < 0.5
                else complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(16)]

    kinds = ("zero", "one blade", "dense")
    for _ in range(300):
        a, b = operand(rng.choice(kinds)), operand(rng.choice(kinds))
        for product, table in _PRODUCTS:
            assert repr(product.generic(a, b, 0j)) == repr(naive_product(table, a, b, 0j))
    for product, table in _PRODUCTS:
        for x in _FLOAT_EDGES:
            for m in (0, 0b0110, 0b1111):
                one = [0j] * 16
                one[m] = x
                dense = operand("dense")
                for a, b in ((one, dense), (dense, one), (one, one), (one, [0j] * 16)):
                    assert repr(product.generic(a, b, 0j)) == repr(
                        naive_product(table, a, b, 0j))


# ---- the two exact routes: int64 and the Python loop ---------------------------

# numerators at the int64 bound and far beyond it, of either sign
_EDGES = (INT64_BOUND - 1, INT64_BOUND, INT64_BOUND + 1, 10 ** 30)
edge_numerator = st.sampled_from(_EDGES + tuple(-x for x in _EDGES))
numerator = st.one_of(st.integers(-9, 9), st.integers(-INT64_BOUND + 1, INT64_BOUND - 1),
                      edge_numerator)
# live blade counts on both sides of DENSE_PAIRS, and any others
_NEAR_THRESHOLD = ((8, 8), (9, 7), (7, 9), (4, 16), (16, 4), (5, 13), (13, 5), (16, 16))
live_counts = st.one_of(st.sampled_from(_NEAR_THRESHOLD),
                        st.tuples(st.integers(0, 16), st.integers(0, 16)))
_PRODUCTS = ((CLIFFORD, CLIFFORD_TABLE), (WEDGE, WEDGE_TABLE))


@st.composite
def numerator_forms(draw, live):
    """A numerator form with exactly `live` live blades."""
    re = [0] * 16
    im = [0] * 16
    for k in draw(st.permutations(range(16)))[:live]:
        re[k], im[k] = draw(numerator), draw(numerator)
        if not (re[k] or im[k]):
            re[k] = 1
    return draw(st.sampled_from((1, 1, 3, 12, 10 ** 20 + 39))), tuple(re), tuple(im)


@st.composite
def operand_pairs(draw):
    la, lb = draw(live_counts)
    return draw(numerator_forms(la)), draw(numerator_forms(lb))


def loop_sums(product, a, b):
    """The unreduced sums of the Python loop route."""
    _, br, bi = b
    live = [(j, y, z) for j, y, z in zip(range(16), br, bi) if y or z]
    return product._loop_sums(a[1], a[2], live)


def is_live(form):
    return [bool(x or y) for x, y in zip(form[1], form[2])]


def takes_int64(a, b):
    """The route rule: enough live pairs and every numerator in bound."""
    pairs = sum(is_live(a)) * sum(is_live(b))
    in_bound = all(abs(x) < INT64_BOUND for x in a[1] + a[2] + b[1] + b[2])
    return pairs >= DENSE_PAIRS and in_bound


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_exact_routes_match_naive_product_and_each_other(pair):
    a, b = pair
    zero = QQi(0)
    for product, table in _PRODUCTS:
        got = product.exact(a, b)
        assert coefficients(*got) == tuple(naive_product(
            table, coefficients(*a), coefficients(*b), zero))
        re, im = loop_sums(product, a, b)
        assert got == lowest_terms(a[0] * b[0], re, im)
        if all(abs(x) < INT64_BOUND for x in a[1] + a[2] + b[1] + b[2]):
            # the int64 sums are the loop's integers on any in-bound pair, sparse or not
            assert product._int64_tables()
            sums = product._int64_sums(a[1] + a[2] + b[1] + b[2])
            assert sums == re + im
            assert all(type(x) is int for x in sums)


def _fail(*args):
    raise AssertionError("this route must not run")


def _dense_form(live, value, den=1):
    """A form whose first `live` blades k hold value + i*(value // 2 + k),
    value nonzero."""
    re = [value if k < live else 0 for k in range(16)]
    im = [value // 2 + k if k < live else 0 for k in range(16)]
    return den, tuple(re), tuple(im)


@pytest.mark.parametrize("la,lb", [(8, 8), (16, 4), (4, 16), (16, 16), (11, 6)])
@pytest.mark.parametrize("value", [1, INT64_BOUND - 16, -INT64_BOUND + 1])
def test_a_dense_in_bound_product_takes_int64(la, lb, value, monkeypatch):
    a, b = _dense_form(la, value, 3), _dense_form(lb, -value)
    assert takes_int64(a, b)
    want = [(product.exact(a, b), product) for product, _ in _PRODUCTS]
    monkeypatch.setattr(BladeProduct, "_loop_sums", _fail)
    for form, product in want:
        assert product.exact(a, b) == form


@pytest.mark.parametrize("la,lb", [(9, 7), (7, 9), (4, 15), (1, 16), (0, 16)])
def test_a_product_below_the_live_pair_count_takes_the_loop(la, lb, monkeypatch):
    a, b = _dense_form(la, 5), _dense_form(lb, -3)
    want = [(product.exact(a, b), product) for product, _ in _PRODUCTS]
    monkeypatch.setattr(BladeProduct, "_int64_sums", _fail)
    for form, product in want:
        assert product.exact(a, b) == form


@pytest.mark.parametrize("big", [INT64_BOUND, -INT64_BOUND, INT64_BOUND + 1, 10 ** 30])
@pytest.mark.parametrize("where", [(0, 1, 0), (0, 2, 15), (1, 1, 7), (1, 2, 3)])
def test_a_numerator_at_the_bound_takes_the_loop(big, where, monkeypatch):
    forms = [_dense_form(16, 1), _dense_form(16, -2)]
    side, part, blade = where
    parts = list(forms[side])
    values = list(parts[part])
    values[blade] = big
    parts[part] = tuple(values)
    forms[side] = tuple(parts)
    a, b = forms
    assert not takes_int64(a, b)
    zero = QQi(0)
    monkeypatch.setattr(BladeProduct, "_int64_sums", _fail)
    for product, table in _PRODUCTS:
        assert coefficients(*product.exact(a, b)) == tuple(naive_product(
            table, coefficients(*a), coefficients(*b), zero))


def test_package_tables_are_xor_tables():
    for product, table in _PRODUCTS:
        index, sign = gather_tables(table)
        assert index.shape == sign.shape == (32, 32)
        assert not index.flags.writeable and not sign.flags.writeable
        assert set(sign.ravel().tolist()) <= {-1, 0, 1}


def test_a_table_off_xor_is_refused_and_keeps_the_loop():
    # the OR monoid algebra: blade i times blade j is blade i | j, which is
    # i ^ j only when the two share no axis
    or_table = tuple(tuple((1, i | j) for j in range(16)) for i in range(16))
    with pytest.raises(ValueError, match="not on"):
        gather_tables(or_table)
    product = BladeProduct(or_table)
    a, b = _dense_form(16, 3), _dense_form(16, -5, 2)
    zero = QQi(0)
    assert coefficients(*product.exact(a, b)) == tuple(naive_product(
        or_table, coefficients(*a), coefficients(*b), zero))
    assert product._gather is False


def test_kernel_imports_numpy_only_inside_functions():
    tree = ast.parse(Path(kernel.__file__).read_text(encoding="utf-8"))
    module_level = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            module_level += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module_level.append(node.module or "")
        stack.extend(ast.iter_child_nodes(node))
    assert module_level
    assert not [name for name in module_level if name.split(".")[0] == "numpy"]
    # the gather tables are built inside a function that imports numpy itself
    assert "numpy" in _names_in_source(kernel)


# ---- the exact number format against term-by-term QQi arithmetic -------------


def ref_map(coeffs, table, conjugate=False):
    """A blade map applied one QQi at a time."""
    out = [QQi(0)] * 16
    for c, (sign, target) in zip(coeffs, table):
        if sign:
            c = c.conjugate() if conjugate else c
            out[target] = c if sign > 0 else -c
    return tuple(out)


def is_normalised(coeffs):
    return all(type(c) is QQi and c.d > 0 and math.gcd(c.a, c.b, c.d) == 1 for c in coeffs)


def made_by_product(u):
    """The same value, made from a numerator form by a product."""
    return u * Multivector.unit()


# sparse values, and pairs whose sum or product cancels to zero
sparse = st.lists(st.tuples(st.integers(0, 15), coeff), max_size=4).map(
    lambda terms: Multivector.from_terms(terms, EXACT))
one_plus_e0 = Multivector.from_terms([(0, QQi(1)), (1, QQi(1))])
one_minus_e0 = Multivector.from_terms([(0, QQi(1)), (1, QQi(-1))])
operands = st.one_of(mv_exact, sparse, mv_exact.map(lambda u: u * one_plus_e0),
                     mv_exact.map(lambda u: one_minus_e0 * u))
scale_value = st.one_of(coeff, st.integers(-5, 5),
                        st.fractions(max_denominator=10 ** 12).filter(bool))


@settings(max_examples=150, deadline=None)
@given(operands, operands, st.booleans(), st.booleans())
def test_exact_operations_match_qqi_reference(u, v, u_made, v_made):
    if u_made:
        u = made_by_product(u)
    if v_made:
        v = made_by_product(v)
    zero = QQi(0)
    cu, cv = u.coeffs, v.coeffs
    for got, want in (
            (u + v, [x + y for x, y in zip(cu, cv)]),
            (u - v, [x - y for x, y in zip(cu, cv)]),
            (u - u, [zero] * 16),
            (-u, [-x for x in cu]),
            (u * v, naive_product(CLIFFORD_TABLE, cu, cv, zero)),
            (exterior_product(u, v), naive_product(WEDGE_TABLE, cu, cv, zero)),
            (u.even_part(), ref_map(cu, EVEN_MAP)),
            (u.odd_part(), ref_map(cu, ODD_MAP)),
            (u.star(), ref_map(cu, REVERSION_MAP, conjugate=True)),
            *((u.grade_part(k), ref_map(cu, GRADE_MAPS[k])) for k in range(5))):
        assert got.coeffs == tuple(want)
        assert is_normalised(got.coeffs)
        assert got.is_zero() == (not any(want))
        assert got.is_real() == all(c.b == 0 for c in want)
    assert scalar_part_of_product(u, v) == naive_product(CLIFFORD_TABLE, cu, cv, zero)[0]
    assert u.isclose(v) == (cu == cv) == (u == v)
    assert u.trace() == cu[0]


@settings(max_examples=100, deadline=None)
@given(operands, scale_value)
def test_exact_scale_matches_qqi_reference(u, value):
    s = value if isinstance(value, QQi) else QQi.from_rational(value)
    for w in (u, made_by_product(u)):
        got = w.scale(value)
        assert got.coeffs == tuple(c * s for c in u.coeffs)
        assert is_normalised(got.coeffs)


@settings(max_examples=100, deadline=None)
@given(operands, operands)
def test_products_equal_and_hash_like_values_made_from_coefficients(u, v):
    w = u * v
    from_coeffs = Multivector(w.coeffs, EXACT)
    assert w == from_coeffs and from_coeffs == w
    assert hash(w) == hash(from_coeffs)
    assert numerators(w) == numerators(from_coeffs)
    den, re, im = numerators(w)
    assert den > 0 and math.gcd(den, *re, *im) == 1
    # a value read only through coeffs never needs its numerator form
    fresh = Multivector(w.coeffs, EXACT)
    assert fresh == Multivector(w.coeffs, EXACT)
    assert fresh._numerators is None


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(coeff, min_size=16, max_size=16), min_size=16, max_size=16),
       operands)
def test_exact_linear_map_matches_qqi_reference(images, u):
    want = [sum((c * image[e] for c, image in zip(u.coeffs, images)), QQi(0))
            for e in range(16)]
    assert ExactLinearMap(images)(numerators(u)) == tuple(want)


_CANONICAL = ideal.canonical_basis()


@settings(max_examples=30, deadline=None)
@given(operands)
def test_gamma_of_matches_qqi_reference(u):
    zero = QQi(0)
    basis = _CANONICAL
    want = tuple(
        tuple(naive_product(CLIFFORD_TABLE,
                            naive_product(CLIFFORD_TABLE, u.coeffs, basis.ts[k].coeffs, zero),
                            basis.ts_dagger[n].coeffs, zero)[0] * 4
              for k in range(4))
        for n in range(4))
    assert ideal.gamma_of(u, basis) == want
    assert ideal.gamma_of(made_by_product(u), basis) == want


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


def test_the_blade_images_check_the_reconstruction():
    # swapped dual basis elements give components that do not rebuild U t_k
    basis = ideal.idempotent_of(generators.canonical_generators())
    d = basis.ts_dagger
    broken = dataclasses.replace(basis, ts_dagger=(d[1], d[0], d[2], d[3]))
    with pytest.raises(ConsistencyError, match="reconstruction"):
        ideal.gamma_of(Multivector.basis(1), broken)


def test_basis_construction_builds_no_image_cache():
    # a fresh basis: the cached canonical one may have built its images already
    basis = ideal.idempotent_of(generators.canonical_generators())
    assert "blade_images" not in vars(basis)
    basis.to_float()  # the float copy rounds the members only
    assert "blade_images" not in vars(basis)
    new_basis = ideal.representation_change(spin.random_rational_spin(random.Random(2)), basis)
    assert "blade_images" not in vars(basis)
    assert "blade_images" not in vars(new_basis)
    # the first exact gamma_of builds the images of its own basis only
    ideal.gamma_of(Multivector.basis(1), basis)
    assert "blade_images" in vars(basis)
    assert "blade_images" not in vars(new_basis)


def test_float_gamma_reads_the_rounded_images_of_its_source():
    # a fresh basis: the cached canonical one may have built its images already
    basis = ideal.idempotent_of(generators.canonical_generators())
    copy = basis.to_float()
    got = ideal.gamma_of(Multivector.basis(1, FLOAT), copy)
    # the copy rounds the exact blade images of its source once
    assert "rounded_images" in vars(copy) and "blade_images" in vars(basis)
    assert copy.rounded_images == tuple(
        tuple(complex(v) for row in ideal.gamma_of(Multivector.basis(m), basis) for v in row)
        for m in range(16))
    assert got == tuple(tuple(map(complex, row))
                        for row in ideal.gamma_of(Multivector.basis(1), basis))


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
                    "CLIFFORD", "WEDGE",
                    # the numerator form: its attribute, constructors and helpers
                    "_numerators", "numerators", "from_numerators", "numerator_form",
                    "lowest_terms", "coefficients",
                    # the exact term format of fields: its slot, constructor and helpers
                    "sparse", "_forms", "from_forms", "term_form", "term_lowest",
                    "term_polys", "pack_monomial", "phase_key", "phase_poly",
                    "gaussian_parts", "scalar_parts"}
    for module in (exterior, suites):
        assert not kernel_names & _names_in_source(module), module.__name__


def test_mat_mul_is_its_own_route():
    # mat_mul is the second route of representation.gamma_homomorphism
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    (mat_mul,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "mat_mul"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(mat_mul) if isinstance(node, (ast.Name, ast.Attribute))}
    assert not {"BladeProduct", "CLIFFORD", "ExactLinearMap"} & names


def test_only_linalg_calls_svd():
    # float null spaces and ranks have one cutoff rule, in linalg
    package = Path(linalg.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, (ast.Name, ast.Attribute))}
        assert "svd" not in calls, path.name
