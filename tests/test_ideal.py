"""Idempotent, ideal basis, scalar product, the 4x4 representation, and the
even-subalgebra bijection; everything on the exact backend apart from the
float rank checks."""

import random

import pytest

from stada import generators, ideal, linalg, spin
from stada.errors import ConsistencyError, DomainError, InvalidGeneratorError
from stada.multivector import (
    EVEN_MASKS,
    Multivector,
    basis_vector,
    hermitian_conjugate,
)
from stada.scalars import EXACT, FLOAT, QQi


def random_generator_set(rng):
    s = spin.random_rational_spin(rng, factors=2)
    return generators.transported_generators(s, generators.canonical_generators())


def random_exact_mv(rng, masks=range(16), span=2):
    return Multivector.from_terms(
        [(m, QQi(rng.randint(-span, span), rng.randint(-span, span))) for m in masks],
        EXACT)


def test_canonical_generators_valid():
    g = generators.canonical_generators()
    assert g.h == basis_vector(0)
    assert g.i2 == -Multivector.basis(0b0110)
    assert g.k2 == -Multivector.basis(0b1010)


def test_invalid_generators_named():
    with pytest.raises(InvalidGeneratorError) as err:
        generators.make_secondary(basis_vector(1),
                                  -Multivector.basis(0b0110),
                                  -Multivector.basis(0b1010))
    assert "H*H != unit" in str(err.value)
    with pytest.raises(InvalidGeneratorError) as err:
        generators.make_secondary(basis_vector(0),
                                  -Multivector.basis(0b0110),
                                  -Multivector.basis(0b0110))
    assert "{I, K} != 0" in str(err.value)


def test_generators_of_mixed_backends_or_complex_ones_are_refused():
    g = generators.canonical_generators()
    assert generators.secondary_violations(g.h, g.i2.to_float(), g.k2) == [
        "mixed scalar backends"]
    with pytest.raises(InvalidGeneratorError, match="mixed scalar backends"):
        generators.make_secondary(g.h, g.i2.to_float(), g.k2)
    with pytest.raises(InvalidGeneratorError, match="generators must be real"):
        generators.make_secondary(g.h.scale(QQi(0, 1)), g.i2, g.k2)


def test_transported_generators_stay_valid():
    rng = random.Random(0)
    for _ in range(20):
        g = random_generator_set(rng)  # construction validates
        assert g.backend == EXACT


def test_basis16_rank_and_traces():
    rng = random.Random(1)
    for g in [generators.canonical_generators()] + [random_generator_set(rng)
                                                    for _ in range(5)]:
        elements = generators.basis16_of(g)
        assert len(elements) == 16
        assert elements[1] == g.h
        assert elements[1].trace() == QQi(0)
        matrix = [[c for c in u.coeffs] for u in elements]
        assert linalg.rank(matrix) == 16


def test_idempotent_canonical_expansion():
    basis = ideal.canonical_basis()
    # direct expansion: (unit + l0)(unit + i l12)/4
    unit = Multivector.unit()
    expect = (unit + basis_vector(0)) * (unit + Multivector.basis(0b0110).scale(QQi(0, 1)))
    expect = expect.scale(QQi(1, 0, 4))
    assert basis.t == expect
    assert basis.t * basis.t == basis.t


def test_a_basis_is_built_from_exact_generators_only():
    # the float basis is the rounded copy of an exact one, never built in floats
    for g in (generators.canonical_generators(FLOAT),
              generators.transported_generators(spin.random_spin(random.Random(4)),
                                                generators.canonical_generators(FLOAT))):
        with pytest.raises(DomainError) as exc:
            ideal.idempotent_of(g)
        assert "\n" not in str(exc.value) and "to_float" in str(exc.value)


def test_the_canonical_basis_is_one_object_per_backend():
    for backend in (EXACT, FLOAT):
        assert ideal.canonical_basis(backend) is ideal.canonical_basis(backend)
        assert ideal.canonical_basis(backend).backend == backend
    assert ideal.canonical_basis() is ideal.canonical_basis(EXACT)
    assert ideal.canonical_basis(FLOAT) is ideal.canonical_basis().to_float()
    assert ideal.canonical_basis(FLOAT).source is ideal.canonical_basis()


def test_the_canonical_basis_refuses_an_unknown_backend():
    with pytest.raises(DomainError, match="unknown backend"):
        ideal.canonical_basis("bogus")


def test_ideal_basis_multiplication_law():
    rng = random.Random(2)
    for _ in range(10):
        basis = ideal.idempotent_of(random_generator_set(rng))
        for k, tk in enumerate(basis.ts):
            for n, tn in enumerate(basis.ts):
                want = tk if n == 0 else Multivector.zero()
                assert tk * tn == want


def test_orthonormality():
    rng = random.Random(3)
    for _ in range(10):
        basis = ideal.idempotent_of(random_generator_set(rng))
        for k in range(4):
            for n in range(4):
                val = basis.pairing(basis.ts[k], basis.ts[n])
                assert val == (QQi(1) if k == n else QQi(0))


def test_wrong_daggers_fail_the_orthonormality_check(monkeypatch):
    # orthonormality reads the daggers the basis keeps, so a wrong dagger,
    # which every later projection would use, is refused at construction
    gens = generators.canonical_generators()
    real = ideal.hermitian_conjugate
    monkeypatch.setattr(ideal, "hermitian_conjugate", lambda *args: -real(*args))
    with pytest.raises(ConsistencyError, match="orthonormality"):
        ideal.idempotent_of(gens)


def test_a_basis_builds_each_dagger_once(monkeypatch):
    gens = random_generator_set(random.Random(5))
    calls = []
    real = ideal.hermitian_conjugate
    monkeypatch.setattr(ideal, "hermitian_conjugate",
                        lambda *args: calls.append(args) or real(*args))
    basis = ideal.idempotent_of(gens)
    assert len(calls) == 4
    assert [u for u, _ in calls] == list(basis.ts)


def test_absorption_identities():
    rng = random.Random(4)
    for _ in range(10):
        g = random_generator_set(rng)
        basis = ideal.idempotent_of(g)
        i_unit = QQi(0, 1)
        assert g.h * basis.t == basis.t
        assert g.i2 * basis.t == basis.t.scale(i_unit)
        assert basis.t * g.h == basis.t
        assert basis.t * g.i2 == basis.t.scale(i_unit)


GAMMA_EXPECTED = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 1j), (0, 0, -1j, 0), (0, -1j, 0, 0), (1j, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
)


def test_gamma_matrices_exact():
    basis = ideal.canonical_basis()
    for mu in range(4):
        got = ideal.gamma_of(basis_vector(mu), basis)
        for r in range(4):
            for c in range(4):
                assert complex(got[r][c]) == complex(GAMMA_EXPECTED[mu][r][c]), (mu, r, c)


def test_gamma_unit_is_identity():
    basis = ideal.canonical_basis()
    got = ideal.gamma_of(Multivector.unit(), basis)
    assert linalg.mat_eq(got, [[QQi(int(r == c)) for c in range(4)] for r in range(4)])


def test_gamma_homomorphism():
    rng = random.Random(5)
    basis = ideal.canonical_basis()
    for _ in range(200):
        u = random_exact_mv(rng, span=1)
        v = random_exact_mv(rng, span=1)
        gu = ideal.gamma_of(u, basis)
        gv = ideal.gamma_of(v, basis)
        assert linalg.mat_eq(ideal.gamma_of(u * v, basis), linalg.mat_mul(gu, gv))
        alpha = QQi(rng.randint(-3, 3), rng.randint(-3, 3))
        assert linalg.mat_eq(ideal.gamma_of(u.scale(alpha), basis),
                             tuple(tuple(alpha * x for x in row) for row in gu))


def test_gamma_product_example():
    basis = ideal.canonical_basis()
    got = ideal.gamma_of(basis_vector(0) * basis_vector(1), basis)
    want = linalg.mat_mul(ideal.gamma_of(basis_vector(0), basis),
                          ideal.gamma_of(basis_vector(1), basis))
    assert linalg.mat_eq(got, want)


def test_representation_change_theorem():
    rng = random.Random(6)
    basis = ideal.canonical_basis()
    for _ in range(5):
        s = spin.random_rational_spin(rng, factors=2)
        new_basis = ideal.representation_change(s, basis)
        gs = ideal.gamma_of(s.element, basis)
        gs_rev = ideal.gamma_of(s.reverse, basis)
        for _ in range(5):
            u = random_exact_mv(rng, span=1)
            lhs = ideal.gamma_of(u, new_basis)
            rhs = linalg.mat_mul(linalg.mat_mul(gs, ideal.gamma_of(u, basis)), gs_rev)
            assert linalg.mat_eq(lhs, rhs)
        # the transporting element keeps its own matrix
        assert linalg.mat_eq(ideal.gamma_of(s.element, new_basis), gs)


def test_representation_change_identity():
    basis = ideal.canonical_basis()
    same = ideal.representation_change(spin.SpinElement.identity(), basis)
    assert same.t == basis.t
    assert all(a == b for a, b in zip(same.ts, basis.ts))


def test_scalar_product_properties():
    rng = random.Random(7)
    basis = ideal.canonical_basis()
    h = basis.gens.h
    assert ideal.scalar_product(basis.ts[0], basis.ts[0], h) == QQi(1)
    assert ideal.scalar_product(basis.ts[1], basis.ts[2], h) == QQi(0)
    for _ in range(50):
        u = random_exact_mv(rng) * basis.t
        v = random_exact_mv(rng) * basis.t
        k = random_exact_mv(rng)
        # positivity on the ideal
        norm = ideal.scalar_product(u, u, h)
        assert norm.imag == 0 and norm.real >= 0
        # adjoint relation
        assert ideal.scalar_product(k * u, v, h) == ideal.scalar_product(
            u, hermitian_conjugate(k, h) * v, h)


def test_theorem3_rank_eight():
    rng = random.Random(8)
    sets = [generators.canonical_generators()] + [random_generator_set(rng)
                                                  for _ in range(20)]
    for g in sets:
        basis = ideal.idempotent_of(g)
        assert ideal.even_ideal_map_rank(basis) == 8


# ---- float ranks: the column count less the nullity ----------------------------


def test_float_canonical_generators_span_rank_sixteen():
    elements = generators.basis16_of(generators.canonical_generators(FLOAT))
    assert linalg.rank([u.coeffs for u in elements]) == 16


def test_float_canonical_basis_maps_the_even_subspace_with_rank_eight():
    assert ideal.even_ideal_map_rank(ideal.canonical_basis(FLOAT)) == 8


def test_rank_deficient_float_set_is_rejected():
    # K = I repeats the same products, so they span less than the algebra
    g = generators.canonical_generators(FLOAT)
    with pytest.raises(InvalidGeneratorError, match="span rank"):
        generators.basis16_of(generators.SecondaryGenerators(g.h, g.i2, g.i2))


def test_even_ideal_roundtrip():
    rng = random.Random(9)
    for _ in range(25):
        basis = ideal.idempotent_of(random_generator_set(rng))
        psi = Multivector.from_terms(
            [(m, QQi(rng.randint(-3, 3))) for m in EVEN_MASKS], EXACT)
        theta = ideal.ideal_from_even(psi, basis)
        assert ideal.even_from_ideal(theta, basis) == psi


def test_even_from_ideal_examples():
    basis = ideal.canonical_basis()
    assert ideal.even_from_ideal(basis.t, basis) == Multivector.unit()
    # i t corresponds to the generator I
    assert ideal.even_from_ideal(basis.t.scale(QQi(0, 1)), basis) == basis.gens.i2


def test_even_from_ideal_rejects_outsiders():
    basis = ideal.canonical_basis()
    with pytest.raises(DomainError):
        ideal.even_from_ideal(Multivector.unit(), basis)


def _exact_basis(name: str) -> ideal.IdealBasis:
    if name == "canonical":
        return ideal.canonical_basis()
    return ideal.idempotent_of(random_generator_set(random.Random(int(name.split(":")[1]))))


EXACT_BASES = ["canonical", *(f"random:{n}" for n in range(1, 6))]


@pytest.mark.parametrize("name", EXACT_BASES)
def test_the_even_columns_split_f_and_f_i(name):
    # sum u_k P_k + conj(u_k) M_k = sum F_k (Re u_k + Im u_k I) needs P + M = F
    # and (P - M) i = F I, and then P and M are the halves F (1 -+ iI)/2
    basis = _exact_basis(name)
    plus, minus = basis.amplitude_columns["even"]
    i_unit = QQi(0, 1)
    for p, m, f in zip(plus, minus, basis.fs):
        assert p + m == f
        assert (p - m).scale(i_unit) == f * basis.gens.i2


@pytest.mark.parametrize("name", EXACT_BASES)
def test_the_columns_land_on_the_ideal_basis(name):
    # the even image of the spinor e_k is carried to t_k by Omega -> Omega t,
    # and its conjugate part to zero; the ideal image is t_k itself
    basis = _exact_basis(name)
    zero = Multivector.zero(EXACT)
    plus, minus = basis.amplitude_columns["even"]
    assert [p * basis.t for p in plus] == list(basis.ts)
    assert [m * basis.t for m in minus] == [zero] * 4
    assert basis.amplitude_columns["ideal"] == (basis.ts, (zero,) * 4)


@pytest.mark.parametrize("name", EXACT_BASES)
def test_the_complex_even_columns_absorb_the_ilk_even_factor(name):
    # r = (1 - iI)/2 is idempotent and (1 + iI) r = 0, so P_k r = P_k and
    # M_k r = 0: the ilk-even image of u is sum_k u_k P_k, with no right factor
    basis = _exact_basis(name)
    zero = Multivector.zero(EXACT)
    r = (Multivector.unit() - basis.gens.i2.scale(QQi(0, 1))).scale(QQi(1, 0, 2))
    plus, minus = basis.amplitude_columns["even"]
    assert [p * r for p in plus] == list(plus)
    assert [m * r for m in minus] == [zero] * 4
    assert basis.amplitude_columns["complex-even"] == (plus, (zero,) * 4)
    assert list(plus) == [tk.even_part().scale(2) for tk in basis.ts]


def test_bispinor_roundtrip():
    rng = random.Random(10)
    basis = ideal.canonical_basis()
    for _ in range(25):
        psi = ideal.Bispinor(
            tuple(QQi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)), EXACT)
        theta = ideal.ideal_from_bispinor(psi, basis)
        back = ideal.bispinor_from_ideal(theta, basis)
        assert back.components == psi.components


def test_bispinor_unit_component():
    basis = ideal.canonical_basis()
    psi = ideal.Bispinor((QQi(1), QQi(0), QQi(0), QQi(0)), EXACT)
    assert ideal.ideal_from_bispinor(psi, basis) == basis.ts[0]


def test_spin_transformation_invariance():
    rng = random.Random(11)
    basis = ideal.canonical_basis()
    for _ in range(20):
        s = spin.random_rational_spin(rng, factors=2)
        psi = Multivector.from_terms(
            [(m, QQi(rng.randint(-2, 2))) for m in EVEN_MASKS], EXACT)
        comps = basis.project_components(psi * basis.t)
        new_basis = ideal.representation_change(s, basis)
        gs = ideal.gamma_of(s.element, basis)
        new_comps = [sum((gs[k][l] * comps[l] for l in range(4)), QQi(0))
                     for k in range(4)]
        lhs = (psi * s.element) * new_basis.t
        rhs = Multivector.zero()
        for c, tk in zip(new_comps, new_basis.ts):
            rhs = rhs + tk.scale(c)
        assert lhs == rhs


def test_matrix_and_bispinor_json_layouts():
    basis = ideal.canonical_basis()
    mat = ideal.gamma_of(basis_vector(0), basis)
    data = ideal.matrix_to_json(mat)
    assert data[0][0] == [1.0, 0.0]
    assert data[2][2] == [-1.0, 0.0]
    assert len(data) == 4 and all(len(row) == 4 for row in data)
    psi = ideal.Bispinor((QQi(1), QQi(0, 2), QQi(0), QQi(-1)), EXACT)
    assert ideal.bispinor_to_json(psi) == [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0],
                                           [-1.0, 0.0]]


def test_st_expansion_matches_gamma():
    # S t_l expands through the matrix of S: (S t_l, t^k) = gamma(S)[k][l]
    rng = random.Random(12)
    basis = ideal.canonical_basis()
    for _ in range(10):
        s = spin.random_rational_spin(rng, factors=2)
        gs = ideal.gamma_of(s.element, basis)
        for l in range(4):
            for k in range(4):
                val = basis.pairing(s.element * basis.ts[l], basis.ts[k])
                assert val == gs[k][l]
