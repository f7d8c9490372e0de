"""Residual evaluators, translations, reductions, gauge and Lorentz
invariance, the conserved current, and the Lagrangian consistency checks."""

import cmath
import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stada import equations as eq
from stada import generators, ideal, spin
from stada.equations import BispinorField, EquationForm
from stada.errors import BackendMismatchError, DomainError, InvalidGeneratorError
from stada.fields import AnalyticField, Poly, real_polynomial, upsilon_gradient
from stada.grid import sample
from stada.multivector import (
    EVEN_MASKS,
    Multivector,
    basis_vector,
    clifford_product,
    hermitian_conjugate,
    scalar_part_of_product,
)
from stada.scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi, modulus, nan_max

BASIS = ideal.canonical_basis()
FBASIS = BASIS.to_float()
GAMMAS = tuple(ideal.gamma_of(basis_vector(mu), BASIS) for mu in range(4))


def scalar_field(rng, backend=EXACT, nterms=2):
    entries = []
    for _ in range(nterms):
        k = Fraction(rng.randint(-2, 2))
        phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                      k if backend == EXACT else float(k)})
        coeffs = [Poly() for _ in range(16)]
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        c = (QQi(rng.randint(-2, 2), rng.randint(-2, 2)) if backend == EXACT
             else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        coeffs[0] = Poly({exps: c})
        entries.append((phase, coeffs))
    return AnalyticField(backend, entries)


def random_bispinor(rng, backend=EXACT):
    return BispinorField(tuple(scalar_field(rng, backend) for _ in range(4)))


def random_potential(rng, backend=EXACT):
    out = AnalyticField.zero(backend)
    for mu in range(4):
        f = scalar_field(rng, backend, nterms=1).real_part()
        out = out + f.mul_const(basis_vector(mu, backend), side="right")
    return out


def random_even_real(rng):
    out = AnalyticField.zero(EXACT)
    for mask in EVEN_MASKS:
        if rng.random() < 0.6:
            f = scalar_field(rng, nterms=1).real_part()
            out = out + f.mul_const(Multivector.basis(mask), side="right")
    return out


def random_full_state(rng):
    out = AnalyticField.zero(EXACT)
    for mask in range(16):
        if rng.random() < 0.4:
            f = scalar_field(rng, nterms=1)
            out = out + f.mul_const(Multivector.basis(mask), side="right")
    return out


# ---- plane-wave solutions -----------------------------------------------------


def residual_for(form, state, pot, m, basis=FBASIS, **kw):
    """Direct residual_* call per form: the reference for FieldConfig's table."""
    if form == EquationForm.DIRAC_MATRIX:
        return eq.residual_dirac(state, pot, m, basis, **kw)
    if form == EquationForm.IDEAL:
        return eq.residual_ideal(state, pot, m, basis, **kw)
    if form == EquationForm.HESTENES:
        return eq.residual_hestenes(state, pot, m, basis.gens.h, basis.gens.i2, **kw)
    if form == EquationForm.TENSOR:
        return eq.residual_tensor(state, pot, m, basis.gens.h, basis.gens.i2, **kw)
    if form == EquationForm.ILK:
        return eq.residual_ilk(state, pot, m, **kw)
    if form == EquationForm.ILK_EVEN:
        return eq.residual_ilk_even(state, pot, m, basis.gens.h, **kw)
    return eq.residual_ilk_e5(state, pot, m, **kw)


@pytest.mark.parametrize("form", list(EquationForm))
def test_plane_wave_solves_every_form(form):
    sol = eq.plane_wave(form, (1.0, 0.0, 0.0, 0.0), 1.0, basis=BASIS)
    rep = residual_for(form, sol.state, None, 1.0)
    assert rep.max_norm <= 1e-12
    assert rep.verdict == "pass"


@pytest.mark.parametrize("form", list(EquationForm))
def test_boosted_plane_wave_solves_every_form(form):
    p = eq.boosted_momentum(1.0, 0.6, (1.0, -0.5, 2.0))
    sol = eq.plane_wave(form, p, 1.0, basis=BASIS)
    rep = residual_for(form, sol.state, None, 1.0)
    assert rep.max_norm <= 1e-12


def test_zero_states_give_zero_residual():
    rep = eq.residual_dirac(BispinorField.zero(FLOAT), None, 1.0, FBASIS)
    assert rep.max_norm == 0.0
    rep = eq.residual_tensor(AnalyticField.zero(FLOAT), None, 1.0,
                             FBASIS.gens.h, FBASIS.gens.i2)
    assert rep.max_norm == 0.0


def test_rest_frame_amplitude_space():
    # time-axis momentum: gamma0 u = u picks the first two components
    sol0 = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                         basis=BASIS, which=0)
    sol1 = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                         basis=BASIS, which=1)
    for sol in (sol0, sol1):
        u = sol.amplitude
        assert abs(u[2]) < 1e-12 and abs(u[3]) < 1e-12
    # opposite energy sign uses the complementary components
    neg = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                        basis=BASIS, sign=-1)
    assert abs(neg.amplitude[0]) < 1e-12 and abs(neg.amplitude[1]) < 1e-12


def test_plane_wave_rejects_offshell():
    with pytest.raises(DomainError):
        eq.plane_wave(EquationForm.DIRAC_MATRIX, (2.0, 0, 0, 0), 1.0, basis=BASIS)


def test_nonsolution_is_detected():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    rep = eq.residual_tensor(sol.state, None, 0.5, FBASIS.gens.h, FBASIS.gens.i2)
    assert rep.max_norm > 0.1
    assert rep.verdict == "fail"


# ---- the equivalence theorems ------------------------------------------------------


def test_matrix_ideal_residual_mapping_exact():
    rng = random.Random(0)
    m = Fraction(3, 2)
    for _ in range(25):
        psi = random_bispinor(rng)
        pot = random_potential(rng)
        r_col = eq.dirac_operator(psi, pot, m, GAMMAS)
        theta = eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.IDEAL, BASIS)
        r_ideal = eq.form_operator(EquationForm.IDEAL, theta, pot, m)
        assert eq.translate(r_col, EquationForm.DIRAC_MATRIX,
                            EquationForm.IDEAL, BASIS) == r_ideal
        assert eq.translate(r_ideal, EquationForm.IDEAL,
                            EquationForm.DIRAC_MATRIX, BASIS) == r_col


def test_even_ideal_residual_mapping_exact():
    rng = random.Random(1)
    m = Fraction(1, 2)
    for _ in range(25):
        psi = random_even_real(rng)
        pot = random_potential(rng)
        r_even = eq.form_operator(EquationForm.HESTENES, psi, pot, m,
                                  BASIS.gens.h, BASIS.gens.i2)
        r_ideal = eq.form_operator(EquationForm.IDEAL, psi.mul_const(BASIS.t, side="right"),
                                   pot, m)
        assert r_even.mul_const(BASIS.t, side="right") == r_ideal


def test_hestenes_tensor_share_residuals():
    rng = random.Random(2)
    for _ in range(10):
        psi = random_even_real(rng)
        pot = random_potential(rng)
        a = eq.form_operator(EquationForm.HESTENES, psi, pot, Fraction(1),
                             BASIS.gens.h, BASIS.gens.i2)
        b = eq.form_operator(EquationForm.TENSOR, psi, pot, Fraction(1),
                             BASIS.gens.h, BASIS.gens.i2)
        assert a == b  # same storage, same formula; the forms differ in rendering only


def test_ilk_reductions_exact():
    rng = random.Random(3)
    m = Fraction(3, 2)
    for kind in ("t-HI", "t-H", "t-e5"):
        for _ in range(17):
            rho = random_full_state(rng)
            pot = random_potential(rng)
            lhs, rhs = eq.reduction_sides(kind, rho, pot, m, BASIS.gens)
            assert lhs == rhs


def test_ideal_solution_embeds_into_general_form():
    sol = eq.plane_wave(EquationForm.IDEAL, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    rep = eq.residual_ilk(sol.state, None, 1.0)
    assert rep.max_norm <= 1e-12


def test_translate_roundtrips():
    rng = random.Random(4)
    for _ in range(10):
        psi = random_bispinor(rng)
        for dst in (EquationForm.IDEAL, EquationForm.HESTENES, EquationForm.TENSOR):
            moved = eq.translate(psi, EquationForm.DIRAC_MATRIX, dst, BASIS)
            back = eq.translate(moved, dst, EquationForm.DIRAC_MATRIX, BASIS)
            assert back == psi
    for _ in range(10):
        psi = random_even_real(rng)
        theta = eq.translate(psi, EquationForm.HESTENES, EquationForm.IDEAL, BASIS)
        assert eq.translate(theta, EquationForm.IDEAL,
                            EquationForm.HESTENES, BASIS) == psi


def _exact_wave_basis(name: str):
    return BASIS if name == "canonical" else _random_basis(int(name.split(":")[1]))


EXACT_BASES = ["canonical", *(f"random:{n}" for n in range(1, 6))]


@pytest.mark.parametrize("name", EXACT_BASES)
def test_translate_to_the_even_form_is_f_times_re_plus_im_i(name):
    basis = _exact_wave_basis(name)
    rng = random.Random(f"even:{name}")
    for _ in range(5):
        psi = random_bispinor(rng)
        want = AnalyticField.zero(EXACT)
        for comp, f in zip(psi.components, basis.fs):
            want = (want + comp.real_part().mul_const(f, side="right")
                    + comp.imag_part().mul_const(f * basis.gens.i2, side="right"))
        assert eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.HESTENES, basis) == want


@pytest.mark.parametrize("name", EXACT_BASES)
def test_translate_from_the_ideal_inverts_omega_t(name):
    basis = _exact_wave_basis(name)
    rng = random.Random(f"omega:{name}")
    for _ in range(5):
        omega = random_even_real(rng)
        theta = omega.mul_const(basis.t, side="right")
        assert eq.translate(theta, EquationForm.IDEAL, EquationForm.HESTENES, basis) == omega


@pytest.mark.parametrize("src, dst", [(EquationForm.HESTENES, EquationForm.TENSOR),
                                      (EquationForm.TENSOR, EquationForm.HESTENES)])
def test_the_shared_storage_pair_translates_as_the_identity(src, dst):
    wave = eq.plane_wave(EquationForm.HESTENES, (1.0, 0, 0, 0), 1.0, basis=FBASIS).state
    for state in (random_even_real(random.Random(8)), wave, sample(wave, 4, math.pi / 2)):
        assert eq.translate(state, src, dst, BASIS) is state


def test_no_other_pair_translates_on_a_grid():
    wave = eq.plane_wave(EquationForm.HESTENES, (1.0, 0, 0, 0), 1.0, basis=FBASIS).state
    grid = sample(wave, 4, math.pi / 2)
    for src, dst in itertools.permutations(EquationForm, 2):
        if {src, dst} != {EquationForm.HESTENES, EquationForm.TENSOR}:
            with pytest.raises(DomainError):
                eq.translate(grid, src, dst, BASIS)


def test_translate_unit_bispinor():
    psi = BispinorField.constant((1, 0, 0, 0), EXACT)
    even = eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.HESTENES, BASIS)
    assert even == AnalyticField.constant(Multivector.unit())


def test_ideal_residual_rejects_outsiders():
    state = AnalyticField.constant(Multivector.unit(FLOAT))
    with pytest.raises(DomainError):
        eq.residual_ideal(state, None, 1.0, FBASIS)


def test_even_residual_rejects_odd_or_complex():
    odd = AnalyticField.constant(basis_vector(0, FLOAT))
    with pytest.raises(DomainError):
        eq.residual_hestenes(odd, None, 1.0, FBASIS.gens.h, FBASIS.gens.i2)
    cplx = AnalyticField.constant(Multivector.unit(FLOAT).scale(1j))
    with pytest.raises(DomainError):
        eq.residual_tensor(cplx, None, 1.0, FBASIS.gens.h, FBASIS.gens.i2)


# ---- gauge transformations ------------------------------------------------------------


def test_gauge_identity_when_lambda_zero():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lam = real_polynomial({}, FLOAT)
    st, pot = eq.gauge_transform(sol.state, None, lam, EquationForm.TENSOR, FBASIS)
    assert st == sol.state
    assert pot.is_zero()


def test_gauge_constant_rotation():
    # constant lambda = pi/2 turns the state by I and keeps the potential
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lam = real_polynomial({(0, 0, 0, 0): math.pi / 2}, FLOAT)
    st, pot = eq.gauge_transform(sol.state, None, lam, EquationForm.TENSOR, FBASIS)
    assert pot.is_zero()
    want = sol.state.mul_const(FBASIS.gens.i2, side="right")
    x = (0.3, -0.4, 0.2, 0.1)
    assert (st.eval(x) - want.eval(x)).max_abs() < 1e-12
    rep = eq.residual_tensor(st, pot, 1.0, FBASIS.gens.h, FBASIS.gens.i2)
    assert rep.max_norm <= 1e-12


@pytest.mark.parametrize("form", list(EquationForm))
def test_gauge_preserves_solutions(form):
    sol = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lam = real_polynomial({(0, 1, 0, 0): 0.3}, FLOAT)
    st, pot = eq.gauge_transform(sol.state, None, lam, form, FBASIS)
    rep = residual_for(form, st, pot, 1.0)
    assert rep.max_norm <= 1e-10


def test_gauge_preserves_residual_norm_on_nonsolutions():
    nonsol = eq.plane_wave(EquationForm.TENSOR,
                           eq.boosted_momentum(1.0, 0.5, (0, 1, 0)), 1.0,
                           basis=BASIS).state
    for lam_entries in ({(0, 1, 0, 0): 0.3},
                        {(2, 0, 0, 0): 0.1, (0, 0, 1, 1): -0.2}):
        lam = real_polynomial(lam_entries, FLOAT)
        before = eq.residual_tensor(nonsol, None, 0.7, FBASIS.gens.h, FBASIS.gens.i2)
        st, pot = eq.gauge_transform(nonsol, None, lam, EquationForm.TENSOR, FBASIS)
        after = eq.residual_tensor(st, pot, 0.7, FBASIS.gens.h, FBASIS.gens.i2)
        assert abs(after.max_norm - before.max_norm) <= 1e-10
        assert before.max_norm > 0.1


# ---- global spin transformation ----------------------------------------------------------


def test_global_spin_invariance():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    rng = random.Random(5)
    for _ in range(10):
        s = spin.random_spin(rng, scale=0.5)
        moved = sol.state.mul_const(s.element, side="right")
        h_s = spin.sandwich(s, FBASIS.gens.h)
        i_s = spin.sandwich(s, FBASIS.gens.i2)
        rep = eq.residual_tensor(moved, None, 1.0, h_s, i_s)
        assert rep.max_norm <= 1e-10


def test_even_invertible_transport():
    # the general-transport variant: T need not be in the spin group
    from stada.multivector import inverse

    rng = random.Random(6)
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    for _ in range(5):
        t_mv = Multivector.unit(FLOAT) + Multivector.from_terms(
            [(m, complex(rng.uniform(-0.2, 0.2))) for m in EVEN_MASKS], FLOAT)
        try:
            t_inv = inverse(t_mv)
        except ZeroDivisionError:
            continue
        moved = sol.state.mul_const(t_mv, side="right")
        h_t = t_inv * FBASIS.gens.h * t_mv
        i_t = t_inv * FBASIS.gens.i2 * t_mv
        res = eq.form_operator(EquationForm.TENSOR, moved, None, 1.0, h_t, i_t)
        worst = max(res.eval(x).max_abs() for x in eq.sample_points(0))
        assert worst <= 1e-10


# ---- covariance ------------------------------------------------------------------------------


@pytest.mark.parametrize("form", [EquationForm.DIRAC_MATRIX, EquationForm.IDEAL,
                                  EquationForm.HESTENES, EquationForm.TENSOR])
def test_covariance_preserves_solutions(form):
    state = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=BASIS).state
    rng = random.Random(7)
    for _ in range(3):
        s = spin.random_spin(rng, scale=0.4)
        rep = eq.covariance_check(s, eq.FieldConfig(form, state, None, 1.0, FBASIS))
        assert rep.residual_after <= 1e-10
        assert rep.verdict == "pass"
        # an exact basis is taken through its float copy, as the residual does
        assert eq.covariance_check(s, eq.FieldConfig(form, state, None, 1.0, BASIS)) == rep


@pytest.mark.parametrize("form", [EquationForm.DIRAC_MATRIX, EquationForm.HESTENES,
                                  EquationForm.TENSOR])
def test_covariance_carries_the_potential(form):
    # a linear lambda gauges a solution into one with the constant potential
    # -d(lambda); dropping the potential leaves a residual above 0.3
    state = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=BASIS).state
    lam = real_polynomial({(1, 0, 0, 0): 0.2, (0, 1, 0, 0): -0.3}, FLOAT)
    state, pot = eq.gauge_transform(state, None, lam, form, FBASIS)
    rng = random.Random(7)
    for _ in range(3):
        s = spin.random_spin(rng, scale=0.4)
        rep = eq.covariance_check(s, eq.FieldConfig(form, state, pot, 1.0, FBASIS))
        assert rep.residual_after <= 1e-10
        assert rep.verdict == "pass"


def test_covariance_identity_is_noop():
    state = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                          basis=BASIS).state
    s = spin.SpinElement.identity(FLOAT)
    rep = eq.covariance_check(
        s, eq.FieldConfig(EquationForm.DIRAC_MATRIX, state, None, 1.0, FBASIS))
    assert rep.residual_after <= 1e-12


def test_state_transforms_commute_with_translation():
    # carrying a bispinor by the matrix of S and carrying the even state by
    # left multiplication with S land on the same translated state
    rng = random.Random(12)
    psi = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                        basis=BASIS).state
    even = eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.HESTENES, FBASIS)
    for _ in range(5):
        s = spin.random_spin(rng, scale=0.5)
        psi_moved = psi.apply_matrix(ideal.gamma_of(s.element, FBASIS))
        even_moved = AnalyticField.constant(s.element).clifford(even)
        via_translate = eq.translate(psi_moved, EquationForm.DIRAC_MATRIX,
                                     EquationForm.HESTENES, FBASIS)
        x = (0.2, -0.3, 0.4, 0.6)
        assert (via_translate.eval(x) - even_moved.eval(x)).max_abs() < 1e-12


def test_field_config_dispatch():
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    cfg = eq.FieldConfig(EquationForm.TENSOR, sol.state, None, 1.0, BASIS)
    assert cfg.residual().verdict == "pass"
    grid_cfg = eq.FieldConfig(EquationForm.TENSOR,
                              sample(sol.state, 8, math.pi / 4), None, 1.0, BASIS)
    rep = grid_cfg.residual(tolerance=0.2)
    assert rep.backend == "grid" and rep.verdict == "pass"


def _exact_state(form, rng):
    if form == EquationForm.DIRAC_MATRIX:
        return random_bispinor(rng)
    if form == EquationForm.IDEAL:
        return random_full_state(rng).mul_const(BASIS.t, side="right")
    if form in (EquationForm.HESTENES, EquationForm.TENSOR):
        return random_even_real(rng)
    if form == EquationForm.ILK_EVEN:
        return random_full_state(rng).even_part()
    return random_full_state(rng)


@pytest.mark.parametrize("form,kind", [
    (form, kind) for kind in ("float", "exact", "grid") for form in EquationForm
    if not (kind == "grid" and form == EquationForm.DIRAC_MATRIX)])
def test_field_config_matches_direct_residual(form, kind):
    from stada.grid import sample

    rng = random.Random(f"{form.value}-{kind}")
    pot, m, basis = None, 1.0, FBASIS
    if kind == "exact":
        state, pot, m, basis = _exact_state(form, rng), random_potential(rng), Fraction(3, 2), BASIS
    elif kind == "float":
        p = eq.boosted_momentum(1.0, rng.uniform(-1, 1), (1.0, -0.5, 2.0))
        state = eq.plane_wave(form, p, 1.0, basis=BASIS).state
    else:
        state = sample(eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=BASIS).state,
                       8, math.pi / 4)
    got = eq.FieldConfig(form, state, pot, m, BASIS).residual(tolerance=0.2, seed=3)
    want = residual_for(form, state, pot, m, basis, tolerance=0.2, seed=3)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.backend == ("grid" if kind == "grid" else kind)


def _grid(blades):
    """A constant 4^4 grid field with the given {blade mask: value}."""
    from stada.grid import GridField

    g = GridField.zeros(4, 0.5)
    for mask, value in blades.items():
        g.values[mask] = value
    return g


def test_grid_domain_thresholds():
    # the even and real bounds follow the rounding of the state, 10 * 1e-12 at
    # size 1, and a loose verdict tolerance does not widen them
    tol = 1e-3
    bound = 1e-12 * 1.0 * 10  # scale-free size 1: the largest coefficient is 1
    h, i2 = FBASIS.gens.h, FBASIS.gens.i2
    # odd part (blade e0, mask 1) against |odd| <= bound; mask 3 is e01
    eq.residual_tensor(_grid({0: 1.0, 1: 0.99 * bound}), None, 1.0, h, i2, tolerance=tol)
    with pytest.raises(DomainError, match="state must be even"):
        eq.residual_tensor(_grid({0: 1.0, 1: 1.01 * bound}), None, 1.0, h, i2, tolerance=tol)
    # a verdict tolerance below the default tightens the bound with it
    with pytest.raises(DomainError, match="state must be even"):
        eq.residual_tensor(_grid({0: 1.0, 1: 0.99 * bound}), None, 1.0, h, i2,
                           tolerance=1e-13)
    # the grid reality rule is |Im| <= bound, half as strict as the analytic
    # |rho - conj(rho)| <= bound
    eq.residual_hestenes(_grid({0: 1.0, 3: 1j * bound}), None, 1.0, h, i2, tolerance=tol)
    with pytest.raises(DomainError, match="state must be real"):
        eq.residual_hestenes(_grid({0: 1.0, 3: 1.01j * bound}), None, 1.0, h, i2,
                             tolerance=tol)
    # the even-complex form takes the same even check and no reality check
    eq.residual_ilk_even(_grid({0: 1.0, 3: 1j}), None, 1.0, h, tolerance=tol)
    with pytest.raises(DomainError, match="state must be even"):
        eq.residual_ilk_even(_grid({0: 1.0, 1: 1.01 * bound}), None, 1.0, h, tolerance=tol)
    with pytest.raises(DomainError, match="state leaves the left ideal"):
        eq.residual_ideal(_grid({0: 1.0}), None, 1.0, FBASIS, tolerance=tol)


def test_exact_domain_checks_are_equalities():
    # on the exact backend the domain checks compare exactly, with no bound
    h, i2 = BASIS.gens.h, BASIS.gens.i2
    odd = AnalyticField.constant(basis_vector(1))
    complex_even = AnalyticField.constant(Multivector.scalar(QQi(0, 1)))
    with pytest.raises(DomainError, match="state must be even"):
        eq.residual_hestenes(odd, None, 1, h, i2)
    with pytest.raises(DomainError, match="state must be real"):
        eq.residual_hestenes(complex_even, None, 1, h, i2)
    with pytest.raises(DomainError, match="state leaves the left ideal"):
        eq.residual_ideal(odd, None, 1, BASIS)
    # the even-complex form takes no reality check: i times the unit gets a
    # verdict, and as a constant it leaves the mass term i H, of norm 2
    report = eq.residual_ilk_even(complex_even, None, 1, h)
    assert (report.max_norm, report.verdict) == (2.0, "fail")


def test_an_exact_bispinor_on_a_float_basis_mixes_backends():
    psi = BispinorField.constant([1, 0, 0, 0], EXACT)
    with pytest.raises(BackendMismatchError):
        eq.residual_dirac(psi, None, 1, FBASIS)


def test_a_float_scalar_on_the_exact_backend_mixes_backends():
    unit = Multivector.unit()
    psi = BispinorField.constant([QQi(1), QQi(0), QQi(0), QQi(0)], EXACT)
    calls = (lambda: unit.scale(0.5),
             lambda: unit * 0.5,
             lambda: unit.scale(0.5j),
             lambda: AnalyticField.constant(unit).scale(0.5),
             lambda: eq.dirac_operator(psi, None, 1, FBASIS.vector_gammas()))
    for call in calls:
        with pytest.raises(BackendMismatchError, match="cannot enter the exact backend"):
            call()
    # a value that is no number at all is no backend mismatch
    with pytest.raises(TypeError):
        unit.scale("1/2")
    with pytest.raises(TypeError):
        AnalyticField.constant(unit).scale("1/2")


def test_the_verdict_is_derived_from_the_norm_and_the_tolerance():
    import dataclasses

    assert "verdict" not in {f.name for f in dataclasses.fields(eq.ResidualReport)}
    for max_norm, want in ((1e-13, "pass"), (1e-12, "pass"), (2e-12, "fail"),
                           (math.nan, "fail"), (math.inf, "fail")):
        report = eq.ResidualReport(form="ilk", backend="float", max_norm=max_norm,
                                   tolerance=1e-12, seed=0)
        assert report.verdict == want and report.passed() == (want == "pass")


def test_boost_moves_momentum():
    # boosting a rest-frame solution produces a solution whose phase carries
    # the boosted momentum
    state = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                          basis=BASIS).state
    alpha = 0.45
    s = spin.spin_from_bivector(
        Multivector.basis(0b0011, FLOAT).scale(complex(alpha / 2)))
    q = spin.lorentz_of(s, inverse=True).rows
    moved = state.compose_linear(q).apply_matrix(ideal.gamma_of(s.element, FBASIS))
    phases = moved.components[0].phase_polys() or moved.components[1].phase_polys()
    coeffs = phases[0].linear_coefficients()
    # covector transforms with q: p~_nu = q^mu_nu p_mu, here p = (1,0,0,0)
    want = tuple(-float(q[0][nu]) for nu in range(4))
    assert all(abs(float(c) - w) < 1e-12 for c, w in zip(coeffs, want))
    rep = eq.residual_dirac(moved, None, 1.0, FBASIS)
    assert rep.max_norm <= 1e-10


# ---- conserved current --------------------------------------------------------------------------


def test_current_zero_state():
    cur = eq.current(AnalyticField.zero(FLOAT), FBASIS.gens.h)
    assert cur.divergence_max() == 0.0


def test_current_of_a_grid_names_the_grid_route():
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    with pytest.raises(DomainError, match="current_grid_divergence"):
        eq.current(sample(sol.state, 4, math.pi / 2), FBASIS.gens.h)


def test_current_conservation_and_grade():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    cur = eq.current(sol.state, FBASIS.gens.h)
    assert cur.divergence_max() <= 1e-12
    assert cur.grade_leak <= 1e-12
    assert cur.match_error <= 1e-12
    # time component strictly positive at sample points
    for x in eq.sample_points(1):
        j0 = complex(cur.j[0].eval(x).coeffs[0])
        assert abs(j0.imag) < 1e-12
        assert j0.real > 0


def test_current_grade_for_random_even_states():
    rng = random.Random(8)
    for _ in range(10):
        phi = random_even_real(rng)
        cur = eq.current(phi, BASIS.gens.h)
        assert cur.grade_leak == 0.0
        assert cur.match_error == 0.0
        assert cur.J.is_real()


def test_current_grid_second_order():
    s1 = eq.plane_wave(EquationForm.TENSOR, (2.0, 2.0, 0, 0), 0.0, basis=BASIS, which=0)
    s2 = eq.plane_wave(EquationForm.TENSOR, (1.0, 0.0, 1.0, 0), 0.0, basis=BASIS, which=1)
    phi = s1.state + s2.state
    rep = eq.residual_tensor(phi, None, 0.0, FBASIS.gens.h, FBASIS.gens.i2)
    assert rep.max_norm <= 1e-12
    cur = eq.current(phi, FBASIS.gens.h)
    assert cur.divergence_max() <= 1e-12
    h1 = math.pi / 4
    d1 = eq.current_grid_divergence(phi, FBASIS.gens.h, 16, h1)
    d2 = eq.current_grid_divergence(phi, FBASIS.gens.h, 16, h1 / 2)
    assert d1 > 1e-3
    assert 3.2 <= d1 / d2 <= 4.8


# ---- lagrangian and field equations ----------------------------------------------------------------


def test_lagrangian_matter_part_vanishes_on_solutions():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lag = eq.lagrangian(sol.state, None, 1.0, FBASIS.gens.h, FBASIS.gens.i2)
    worst = (0.0 if lag.matter_part.is_zero() else
             max(abs(complex(lag.matter_part.eval(x).coeffs[0]))
                 for x in eq.sample_points(0)))
    assert worst <= 1e-12


def test_field_strength_identity():
    rng = random.Random(9)
    for _ in range(5):
        pot = random_potential(rng, FLOAT)
        sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
        lag = eq.lagrangian(sol.state, pot, 1.0, FBASIS.gens.h, FBASIS.gens.i2)
        assert lag.trace_identity_error <= 1e-12


def test_constant_potential_gives_zero_field_part():
    pot = AnalyticField.constant(basis_vector(1, FLOAT).scale(0.7))
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lag = eq.lagrangian(sol.state, pot, 1.0, FBASIS.gens.h, FBASIS.gens.i2)
    assert lag.field_part.is_zero()


def test_maxwell_residuals():
    rng = random.Random(10)
    pot = random_potential(rng, FLOAT)
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    mx = eq.maxwell_residual(sol.state, pot, FBASIS.gens.h)
    assert mx.strength_residual_max == 0.0
    assert mx.source_residual_max >= 0.0
    assert mx.field_strength.grades() <= {2}


# ---- reports --------------------------------------------------------------------------------------


def test_report_schema():
    sol = eq.plane_wave(EquationForm.HESTENES, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    rep = eq.residual_hestenes(sol.state, None, 1.0, FBASIS.gens.h, FBASIS.gens.i2,
                               seed=3)
    data = rep.to_json_dict()
    assert set(data) == {"form", "backend", "max_norm", "tolerance", "verdict",
                         "seed", "grid", "notes"}
    assert data["form"] == "hde"
    assert data["seed"] == 3
    assert data["verdict"] == "pass"
    assert any("grades" in note for note in data["notes"])


def test_grid_state_residual():
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    grid_state = sample(sol.state, 8, math.pi / 4)
    rep = eq.residual_tensor(grid_state, None, 1.0, FBASIS.gens.h, FBASIS.gens.i2,
                             tolerance=0.2)
    assert rep.backend == "grid"
    assert rep.grid == {"n": 8, "h": math.pi / 4}
    # discretization error is the only residual and is second-order small
    assert 0.0 < rep.max_norm < 0.2


def test_grid_state_with_an_analytic_potential():
    # the potential is sampled onto the grid and multiplies the state site by site
    from stada.expr import parse_field
    from stada.grid import sample

    n, h = 8, math.pi / 4
    sol = eq.plane_wave(EquationForm.ILK, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    pot = parse_field("0.2 e0 + 0.1 e1 exp(i[1,0,0,0])", FLOAT)
    grid_state = sample(sol.state, n, h)
    with_pot = eq.residual_ilk(grid_state, pot, 1.0, tolerance=0.5)
    without = eq.residual_ilk(grid_state, None, 1.0, tolerance=0.5)
    want = sample(pot.clifford(sol.state).scale(1j), n, h)
    gap = (with_pot.residual - without.residual - want).max_abs()
    assert gap <= 1e-14


def test_grid_potential_on_an_analytic_state_is_refused():
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.ILK, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    grid_pot = sample(AnalyticField.constant(basis_vector(1, FLOAT)), 4, math.pi / 2)
    with pytest.raises(DomainError, match="grid potential"):
        eq.residual_ilk(sol.state, grid_pot, 1.0)


def test_only_sampled_max_calls_sample_points():
    # one function holds the sampled-maximum rule: the zero shortcut, the
    # NaN-safe maximum and the seeded points
    import ast
    from pathlib import Path

    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "sample_points":
                callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(eq.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == ["equations.sampled_max"]


# ---- the form table ---------------------------------------------------------------------


RANDOM_BASIS = ideal.idempotent_of(generators.random_generators(random.Random(4)))
NON_MATRIX = [f for f in EquationForm if f != EquationForm.DIRAC_MATRIX]


def _in_domain(form, rng, basis):
    """A random exact state of the form's domain, in general not a solution."""
    if form == EquationForm.IDEAL:
        return random_full_state(rng).mul_const(basis.t, side="right")
    if form in (EquationForm.HESTENES, EquationForm.TENSOR):
        return random_even_real(rng)
    if form == EquationForm.ILK_EVEN:
        return random_full_state(rng).even_part()
    return random_full_state(rng)


def _paper_formula(form, psi, pot, m, h, i2):
    """The form's equation written out: Upsilon psi + (A psi) J + m psi M."""
    i = QQi(0, 1)
    a_psi = pot.clifford(psi)
    if form in (EquationForm.IDEAL, EquationForm.ILK):  # J = i, M = i
        return upsilon_gradient(psi) + a_psi.scale(i) + psi.scale(m * i)
    if form in (EquationForm.HESTENES, EquationForm.TENSOR):  # J = I, M = HI
        return (upsilon_gradient(psi) + a_psi.mul_const(i2, side="right")
                + psi.mul_const(h * i2, side="right").scale(m))
    if form == EquationForm.ILK_EVEN:  # J = i, M = iH
        return (upsilon_gradient(psi) + a_psi.scale(i)
                + psi.mul_const(h, side="right").scale(m * i))
    e5 = Multivector.basis(0b1111)  # J = M = e5
    return (upsilon_gradient(psi) + a_psi.mul_const(e5, side="right")
            + psi.mul_const(e5, side="right").scale(m))


@pytest.mark.parametrize("form", NON_MATRIX)
@pytest.mark.parametrize("basis", [BASIS, RANDOM_BASIS], ids=["canonical", "random4"])
def test_form_operator_is_the_paper_formula(form, basis):
    rng = random.Random(f"formula-{form.value}")
    m = Fraction(3, 2)
    h, i2 = basis.gens.h, basis.gens.i2
    for _ in range(3):
        psi, pot = _in_domain(form, rng, basis), random_potential(rng)
        assert eq.form_operator(form, psi, pot, m, h, i2) == \
            _paper_formula(form, psi, pot, m, h, i2)


@pytest.mark.parametrize("form", NON_MATRIX)
@pytest.mark.parametrize("basis", [BASIS, RANDOM_BASIS], ids=["canonical", "random4"])
def test_gauge_covariance_is_exact(form, basis):
    # psi -> psi exp(lam J), A -> A - d(lam) carries the operator along:
    # D'(psi') = D(psi) exp(lam J), exactly, for non-solutions too
    rng = random.Random(f"gauge-{form.value}")
    lam = real_polynomial({(1, 0, 0, 0): Fraction(1, 3), (0, 1, 1, 0): Fraction(-2, 5)},
                          EXACT)
    m = Fraction(3, 2)
    h, i2 = basis.gens.h, basis.gens.i2
    for _ in range(3):
        psi, pot = _in_domain(form, rng, basis), random_potential(rng)
        moved, moved_pot = eq.gauge_transform(psi, pot, lam, form, basis)
        lhs = eq.form_operator(form, moved, moved_pot, m, h, i2)
        rhs, _ = eq.gauge_transform(eq.form_operator(form, psi, pot, m, h, i2), None,
                                    lam, form, basis)
        assert not lhs.is_zero()
        assert (lhs - rhs).is_zero()


def test_the_form_table_is_the_one_dispatch():
    # only form_operator applies Upsilon, and neither the gauge map nor the
    # reductions branch on a form: both read the row
    import ast
    from pathlib import Path

    tree = ast.parse(Path(eq.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    upsilon_callers = sorted(
        name for name, fn in funcs.items() for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_upsilon")
    assert upsilon_callers == ["form_operator"]
    for name in ("gauge_transform", "reduced_operator"):
        compared = [ast.unparse(node) for node in ast.walk(funcs[name])
                    if isinstance(node, ast.Compare)
                    and any(isinstance(op, ast.Attribute)
                            and getattr(op.value, "id", None) == "EquationForm"
                            for op in [node.left, *node.comparators])]
        assert compared == [], name
    for gone in ("ilk_operator", "ideal_operator", "even_operator", "ilk_even_operator",
                 "ilk_e5_operator"):
        assert not hasattr(eq, gone)


def test_form_operator_refuses_what_its_row_cannot_build():
    rng = random.Random(0)
    with pytest.raises(DomainError, match="gamma-matrix"):
        eq.form_operator(EquationForm.DIRAC_MATRIX, random_bispinor(rng), None, 1)
    # M = HI needs both generators; without H it must not quietly become I
    with pytest.raises(DomainError, match="right factor H needs generator data"):
        eq.form_operator(EquationForm.TENSOR, random_even_real(rng), None, 1,
                         i2=BASIS.gens.i2)


_IDENTITY = spin.SpinElement.identity(FLOAT)
_LAM = real_polynomial({(1, 0, 0, 0): 0.2}, FLOAT)


@pytest.mark.parametrize("call,message", [
    (lambda ilk, grid: eq.translate(ilk, EquationForm.ILK, EquationForm.HESTENES, FBASIS),
     "no translation from ilk to hde"),
    (lambda ilk, grid: eq.gauge_transform(grid, None, _LAM, EquationForm.TENSOR, FBASIS),
     "gauge transformation runs on the analytic backend"),
    (lambda ilk, grid: eq.covariance_check(
        _IDENTITY, eq.FieldConfig(EquationForm.TENSOR, grid, None, 1.0, FBASIS)),
     "covariance checks run on the analytic backend"),
    (lambda ilk, grid: eq.covariance_check(
        _IDENTITY, eq.FieldConfig(EquationForm.ILK, ilk, None, 1.0, FBASIS)),
     "covariance check not defined for form ilk"),
    (lambda ilk, grid: eq.reduction_idempotent("bogus", BASIS.gens),
     "unknown reduction idempotent 'bogus'"),
], ids=["translate-ilk-hde", "gauge-grid", "covariance-grid", "covariance-ilk",
        "reduction-bogus"])
def test_maps_refuse_what_they_do_not_define(call, message):
    ilk = eq.plane_wave(EquationForm.ILK, (1.0, 0, 0, 0), 1.0, basis=BASIS).state
    with pytest.raises(DomainError, match=message):
        call(ilk, _grid({0: 1.0}))


def test_gauge_rotor_needs_generators_only_where_j_names_one():
    sol = eq.plane_wave(EquationForm.ILK_E5, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    lam = real_polynomial({(0, 1, 0, 0): 0.3}, FLOAT)
    st, pot = eq.gauge_transform(sol.state, None, lam, EquationForm.ILK_E5)
    assert eq.residual_ilk_e5(st, pot, 1.0).max_norm <= 1e-12
    for form in (EquationForm.HESTENES, EquationForm.TENSOR):
        with pytest.raises(DomainError, match="right factor I needs generator data"):
            eq.gauge_transform(sol.state, None, lam, form)


# ---- work done once per basis and once per norm ---------------------------------------


def _random_basis(k: int):
    return ideal.idempotent_of(generators.random_generators(random.Random(k)))


def _random_1():
    return _random_basis(1)


def _matrix_bits(mat) -> list:
    return _bits([v for row in mat for v in row])


def test_cached_gammas_equal_the_per_call_route():
    # the gamma^mu of a float copy, kept and per call, are the rounded exact
    # gamma_of(e_mu) bit for bit, also where max|H| is large (184.5 on random:1)
    for basis in (BASIS, *map(_random_basis, range(1, 6))):
        copy = basis.to_float()
        gammas = copy.vector_gammas()
        for mu in range(4):
            want = _matrix_bits(ideal.gamma_of(basis_vector(mu, EXACT), basis))
            assert _matrix_bits(gammas[mu]) == want
            assert _matrix_bits(ideal.gamma_of(basis_vector(mu, FLOAT), copy)) == want
    # an exact basis keeps its own gamma^mu: the per-call gamma_of, exactly
    gammas = BASIS.vector_gammas()
    assert gammas == tuple(ideal.gamma_of(basis_vector(mu, EXACT), BASIS) for mu in range(4))
    assert BASIS.vector_gammas() is gammas


def _image_sum(u, basis) -> tuple:
    """The float gamma of u: sum_m u_m times the rounded exact gamma of blade
    m, over ascending m from 0j, skipping a term with a zero factor."""
    images = [[complex(v) for row in ideal.gamma_of(Multivector.basis(m, EXACT), basis)
               for v in row] for m in range(16)]
    flat = []
    for e in range(16):
        acc = 0j
        for x, image in zip(u.coeffs, images):
            if x and image[e]:
                acc = acc + x * image[e]
        flat.append(acc)
    return tuple(tuple(flat[4 * n:4 * n + 4]) for n in range(4))


@pytest.mark.parametrize("k", [1, 3])
def test_float_gammas_of_a_random_basis_sum_the_rounded_images(k):
    # H is large on these bases (max|H| = 184.5 on random:1)
    basis = _random_basis(k)
    copy = basis.to_float()
    elements = [Multivector.basis(m, FLOAT) for m in range(16)]
    elements.append(spin.random_spin(random.Random(k), scale=0.4).element)
    for u in elements:
        assert _matrix_bits(ideal.gamma_of(u, copy)) == _matrix_bits(_image_sum(u, basis))


def test_float_gammas_skip_zero_factors():
    # 0 * inf is NaN, so an entry whose blade image is zero stays 0j
    coeffs = [0j] * 16
    coeffs[1] = complex(math.inf, 0.0)
    got = ideal.gamma_of(Multivector(coeffs, FLOAT), FBASIS)
    want = ideal.gamma_of(Multivector.basis(1, EXACT), BASIS)
    zeros = [(n, k) for n in range(4) for k in range(4) if want[n][k] == 0]
    assert zeros and all(got[n][k] == 0j for n, k in zeros)


def test_matrix_covariance_on_a_random_basis_gives_a_verdict():
    basis = _random_1()
    state = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0, basis=basis).state
    rng = random.Random(7)
    for _ in range(3):
        s = spin.random_spin(rng, scale=0.4)
        config = eq.FieldConfig(EquationForm.DIRAC_MATRIX, state, None, 1.0, basis.to_float())
        rep = eq.covariance_check(s, config)
        assert rep.verdict == "pass" and rep.residual_after <= 1e-10


def _coeffs(u):
    return [(c.real, c.imag) for c in u.coeffs]  # the bits, signed zeros included


@pytest.mark.parametrize("make", [lambda: BASIS, _random_1])
def test_the_float_copy_is_the_rounded_exact_basis(make):
    basis = make()
    copy = basis.to_float()
    assert basis.to_float() is copy and copy.to_float() is copy
    assert copy.backend == FLOAT
    exact_members = [basis.gens.h, basis.gens.i2, basis.gens.k2, basis.t,
                     *basis.ts, *basis.fs, *basis.ts_dagger]
    float_members = [copy.gens.h, copy.gens.i2, copy.gens.k2, copy.t,
                     *copy.ts, *copy.fs, *copy.ts_dagger]
    for u, fu in zip(exact_members, float_members):
        assert _coeffs(fu) == _coeffs(u.to_float())
    want = tuple(tuple(tuple(complex(v) for v in row)
                       for row in ideal.gamma_of(basis_vector(mu, EXACT), basis))
                 for mu in range(4))
    bits = [[[(v.real, v.imag) for v in row] for row in g] for g in want]
    assert [[[(v.real, v.imag) for v in row] for row in g] for g in copy.vector_gammas()] == bits
    for form, cols in basis.amplitude_columns.items():
        assert [list(map(_coeffs, c)) for c in copy.amplitude_columns[form]] \
            == [[_coeffs(u.to_float()) for u in c] for c in cols]


def test_the_float_copy_rounds_its_gammas_on_first_use():
    basis = ideal.idempotent_of(generators.canonical_generators())
    copy = basis.to_float()
    assert "blade_images" not in vars(basis) and "rounded_images" not in vars(copy)
    gammas = copy.vector_gammas()
    assert "blade_images" in vars(basis) and copy.vector_gammas() is gammas
    assert "rounded_images" in vars(copy)
    assert gammas == tuple(tuple(tuple(complex(v) for v in row)
                                 for row in ideal.gamma_of(basis_vector(mu, EXACT), basis))
                           for mu in range(4))


def _fresh_canonical_basis(monkeypatch) -> list:
    """Replace the cached canonical basis by one built on first use in this
    test; the returned list records each exact construction."""
    built = []

    @functools.cache
    def fresh():
        built.append(EXACT)
        return ideal.idempotent_of(generators.canonical_generators())
    monkeypatch.setattr(ideal, "_canonical_exact", fresh)
    return built


def _float_constructions(monkeypatch) -> list:
    """Record the backend of every idempotent_of and make_secondary call."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(first, *args, **kwargs):
            calls.append((name, first.backend))
            return original(first, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(ideal, "idempotent_of")
    counted(generators, "make_secondary")
    return calls


def test_an_exact_basis_is_never_rebuilt_in_float(monkeypatch):
    from stada import suites

    basis = _random_1()
    _fresh_canonical_basis(monkeypatch)
    calls = _float_constructions(monkeypatch)
    ideal.canonical_basis(FLOAT)  # built here, from exact generators
    assert ("idempotent_of", EXACT) in calls and all(backend == EXACT for _, backend in calls)
    calls.clear()
    for form in EquationForm:
        sol = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=basis)
        eq.FieldConfig(form, sol.state, None, 1.0, basis).residual()
    assert calls == []
    _fresh_canonical_basis(monkeypatch)  # so the suite builds its basis while recorded
    suites.run_suite("equations", seed=1)
    assert calls and all(backend == EXACT for _, backend in calls)


def test_equations_builds_no_basis():
    import ast
    from pathlib import Path

    tree = ast.parse(Path(eq.__file__).read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    used = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    for name in ("idempotent_of", "make_secondary"):
        assert name not in imported | used
    assert not hasattr(eq, "_float_basis")


def test_state_norm_checks_h_once_per_field():
    bad_h = Multivector.unit(FLOAT).scale(2.0)
    assert eq._state_norm(AnalyticField.zero(FLOAT), bad_h, 0) == 0.0
    with pytest.raises(InvalidGeneratorError):
        eq._state_norm(AnalyticField.constant(basis_vector(1, FLOAT)), bad_h, 0)


def test_a_grid_residual_checks_h_as_an_analytic_one_does():
    wave = eq.plane_wave(EquationForm.HESTENES, (1.0, 0, 0, 0), 1.0).state
    bad_h = Multivector.unit(FLOAT).scale(2.0)
    for state in (wave, sample(wave, 8, math.pi / 4)):
        with pytest.raises(InvalidGeneratorError):
            eq.residual_hestenes(state, None, 1.0, bad_h, FBASIS.gens.i2)


def test_the_verdict_tolerance_does_not_loosen_the_h_check():
    # H*H - 1 is 2e-4 here, far inside a verdict tolerance of 0.5
    near_h = basis_vector(0, FLOAT).scale(1.0 + 1e-4)
    wave = eq.plane_wave(EquationForm.HESTENES, (1.0, 0, 0, 0), 1.0).state
    for state in (wave, sample(wave, 8, math.pi / 4)):
        with pytest.raises(InvalidGeneratorError):
            eq.residual_hestenes(state, None, 1.0, near_h, FBASIS.gens.i2, tolerance=0.5)


def test_the_default_basis_is_built_once_per_backend(monkeypatch):
    built = _fresh_canonical_basis(monkeypatch)
    used = []

    def recorded(*args):
        used.append(ideal.canonical_basis(*args))
        return used[-1]

    monkeypatch.setattr(eq, "canonical_basis", recorded)
    reports = []
    for backend in (FLOAT, FLOAT, EXACT, EXACT):
        psi = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0).state
        if backend == EXACT:
            psi = BispinorField.constant((1, 0, Fraction(1, 2), 0), EXACT)
        reports.append(eq.residual_dirac(psi, None, 1.0))
    # one exact construction; the float basis is its copy, made once
    assert built == [EXACT]
    assert {id(b) for b in used} == {id(ideal.canonical_basis()), id(ideal.canonical_basis(FLOAT))}
    assert ideal.canonical_basis(FLOAT) is ideal.canonical_basis().to_float()
    fresh_exact = ideal.idempotent_of(generators.canonical_generators())
    fresh = [eq.residual_dirac(eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                                             basis=fresh_exact.to_float()).state,
                               None, 1.0, fresh_exact.to_float()),
             eq.residual_dirac(BispinorField.constant((1, 0, Fraction(1, 2), 0), EXACT),
                               None, 1.0, fresh_exact)]
    for got, want in zip(reports, [fresh[0], fresh[0], fresh[1], fresh[1]]):
        assert got.to_json_dict() == want.to_json_dict()
        assert got.max_norm.hex() == want.max_norm.hex()
    assert reports[2].max_norm > 0.5


def _boost_h(rapidity: float) -> Multivector:
    """cosh(a) e0 + sinh(a) e1, which squares to the unit."""
    return (basis_vector(0, FLOAT).scale(math.cosh(rapidity))
            + basis_vector(1, FLOAT).scale(math.sinh(rapidity)))


def _counted_unit_squares(monkeypatch) -> list:
    checks = []
    original = eq.require_unit_square

    def counted(h):
        checks.append(tuple(h.coeffs))
        return original(h)

    monkeypatch.setattr(eq, "require_unit_square", counted)
    eq._float_hermitian_size.cache_clear()
    return checks


def test_hermitian_size_is_built_once_per_float_h(monkeypatch):
    checks = _counted_unit_squares(monkeypatch)
    fields = [random_full_state(random.Random(k)).to_float() for k in range(3)]
    h = BASIS.gens.h
    first = [eq._state_norm(f, h, 0) for f in fields]
    assert len(checks) == 1
    # the exact H and its rounding share one size
    assert [eq._state_norm(f, h.to_float(), 0) for f in fields] == first
    assert len(checks) == 1
    # a kept size gives the bits of a fresh one
    eq._float_hermitian_size.cache_clear()
    fresh = [eq._state_norm(f, h, 0) for f in fields]
    assert [v.hex() for v in fresh] == [v.hex() for v in first]


def test_a_failing_h_is_never_kept(monkeypatch):
    checks = _counted_unit_squares(monkeypatch)
    bad_h = Multivector.unit(FLOAT).scale(2.0)
    field = AnalyticField.constant(basis_vector(1, FLOAT))
    for _ in range(2):
        with pytest.raises(InvalidGeneratorError):
            eq._state_norm(field, bad_h, 0)
    assert len(checks) == 2
    assert eq._float_hermitian_size.cache_info().currsize == 0


def test_kept_hermitian_sizes_stay_bounded():
    # the covariance checks push a new H for every case
    eq._float_hermitian_size.cache_clear()
    field = AnalyticField.constant(basis_vector(0, FLOAT))
    for k in range(200):
        assert eq._state_norm(field, _boost_h(k / 100), 0) > 0
    info = eq._float_hermitian_size.cache_info()
    assert info.currsize <= info.maxsize < 200


def test_sample_points_are_drawn_once_per_seed():
    for seed in (0, 3):
        rng = random.Random(seed)
        want = [tuple(rng.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(24)]
        points = eq.sample_points(seed)
        assert points is eq.sample_points(seed)
        assert isinstance(points, tuple) and all(isinstance(x, tuple) for x in points)
        assert list(points) == want


# ---- plane waves from amplitude columns -------------------------------------------------


def _field_route(sol, basis):
    """The state of a plane wave by the field route: the four component
    fields, `translate` to the ideal or Hestenes form, then the right factor
    of ilk-even or ilk-e5."""
    form, p, sign = sol.form, sol.momentum, sol.energy_sign
    phase = Poly({tuple(int(i == mu) for i in range(4)): -sign * p[mu]
                  for mu in range(4) if p[mu]})
    psi = BispinorField(tuple(
        AnalyticField.scalar_poly(Poly.constant(v), FLOAT).multiply_phase(phase)
        for v in sol.amplitude))
    via = {EquationForm.ILK: EquationForm.IDEAL, EquationForm.ILK_EVEN: EquationForm.HESTENES,
           EquationForm.ILK_E5: EquationForm.IDEAL}.get(form, form)
    state = eq.translate(psi, EquationForm.DIRAC_MATRIX, via, basis)
    if form == EquationForm.ILK_EVEN:
        unit = Multivector.unit(FLOAT)
        state = state.mul_const((unit - basis.gens.i2.scale(1j)).scale(0.5), side="right")
    elif form == EquationForm.ILK_E5:
        state = state.mul_const(eq.reduction_idempotent("t-e5", basis.gens), side="right")
    return state


@functools.cache
def _wave_basis(name: str):
    if name == "canonical":
        return FBASIS
    return ideal.idempotent_of(
        generators.random_generators(random.Random(int(name.split(":")[1])))).to_float()


def _l1(mv: Multivector) -> float:
    return sum(abs(c) for c in mv.coeffs)


def _field_route_bound(basis) -> float:
    """A relative bound on the rounding of the field route, which multiplies
    through t_k, t^k dagger, F_k and I: 64 u times the product of their
    largest coefficient sums, u = 2^-53.  The columns of a float copy are
    the rounded exact ones, so the gap is mostly the field route's own."""
    size = (max(map(_l1, basis.ts)) * max(map(_l1, basis.ts_dagger))
            * max(map(_l1, basis.fs)) * _l1(basis.gens.i2))
    return 64 * 2.0 ** -53 * size


def _relative_gap(a, b) -> float:
    """max |a - b| / max |b| over the field, or over all four components."""
    pairs = list(zip(a.components, b.components)) if isinstance(a, BispinorField) else [(a, b)]
    return max((x - y).max_abs() for x, y in pairs) / max(y.max_abs() for _, y in pairs)


@st.composite
def _on_shell(draw):
    """(p, m, sign, which): boosted massive momenta, light-like momenta with
    m = 0, and p = 0 with m = 0, where every spinor is an amplitude."""
    kind = draw(st.sampled_from(["massive", "light", "zero"]))
    sign = draw(st.sampled_from([1, -1]))
    # no component below 1e-3 but zero: halving a subnormal rounds, and the
    # two routes halve at different steps
    part = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    direction = tuple(draw(part) for _ in range(3))
    if kind == "zero":
        return (0.0, 0.0, 0.0, 0.0), 0.0, sign, draw(st.integers(0, 3))
    if kind == "light" and any(direction):
        e = draw(st.floats(0.1, 3.0))
        n = math.sqrt(sum(v * v for v in direction))
        return (e, *(e * v / n for v in direction)), 0.0, sign, draw(st.integers(0, 1))
    m = draw(st.floats(0.1, 3.0))
    p = eq.boosted_momentum(m, draw(st.floats(0.0, 2.0)), direction)
    return p, m, sign, draw(st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(_on_shell(), st.sampled_from(["canonical", *(f"random:{n}" for n in range(1, 6))]))
def test_plane_waves_equal_the_field_route(wave, basis_name):
    p, m, sign, which = wave
    basis = _wave_basis(basis_name)
    for form in EquationForm:
        sol = eq.plane_wave(form, p, m, sign=sign, basis=basis, which=which)
        reference = _field_route(sol, basis)
        if basis_name == "canonical":
            assert sol.state == reference, form
        else:
            assert _relative_gap(sol.state, reference) <= _field_route_bound(basis), form


def test_plane_waves_translate_nothing_once_the_columns_are_built(monkeypatch):
    translations, constants = [], []
    translate, mul_const = eq.translate, AnalyticField.mul_const
    monkeypatch.setattr(eq, "translate",
                        lambda state, *args: translations.append(args) or translate(state, *args))
    monkeypatch.setattr(AnalyticField, "mul_const",
                        lambda self, *a, **kw: constants.append(a) or mul_const(self, *a, **kw))
    _fresh_canonical_basis(monkeypatch)
    exact = _random_1()
    for basis, built_on in ((ideal.canonical_basis(FLOAT), ideal.canonical_basis()),
                            (exact.to_float(), exact)):
        assert "amplitude_columns" not in vars(built_on)
        eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=basis)
        # a float copy rounds the columns of its exact basis, built once
        columns = built_on.amplitude_columns
        assert "amplitude_columns" in vars(built_on) and "amplitude_columns" in vars(basis)
        for form in EquationForm:
            for sign in (1, -1):
                eq.plane_wave(form, (1.25, 0.6, 0, 0.8), 0.75, sign=sign, basis=basis)
        assert built_on.amplitude_columns is columns
        # not even the first plane wave of a basis translates a field
        assert translations == constants == []


@pytest.mark.parametrize("name", [f"random:{n}" for n in range(1, 6)])
def test_ilk_even_plane_waves_have_one_phase_term(name):
    # the complex-even columns are the even ones times (unit - iI)/2 already;
    # a float product by that factor left a counter-rotating term of rounding
    # residue on every wave of a non-canonical basis
    basis = _wave_basis(name)
    for p, m in (((1.0, 0, 0, 0), 1.0), ((1.25, 0.75, 0, 0), 1.0),
                 ((1.25, 0.6, 0, 0.8), 0.75)):
        for sign, which in itertools.product((1, -1), (0, 1)):
            sol = eq.plane_wave(EquationForm.ILK_EVEN, p, m, sign=sign, basis=basis,
                                which=which)
            assert len(sol.state.terms) == 1, (p, sign, which)


@pytest.mark.parametrize("size", [1.0, 1e300])
def test_state_norm_is_the_largest_pointwise_hermitian_norm(size):
    rng = random.Random(15)
    h = _random_1().to_float().gens.h
    for seed in range(3):
        state = random_full_state(rng).to_float().scale(size)
        want = max(_hermitian_at(_value_at(state, x), h) for x in eq.sample_points(seed))
        got = eq._state_norm(state, h, seed)
        assert got.hex() == want.hex()
        assert math.isfinite(got) and got > 0.1 * size


# ---- sampled sizes against a per-point reference ---------------------------------------
#
# The reference measures one point at a time with public scalar operations, as
# the sampled sizes once did: the value from the read-back terms, then
# hermitian_conjugate and scalar_part_of_product, Multivector.max_abs or the
# column norm.  The batched sizes must give its bits.


def _value_at(field, x) -> Multivector:
    """The value at x from the read-back terms: per term the phase factor
    times each blade's polynomial, term after term."""
    coeffs = [0j] * 16
    for phase, polys in field.terms.values():
        angle = 0.0
        for exps, c in phase.terms.items():
            v = float(c)
            for mu in range(4):
                if exps[mu]:
                    v *= x[mu] ** exps[mu]
            angle += v
        factor = cmath.exp(1j * angle)
        for m, q in enumerate(polys):
            if q:
                coeffs[m] += factor * q.eval(x)
    return Multivector(coeffs, FLOAT)


def _hermitian_direct(u: Multivector, h: Multivector) -> float:
    val = complex(scalar_part_of_product(u, hermitian_conjugate(u, h))) * 4
    return math.sqrt(max(val.real, 0.0))


def _hermitian_at(u: Multivector, h: Multivector) -> float:
    """sqrt(4 Tr(U U^dagger)), or s * norm(U / s) with s = max |U| where a
    finite U overflows."""
    value = _hermitian_direct(u, h)
    if math.isfinite(value):
        return value
    s = u.max_abs()
    return s * _hermitian_direct(u.scale(1.0 / s), h) if math.isfinite(s) else value


def _column_at(vals) -> float:
    try:
        return math.sqrt(sum(abs(v) ** 2 for v in vals))
    except OverflowError:
        moduli = [modulus(v) for v in vals]
        return math.nan if any(math.isnan(r) for r in moduli) else math.hypot(*moduli)


def _reference_max(field, size, seed: int) -> float:
    if field.is_zero():
        return 0.0
    if isinstance(field, BispinorField):
        values = [[complex(_value_at(c, x).coeffs[0]) for c in field.components]
                  for x in eq.sample_points(seed)]
    else:
        values = [_value_at(field, x) for x in eq.sample_points(seed)]
    return nan_max(*map(size, values))


@functools.cache
def _random_1_h() -> Multivector:
    return _random_1().to_float().gens.h


def _sizes(field, h_name: str) -> list:
    """(field, batched size, per-point reference) for the hermitian norm with
    H = e0 or the three-blade H of random:1, max_abs and the column norm."""
    h = basis_vector(0, FLOAT) if h_name == "e0" else _random_1_h()
    spinor = BispinorField(tuple(field.component(m) for m in (0, 3, 6, 15)))
    return [(field, eq._hermitian_size(h), lambda u: _hermitian_at(u, h)),
            (field, eq._max_abs, Multivector.max_abs),
            (spinor, eq._column_norms, _column_at)]


_real = st.floats(-3.0, 3.0, allow_nan=False)
_monomial = st.tuples(*[st.integers(0, 3)] * 4)
_coefficient = st.builds(complex, _real, _real)


@st.composite
def _two_phase_fields(draw):
    """(seed, field): a float field of two phases whose blades hold nothing,
    a polynomial with exponents up to 3, a constant, or c * (x^mu - p^mu),
    which is exactly zero at one of the seed's sample points p.  Some fields
    hold only constants, so that every key of a term is a bare blade."""
    seed = draw(st.integers(0, 3))
    p = eq.sample_points(seed)[draw(st.integers(0, 23))]
    kinds = draw(st.sampled_from([["none", "poly", "zero at p", "constant"],
                                  ["none", "constant"]]))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=16, max_size=16))
    terms = []
    for _ in range(2):
        phase = Poly(draw(st.dictionaries(_monomial, _real, min_size=1, max_size=3)))
        coeffs = []
        for kind in kinds:
            if kind == "poly":
                coeffs.append(Poly(draw(st.dictionaries(_monomial, _coefficient, max_size=3))))
            elif kind == "constant":
                coeffs.append(Poly.constant(draw(_coefficient)))
            elif kind == "zero at p":
                mu, c = draw(st.integers(0, 3)), draw(_coefficient)
                coeffs.append(Poly({(0, 0, 0, 0): -(c * p[mu]),
                                    tuple(int(i == mu) for i in range(4)): c}))
            else:
                coeffs.append(Poly())
        terms.append((phase, coeffs))
    return seed, AnalyticField(FLOAT, terms)


@settings(max_examples=60, deadline=None)
@given(_two_phase_fields(), st.sampled_from(["e0", "random:1"]))
def test_sampled_sizes_equal_the_per_point_reference(drawn, h_name):
    seed, field = drawn
    for f, size, reference in _sizes(field, h_name):
        assert eq.sampled_max(f, size, seed).hex() == _reference_max(f, reference, seed).hex()


# zeros of either sign, infinities, NaN and the smallest subnormal as coordinates
_SPECIAL_POINTS = ((0.0, -0.0, 5e-324, -5e-324), (-0.0, 0.0, math.inf, 1.5),
                   (math.nan, 0.25, -math.inf, -0.0), (1.0, -1.0, 0.5, 5e-324),
                   (-math.inf, math.inf, math.nan, 0.0))


def _special_point_fields() -> list:
    """Two phases on one blade with constant coefficients only (every key a
    bare blade), the same with a constant phase term, and polynomials of
    exponents up to 2 on two blades."""
    const = [Poly() for _ in range(16)]
    const[5] = Poly.constant(complex(-0.0, 2.5))
    other = [Poly() for _ in range(16)]
    other[5], other[0] = Poly.constant(complex(1.5, -0.0)), Poly.constant(-0.75 + 0j)
    poly = [Poly() for _ in range(16)]
    poly[3] = Poly({(0, 0, 0, 0): 0.5 - 1j, (1, 0, 2, 0): complex(-0.0, 3.0)})
    poly[9] = Poly({(0, 1, 0, 1): 2.0 + 0j})
    wave = Poly({(1, 0, 0, 0): 0.75, (0, 0, 0, 1): -1.25})
    return [AnalyticField(FLOAT, [(wave, const), (-wave, other)]),
            AnalyticField(FLOAT, [(wave + Poly.constant(0.5), const), (Poly(), other)]),
            AnalyticField(FLOAT, [(wave, poly), (-wave, const)])]


@pytest.mark.parametrize("which", range(3))
def test_eval_points_keeps_the_one_point_bits_at_special_coordinates(which):
    field = _special_point_fields()[which]
    got = field.eval_points(_SPECIAL_POINTS)
    for column, x in zip(got.T, _SPECIAL_POINTS):
        assert _bits(column) == _bits(_value_at(field, x).coeffs), x
    # the kept powers of a sample point set give the bits of fresh ones
    points = eq.sample_points(2)
    kept = field.eval_points(points)
    assert _bits(kept.ravel()) == _bits(field.eval_points(list(points)).ravel())


def test_kept_powers_and_gamma_arrays_are_read_only():
    points = eq.sample_points(0)
    AnalyticField.plane_wave(basis_vector(1, FLOAT), (0.5, 0.25, 0.0, 1.0)).eval_points(points)
    power = points.power(0, 1)
    assert power is points.power(0, 1)
    assert power.tolist() == [x[0] for x in points]
    with pytest.raises(ValueError):
        power[0] = 2.0
    arrays = FBASIS.gamma_arrays()
    assert arrays is FBASIS.gamma_arrays()
    assert [a.tolist() for a in arrays] == [[list(row) for row in g]
                                            for g in FBASIS.vector_gammas()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def _outcome(size, *args) -> str:
    """The bits of a size, or the name of the error it raises."""
    try:
        return size(*args).hex()
    except ArithmeticError as exc:
        return type(exc).__name__


_special = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e200, -1e308, math.inf, -math.inf,
                            math.nan])


_special_coefficient = st.one_of(st.just(0j), st.builds(complex, _special, _special))


def _bits(values) -> list:
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(_special_coefficient, min_size=32, max_size=32),
       st.sampled_from(["e0", "random:1"]))
def test_columnwise_products_keep_the_one_point_bits(coeffs, h_name):
    # a zero factor skips its term: 0 * inf would add a NaN
    u, v = Multivector(coeffs[:16], FLOAT), Multivector(coeffs[16:], FLOAT)
    h = basis_vector(0, FLOAT) if h_name == "e0" else _random_1_h()
    live = [m for m, c in enumerate(h.coeffs) if c]
    hcol, ucol, vcol = (np.array(w.coeffs)[:, None] for w in (h, u, v))
    left = eq._products(hcol, ucol, eq._clifford_terms(live, True))
    right = eq._products(ucol, hcol, eq._clifford_terms(live, False))
    assert _bits(left[:, 0]) == _bits(clifford_product(h, u).coeffs)
    assert _bits(right[:, 0]) == _bits(clifford_product(u, h).coeffs)
    unit = eq._products(ucol, vcol, eq._UNIT_TERMS)
    assert _bits(unit[:, 0]) == _bits([scalar_part_of_product(u, v)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_special_coefficient, min_size=16, max_size=16),
       st.sampled_from(["e0", "random:1"]))
def test_one_point_sizes_equal_the_reference(coeffs, h_name):
    # zeros of either sign, infinities, NaN and overflowing values at one point
    u = Multivector(coeffs, FLOAT)
    h = basis_vector(0, FLOAT) if h_name == "e0" else _random_1_h()
    column = np.array(coeffs)[:, None]
    assert _outcome(eq.hermitian_norm, u, h) == _outcome(_hermitian_at, u, h)
    assert _outcome(lambda: eq._max_abs(column)[0]) == _outcome(u.max_abs)
    assert _outcome(lambda: eq._column_norms(column[:4])[0]) == _outcome(_column_at, coeffs[:4])


def _overflow_at_one_point() -> AnalyticField:
    """c x^0 e1 with c such that 4 |c x^0|^2 overflows at the sample point of
    largest |x^0| alone."""
    a1, a2 = sorted(abs(x[0]) for x in eq.sample_points(0))[:-3:-1]
    c = math.sqrt(sys.float_info.max / 4) / math.sqrt(a1 * a2)
    return AnalyticField.monomial(basis_vector(1, FLOAT).scale(c), (1, 0, 0, 0))


def _with_an_inf() -> AnalyticField:
    """A field with an inf coefficient next to ones that vanish at a sample
    point."""
    p = eq.sample_points(0)[5]
    coeffs = [Poly() for _ in range(16)]
    coeffs[1] = Poly({(0, 0, 0, 0): complex(math.inf, 0.5)})
    for m in (0, 2, 6, 9):
        coeffs[m] = Poly({(0, 0, 0, 0): -(1.5j * p[m % 4]),
                          tuple(int(i == m % 4) for i in range(4)): 1.5j})
    return AnalyticField(FLOAT, [(Poly({(1, 0, 0, 0): 0.5}), coeffs)])


@pytest.mark.parametrize("h_name", ["e0", "random:1"])
def test_sampled_sizes_off_the_finite_range_equal_the_reference(h_name, monkeypatch):
    huge = _overflow_at_one_point()
    h = basis_vector(0, FLOAT)
    norms = [_hermitian_direct(_value_at(huge, x), h) for x in eq.sample_points(0)]
    assert sum(not math.isfinite(v) for v in norms) == 1
    spinor = BispinorField.constant((1e200, 0, complex(0, -1e200), 1.0), FLOAT)
    with pytest.raises(OverflowError):  # so the column norm takes hypot
        sum(abs(v) ** 2 for v in spinor.eval((0.0, 0.0, 0.0, 0.0)))
    cases = [*_sizes(_with_an_inf(), h_name),
             (huge, eq._hermitian_size(h), lambda u: _hermitian_at(u, h)),
             (spinor, eq._column_norms, _column_at)]
    for f, size, reference in cases:
        got = eq.sampled_max(f, size)
        assert got.hex() == _reference_max(f, reference, 0).hex()
        assert not got <= DEFAULT_TOLERANCE
    # a NaN sample point after a finite one
    finite = _sizes(random_full_state(random.Random(7)).to_float(), h_name)
    nan = math.nan
    monkeypatch.setattr(eq, "sample_points",
                        lambda seed=0: [(0.1, 0.2, 0.3, 0.4), (nan, nan, nan, nan)])
    for f, size, reference in finite:
        got = eq.sampled_max(f, size)
        assert math.isnan(got) and math.isnan(_reference_max(f, reference, 0))


def test_reports_off_the_finite_range_do_not_pass(monkeypatch):
    sol = eq.plane_wave(EquationForm.ILK, (1.0, 0, 0, 0), 1.0, basis=FBASIS)
    assert eq.residual_ilk(sol.state, None, 1.0).verdict == "pass"
    assert eq.residual_ilk(_with_an_inf(), None, 1.0).verdict == "fail"
    assert eq.residual_ilk(_overflow_at_one_point(), None, 1.0).verdict == "fail"
    spinor = BispinorField.constant((1e200, 0, 0, 0), FLOAT)
    assert eq.residual_dirac(spinor, None, 1.0).verdict == "fail"
    monkeypatch.setattr(eq, "sample_points",
                        lambda seed=0: [(0.1, 0.2, 0.3, 0.4), (math.nan,) * 4])
    report = eq.residual_ilk(sol.state, None, 1.5)
    assert math.isnan(report.max_norm) and report.verdict == "fail"


def test_the_field_gap_is_zero_for_equal_sides_and_the_sampled_size_otherwise():
    rng = random.Random(9)
    psi, chi = random_bispinor(rng, FLOAT), random_bispinor(rng, FLOAT)
    u, v = (random_full_state(rng).to_float() for _ in range(2))
    assert eq.field_gap(psi, psi) == eq.field_gap(u, u) == 0.0
    for seed in (0, 3):
        assert eq.field_gap(psi, chi, seed) == eq.sampled_max(psi - chi, eq._column_norms, seed)
        assert eq.field_gap(u, v, seed) == eq.sampled_max(u - v, eq._max_abs, seed)


_HUGE = complex(1.7e308, 1.7e308)  # finite, with a modulus beyond float range


@pytest.mark.parametrize("entries", [(_HUGE, math.nan), (math.nan, _HUGE)])
def test_a_nan_next_to_an_overflowing_modulus_measures_nan(entries):
    # the bare abs of a NaN raises right after an overflowing abs (CPython
    # leaves errno at ERANGE), so each modulus goes through `scalars.modulus`
    spinor = BispinorField.constant((*entries, 0, 0), FLOAT)
    report = eq.residual_dirac(spinor, None, 1.0)
    assert math.isnan(report.max_norm) and report.verdict == "fail"
    # a neighbouring column keeps its bits; an overflow alone measures inf
    columns = np.array([[entries[0], 3.0, _HUGE], [entries[1], 4.0, 0], [0, 0, 0], [0, 0, 0]])
    norms = eq._column_norms(columns)
    assert math.isnan(norms[0]) and norms[1:] == [5.0, math.inf]


def test_float_residual_norm_makes_no_per_point_products(monkeypatch):
    # the sampled norm measures every point in one pass: a product or an
    # evaluation per point would show in these counts
    from stada import multivector

    sol = eq.plane_wave(EquationForm.ILK, (1.25, 0.6, 0, 0.8), 0.75, basis=FBASIS)
    products, evals = [], []
    original = multivector.clifford_product

    def counted_product(a, b):
        products.append((a, b))
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("stada") and getattr(module, "clifford_product", None) is original:
            monkeypatch.setattr(module, "clifford_product", counted_product)
    evaluate = AnalyticField.eval
    monkeypatch.setattr(AnalyticField, "eval",
                        lambda self, x: evals.append(x) or evaluate(self, x))
    eq._float_hermitian_size.cache_clear()
    report = eq.residual_ilk(sol.state, None, 1.5)
    assert report.max_norm > 0.1
    # the one product is the check that H*H is the unit, once per float H
    e0 = basis_vector(0, FLOAT)
    assert products == [(e0, e0)]
    assert evals == []
    products.clear()
    assert eq.residual_ilk(sol.state, None, 1.5).max_norm.hex() == report.max_norm.hex()
    assert products == []
    # and all 24 sample points are evaluated in one pass
    batches = []
    evaluate_points = AnalyticField.eval_points
    monkeypatch.setattr(AnalyticField, "eval_points",
                        lambda self, points: batches.append(len(points))
                        or evaluate_points(self, points))
    size = eq._hermitian_size(e0)
    products.clear()
    assert eq.sampled_max(report.residual, size).hex() == report.max_norm.hex()
    assert products == [] and evals == [] and batches == [24]
