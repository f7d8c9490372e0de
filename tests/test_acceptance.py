"""Acceptance criteria, one test per criterion with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from stada import equations as eq
from stada import exterior, generators, ideal, linalg, spin
from stada.equations import BispinorField, EquationForm
from stada.fields import AnalyticField, Poly, d, delta, laplace, real_polynomial, upsilon, upsilon_gradient
from stada.multivector import (
    EVEN_MASKS,
    GRADE,
    Multivector,
    basis_vector,
)
from stada.scalars import EXACT, FLOAT, QQi

BASIS = ideal.canonical_basis()
FBASIS = BASIS.to_float()


def _announce(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


# ---- helpers shared with the random-state criteria ---------------------------


def _scalar_field(rng, nterms=2):
    entries = []
    for _ in range(nterms):
        phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                      Fraction(rng.randint(-2, 2))})
        coeffs = [Poly() for _ in range(16)]
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        coeffs[0] = Poly({exps: QQi(rng.randint(-2, 2), rng.randint(-2, 2))})
        entries.append((phase, coeffs))
    return AnalyticField(EXACT, entries)


def _random_potential(rng):
    out = AnalyticField.zero(EXACT)
    for mu in range(4):
        f = _scalar_field(rng, nterms=1).real_part()
        out = out + f.mul_const(basis_vector(mu), side="right")
    return out


def _random_bispinor(rng):
    return BispinorField(tuple(_scalar_field(rng) for _ in range(4)))


def _random_generator_set(rng):
    s = spin.random_rational_spin(rng, factors=2)
    return generators.transported_generators(s, generators.canonical_generators())


def test_criterion_01_blade_product_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for a in range(16):
        for b in range(16):
            u, v = Multivector.basis(a), Multivector.basis(b)
            if exterior.clifford_product_via_table(u, v) != u * v:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _announce(1, mismatches == 0 and elapsed < 1.0,
              f"256/256 blade pairs agree between the sign rule and the "
              f"grade-pair table in {elapsed:.3f}s")


GAMMA_EXPECTED = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 1j), (0, 0, -1j, 0), (0, -1j, 0, 0), (1j, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
)


def test_criterion_02_gamma_matrix_reproduction():
    bad = 0
    for mu in range(4):
        got = ideal.gamma_of(basis_vector(mu), BASIS)
        for r in range(4):
            for c in range(4):
                if complex(got[r][c]) != complex(GAMMA_EXPECTED[mu][r][c]):
                    bad += 1
    _announce(2, bad == 0,
              "canonical generators reproduce the standard matrices entry-exactly")


def test_criterion_03_gamma_anticommutation():
    eta = (1, -1, -1, -1)
    gammas = [ideal.gamma_of(basis_vector(mu), BASIS) for mu in range(4)]
    bad = 0
    for mu in range(4):
        for nu in range(mu, 4):
            lhs = linalg.mat_mul(gammas[mu], gammas[nu])
            rhs = linalg.mat_mul(gammas[nu], gammas[mu])
            total = tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(lhs, rhs))
            want = tuple(tuple(QQi(2 * eta[mu]) if mu == nu and i == j else QQi(0)
                               for j in range(4)) for i in range(4))
            if not linalg.mat_eq(total, want):
                bad += 1
    _announce(3, bad == 0,
              "all 10 unordered matrix pairs anticommute to twice the signature, exactly")


def test_criterion_04_spin_covering():
    rng = random.Random(40)
    worst_metric = 0.0
    worst_det = 0.0
    min_time = 1.0
    cover_bad = 0
    for _ in range(100):
        s = spin.random_spin(rng)
        p = spin.lorentz_of(s)
        worst_metric = max(worst_metric, p.metric_residual())
        worst_det = max(worst_det, abs(float(p.det()) - 1.0))
        min_time = min(min_time, float(p.rows[0][0]))
        if spin.lorentz_of(-s).rows != p.rows:
            cover_bad += 1
    ok = worst_metric <= 1e-10 and worst_det <= 1e-10 and min_time > 0 and cover_bad == 0
    _announce(4, ok,
              f"100 bivector exponentials: metric residual {worst_metric:.2e}, "
              f"det gap {worst_det:.2e}, min time-time entry {min_time:.3f}, "
              f"double cover exact")


def test_criterion_05_even_ideal_bijection():
    rng = random.Random(50)
    rank_bad = 0
    trip_bad = 0
    for _ in range(20):
        g = _random_generator_set(rng)
        b = ideal.idempotent_of(g)
        if ideal.even_ideal_map_rank(b) != 8:
            rank_bad += 1
        psi = Multivector.from_terms(
            [(m, QQi(rng.randint(-3, 3))) for m in EVEN_MASKS], EXACT)
        if ideal.even_from_ideal(ideal.ideal_from_even(psi, b), b) != psi:
            trip_bad += 1
    _announce(5, rank_bad == 0 and trip_bad == 0,
              "20 random generator sets: the even-to-ideal map has exact rank 8 "
              "and the round trip is the identity")


def test_criterion_06_four_form_equivalence():
    rng = random.Random(60)
    gammas = tuple(ideal.gamma_of(basis_vector(mu), BASIS) for mu in range(4))
    m = Fraction(3, 2)
    map_bad = 0
    for _ in range(50):
        psi = _random_bispinor(rng)
        pot = _random_potential(rng)
        r_col = eq.dirac_operator(psi, pot, m, gammas)
        theta = eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.IDEAL, BASIS)
        r_ideal = eq.form_operator(EquationForm.IDEAL, theta, pot, m)
        if eq.translate(r_col, EquationForm.DIRAC_MATRIX, EquationForm.IDEAL,
                        BASIS) != r_ideal:
            map_bad += 1
        if eq.translate(r_ideal, EquationForm.IDEAL, EquationForm.DIRAC_MATRIX,
                        BASIS) != r_col:
            map_bad += 1
        psi_even = eq.translate(psi, EquationForm.DIRAC_MATRIX,
                                EquationForm.HESTENES, BASIS)
        r_even = eq.form_operator(EquationForm.HESTENES, psi_even, pot, m,
                                  BASIS.gens.h, BASIS.gens.i2)
        if r_even.mul_const(BASIS.t, side="right") != r_ideal:
            map_bad += 1
        # the exterior-calculus form shares storage with the real even form
        phi = eq.translate(psi, EquationForm.DIRAC_MATRIX, EquationForm.TENSOR, BASIS)
        r_tensor = eq.form_operator(EquationForm.TENSOR, phi, pot, m,
                                    BASIS.gens.h, BASIS.gens.i2)
        if r_tensor != r_even:
            map_bad += 1
    rng_p = random.Random(61)
    momenta = [(1.0, 0.0, 0.0, 0.0)]
    for _ in range(3):
        momenta.append(eq.boosted_momentum(
            1.0, rng_p.uniform(-1, 1),
            (rng_p.uniform(-1, 1), rng_p.uniform(-1, 1), rng_p.uniform(-1, 1))))
    worst = 0.0
    forms = (EquationForm.DIRAC_MATRIX, EquationForm.IDEAL,
             EquationForm.HESTENES, EquationForm.TENSOR)
    for p in momenta:
        for form in forms:
            sol = eq.plane_wave(form, p, 1.0, basis=BASIS)
            if form == EquationForm.DIRAC_MATRIX:
                rep = eq.residual_dirac(sol.state, None, 1.0, FBASIS)
            elif form == EquationForm.IDEAL:
                rep = eq.residual_ideal(sol.state, None, 1.0, FBASIS)
            elif form == EquationForm.HESTENES:
                rep = eq.residual_hestenes(sol.state, None, 1.0,
                                           FBASIS.gens.h, FBASIS.gens.i2)
            else:
                rep = eq.residual_tensor(sol.state, None, 1.0,
                                         FBASIS.gens.h, FBASIS.gens.i2)
            worst = max(worst, rep.max_norm)
    _announce(6, map_bad == 0 and worst <= 1e-12,
              f"50 random states map exactly across all four forms; plane waves at "
              f"4 momenta solve every form (worst residual {worst:.2e})")


def test_criterion_07_ilk_reductions():
    rng = random.Random(70)
    m = Fraction(3, 2)
    bad = 0
    for kind in ("t-HI", "t-H", "t-e5"):
        t_red = eq.reduction_idempotent(kind, BASIS.gens)
        for _ in range(50):
            rho = AnalyticField.zero(EXACT)
            for mask in range(16):
                if rng.random() < 0.4:
                    rho = rho + _scalar_field(rng, nterms=1).mul_const(
                        Multivector.basis(mask), side="right")
            pot = _random_potential(rng)
            lhs = eq.reduced_operator(kind, rho.mul_const(t_red, side="right"),
                                      pot, m, BASIS.gens)
            rhs = eq.form_operator(EquationForm.ILK, rho, pot, m).mul_const(
                t_red, side="right")
            if lhs != rhs:
                bad += 1
    _announce(7, bad == 0,
              "all three idempotents map general-form residuals onto the reduced "
              "equations exactly on 50 random states each")


def test_criterion_08_current_conservation():
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    worst_analytic = eq.current(sol.state, FBASIS.gens.h).divergence_max()
    boosted = eq.plane_wave(EquationForm.TENSOR,
                            eq.boosted_momentum(1.0, 0.7, (1, 2, 0)), 1.0,
                            basis=BASIS)
    worst_analytic = max(worst_analytic,
                         eq.current(boosted.state, FBASIS.gens.h).divergence_max())
    s1 = eq.plane_wave(EquationForm.TENSOR, (2.0, 2.0, 0, 0), 0.0,
                       basis=BASIS, which=0)
    s2 = eq.plane_wave(EquationForm.TENSOR, (1.0, 0.0, 1.0, 0), 0.0,
                       basis=BASIS, which=1)
    phi = s1.state + s2.state
    worst_analytic = max(worst_analytic,
                         eq.current(phi, FBASIS.gens.h).divergence_max())
    h1 = math.pi / 4
    d1 = eq.current_grid_divergence(phi, FBASIS.gens.h, 16, h1)
    d2 = eq.current_grid_divergence(phi, FBASIS.gens.h, 16, h1 / 2)
    ratio = d1 / d2
    ok = worst_analytic <= 1e-12 and 3.2 <= ratio <= 4.8
    _announce(8, ok,
              f"analytic divergence {worst_analytic:.2e} <= 1e-12; grid divergence "
              f"ratio under h-halving {ratio:.3f} in [3.2, 4.8]")


def test_criterion_09_gauge_invariance():
    lam_cases = [real_polynomial({(0, 1, 0, 0): 0.3}, FLOAT),
                 real_polynomial({(2, 0, 0, 0): 0.1, (0, 0, 1, 1): -0.2,
                                  (0, 0, 0, 1): 0.4}, FLOAT)]
    sol = eq.plane_wave(EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=BASIS)
    nonsol = eq.plane_wave(EquationForm.TENSOR,
                           eq.boosted_momentum(1.0, 0.4, (0, 1, 1)), 1.0,
                           basis=BASIS).state
    psi_sol = eq.plane_wave(EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0,
                            basis=BASIS)
    worst = 0.0
    for lam in lam_cases:
        for state, mass in ((sol.state, 1.0), (nonsol, 0.6)):
            before = eq.residual_tensor(state, None, mass,
                                        FBASIS.gens.h, FBASIS.gens.i2)
            st2, pot2 = eq.gauge_transform(state, None, lam,
                                           EquationForm.TENSOR, FBASIS)
            after = eq.residual_tensor(st2, pot2, mass,
                                       FBASIS.gens.h, FBASIS.gens.i2)
            worst = max(worst, abs(after.max_norm - before.max_norm))
        for state, mass in ((psi_sol.state, 1.0),):
            before = eq.residual_dirac(state, None, mass, FBASIS)
            st2, pot2 = eq.gauge_transform(state, None, lam,
                                           EquationForm.DIRAC_MATRIX, FBASIS)
            after = eq.residual_dirac(st2, pot2, mass, FBASIS)
            worst = max(worst, abs(after.max_norm - before.max_norm))
    _announce(9, worst <= 1e-10,
              f"residual size drifts by at most {worst:.2e} <= 1e-10 under gauge "
              f"transport, for solutions and non-solutions")


def test_criterion_10_operator_identities():
    rng = random.Random(100)
    bad = 0
    for _ in range(100):
        entries = []
        for _ in range(2):
            phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                          Fraction(rng.randint(-2, 2))})
            coeffs = [Poly() for _ in range(16)]
            for _ in range(3):
                m = rng.randrange(16)
                exps = tuple(rng.randint(0, 2) for _ in range(4))
                coeffs[m] = coeffs[m] + Poly(
                    {exps: QQi(rng.randint(-2, 2), rng.randint(-2, 2))})
            entries.append((phase, coeffs))
        f = AnalyticField(EXACT, entries)
        if not d(d(f)).is_zero() or not delta(delta(f)).is_zero():
            bad += 1
        if upsilon(f) != upsilon_gradient(f):
            bad += 1
        l1 = laplace(f, "direct")
        if (l1 != laplace(f, "upsilon") or l1 != laplace(f, "d_minus_delta")
                or l1 != laplace(f, "de_rham")):
            bad += 1
    star_bad = 0
    for m in range(16):
        blade = Multivector.basis(m)
        want = blade if (GRADE[m] + 1) % 2 == 0 else -blade
        if exterior.hodge_star(exterior.hodge_star(blade)) != want:
            star_bad += 1
    _announce(10, bad == 0 and star_bad == 0,
              "nilpotency, the two first-order forms, all four second-order routes, "
              "and the double star sign hold exactly on 100 random fields")


def test_criterion_11_full_suite_timing_and_determinism(tmp_path):
    runs = []
    elapsed = None
    for tag in ("a", "b"):
        path = tmp_path / f"all_{tag}.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stada", "verify", "--suite", "all",
             "--seed", "1", "--report", str(path)],
            capture_output=True, text=True)
        took = time.perf_counter() - start
        elapsed = took if elapsed is None else max(elapsed, took)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(path.read_text())
        data.pop("environment")
        runs.append(json.dumps(data, sort_keys=True))
    ok = runs[0] == runs[1] and elapsed < 60.0
    _announce(11, ok,
              f"full verification suite passes in {elapsed:.1f}s (< 60s) and is "
              f"byte-deterministic for a fixed seed")
