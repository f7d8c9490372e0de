"""Seeded verification batteries behind the `verify` command.

Each suite is a list of named checks; a check returns a measured number
and a bound, and passes when measured <= bound.  Exact-backend checks
report the count of violations with bound 0.  All randomness flows from
one seed so that reruns are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import math
import platform
import random
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from . import equations as eq
from . import exterior, generators, ideal, linalg, spin
from .errors import InvalidGeneratorError
from .expr import eval_expr
from .fields import AnalyticField, Poly, d, delta, laplace, real_polynomial, upsilon, upsilon_gradient
from .grid import GridField, Stencil, sample
from .multivector import (
    ETA,
    EVEN_MASKS,
    GRADE,
    MASKS_OF_GRADE,
    Multivector,
    basis_vector,
    blade_indices,
    exterior_product,
    format_multivector,
    hermitian_conjugate,
    inverse,
    l5,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi, nan_max


# ---- an independent product oracle ------------------------------------------


def oracle_blade_product(a: int, b: int) -> tuple[int, int]:
    """Blade product by literally sorting the concatenated index list with
    adjacent transpositions and contracting equal neighbours against the
    signature.  Kept deliberately naive and separate from the table rule."""
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    # bubble sort, one adjacent swap at a time
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # contract equal adjacent pairs
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= ETA[seq[i]]
            i += 2
        else:
            out.append(seq[i])
            i += 1
    mask = 0
    for mu in out:
        mask |= 1 << mu
    return sign, mask


# ---- plumbing -----------------------------------------------------------------


@dataclass
class CheckResult:
    id: str
    law: str
    status: str
    measured: float
    bound: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"id": self.id, "law": self.law, "status": self.status,
                "measured": self.measured, "bound": self.bound, "detail": self.detail}


@dataclass
class RunReport:
    suite: str
    seed: int
    backend: str
    iterations: int | None
    tolerance: float
    checks: list = dataclass_field(default_factory=list)

    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def summary(self) -> dict:
        failed = [c.id for c in self.checks if c.status != "pass"]
        return {"total": len(self.checks), "passed": len(self.checks) - len(failed),
                "failed": len(failed), "failing_ids": failed,
                "status": "pass" if not failed else "fail"}

    def to_json_dict(self, with_environment: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "backend": self.backend,
            "iterations": self.iterations,
            "tolerance": self.tolerance,
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": self.summary(),
        }
        if with_environment:
            out["environment"] = environment_stamp()
        return out


def environment_stamp() -> dict:
    from . import __version__

    return {"python": sys.version.split()[0], "platform": platform.platform(),
            "package_version": __version__}


def _rng(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def _np_rng(seed: int, check_id: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{check_id}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _check(results: list, check_id: str, law: str, measured, bound, detail: str = ""):
    status = "pass" if measured <= bound else "fail"
    results.append(CheckResult(id=check_id, law=law, status=status,
                               measured=float(measured), bound=float(bound),
                               detail=detail))


def _random_mv(rng: random.Random, backend: str = EXACT, span: int = 3,
               masks=range(16)) -> Multivector:
    if backend == EXACT:
        return Multivector.from_terms(
            [(m, QQi(rng.randint(-span, span), rng.randint(-span, span)))
             for m in masks], EXACT)
    return Multivector.from_terms(
        [(m, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for m in masks], FLOAT)


def _random_real_mv(rng: random.Random, masks=range(16), span: int = 3) -> Multivector:
    return Multivector.from_terms(
        [(m, QQi(rng.randint(-span, span))) for m in masks], EXACT)


# ---- suite: algebra --------------------------------------------------------------


def _suite_algebra(seed: int, iterations: int | None) -> list:
    res: list[CheckResult] = []
    n_assoc = iterations or 1000

    mismatches = 0
    for a in range(16):
        for b in range(16):
            want = oracle_blade_product(a, b)
            got_mv = Multivector.basis(a) * Multivector.basis(b)
            sign, mask = want
            ok = got_mv == Multivector.basis(mask).scale(sign)
            if not ok:
                mismatches += 1
    _check(res, "algebra.blade_product_oracle",
           "table product equals adjacent-transposition oracle on all 256 blade pairs",
           mismatches, 0, f"{256 - mismatches}/256 matched")

    rng = _rng(seed, "algebra.associativity")
    bad = 0
    for _ in range(n_assoc):
        u, v, w = (_random_mv(rng, span=2) for _ in range(3))
        if (u * v) * w != u * (v * w):
            bad += 1
    _check(res, "algebra.associativity", "(UV)W = U(VW) on random exact triples",
           bad, 0, f"{n_assoc} triples")

    bad = 0
    for mu in range(4):
        for nu in range(4):
            lhs = basis_vector(mu) * basis_vector(nu) + basis_vector(nu) * basis_vector(mu)
            want = Multivector.scalar(2 * ETA[mu] if mu == nu else 0)
            if lhs != want:
                bad += 1
    _check(res, "algebra.anticommutator",
           "generator anticommutators reproduce twice the signature", bad, 0)

    rng = _rng(seed, "algebra.exterior_graded")
    bad = 0
    for _ in range(iterations or 200):
        r = rng.randrange(5)
        s = rng.randrange(5)
        u = _random_mv(rng, masks=MASKS_OF_GRADE[r], span=2)
        v = _random_mv(rng, masks=MASKS_OF_GRADE[s], span=2)
        rhs = exterior_product(v, u)
        if (r * s) % 2:
            rhs = -rhs
        if exterior_product(u, v) != rhs:
            bad += 1
    _check(res, "algebra.exterior_graded_commutativity",
           "wedge of homogeneous parts commutes up to (-1)^(rs)", bad, 0)

    ps = l5()
    bad = 0
    for m in range(16):
        blade = Multivector.basis(m)
        comm = ps * blade - blade * ps if GRADE[m] % 2 == 0 else ps * blade + blade * ps
        if not comm.is_zero(0.0):
            bad += 1
    _check(res, "algebra.pseudoscalar_parity",
           "pseudoscalar commutes with even and anticommutes with odd blades", bad, 0)

    rng = _rng(seed, "algebra.involution")
    bad = 0
    for _ in range(iterations or 200):
        u = _random_mv(rng, span=2)
        v = _random_mv(rng, span=2)
        if u.star().star() != u or (u * v).star() != v.star() * u.star():
            bad += 1
    _check(res, "algebra.involution_laws",
           "conjugating reversion is involutive and antimultiplicative", bad, 0)

    rng = _rng(seed, "algebra.trace")
    bad = 0
    for _ in range(iterations or 50):
        u = _random_mv(rng, span=2)
        v = _random_mv(rng, span=2)
        if (u * v - v * u).trace() != QQi(0):
            bad += 1
        small = Multivector.from_terms(
            [(m, QQi(rng.randint(-1, 1), 0, 4)) for m in EVEN_MASKS], EXACT)
        w = Multivector.unit() + small
        try:
            w_inv = inverse(w)
        except ZeroDivisionError:
            continue
        if (w_inv * u * w).trace() != u.trace():
            bad += 1
    _check(res, "algebra.trace_laws",
           "trace kills commutators and survives conjugation", bad, 0)

    rng = _rng(seed, "algebra.float_agreement")
    worst = 0.0
    for _ in range(iterations or 100):
        u = Multivector.from_terms(
            [(m, QQi(rng.randint(-64, 64), rng.randint(-64, 64), 64)) for m in range(16)],
            EXACT)
        v = Multivector.from_terms(
            [(m, QQi(rng.randint(-64, 64), rng.randint(-64, 64), 64)) for m in range(16)],
            EXACT)
        exact = (u * v).to_float()
        approx = u.to_float() * v.to_float()
        worst = nan_max(worst, (exact - approx).max_abs())
    _check(res, "algebra.float_agreement",
           "float products track exact products coefficientwise", worst, 1e-12)

    rng = _rng(seed, "algebra.parse_roundtrip")
    bad = 0
    for _ in range(iterations or 100):
        u = Multivector.from_terms(
            [(m, QQi(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
             for m in rng.sample(range(16), rng.randint(0, 8))], EXACT)
        if eval_expr(format_multivector(u)) != u:
            bad += 1
    _check(res, "algebra.parse_roundtrip",
           "parse inverts format on the exact backend", bad, 0)

    rng = _rng(seed, "algebra.hermitian")
    h = basis_vector(0)
    bad = 0
    for _ in range(iterations or 100):
        u = _random_mv(rng, span=2)
        v = _random_mv(rng, span=2)
        lhs = hermitian_conjugate(u * v, h)
        rhs = hermitian_conjugate(v, h) * hermitian_conjugate(u, h)
        if lhs != rhs or hermitian_conjugate(hermitian_conjugate(u, h), h) != u:
            bad += 1
    _check(res, "algebra.hermitian_conjugation",
           "hermitian conjugation is involutive and antimultiplicative", bad, 0)
    return res


# ---- suite: hodge ------------------------------------------------------------------


def _suite_hodge(seed: int, iterations: int | None) -> list:
    res: list[CheckResult] = []

    bad = 0
    for a in range(16):
        for b in range(16):
            u, v = Multivector.basis(a), Multivector.basis(b)
            if exterior.clifford_product_via_table(u, v) != u * v:
                bad += 1
    _check(res, "hodge.table_equivalence",
           "grade-pair table product equals the sign-rule product on all 256 pairs",
           bad, 0, f"{256 - bad}/256 matched")

    bad = 0
    for m in range(16):
        blade = Multivector.basis(m)
        twice = exterior.hodge_star(exterior.hodge_star(blade))
        want = blade if (GRADE[m] + 1) % 2 == 0 else -blade
        if twice != want:
            bad += 1
        starred = exterior.hodge_star(blade)
        target_mask = 0b1111 ^ m
        if set(starred.grades()) - {GRADE[target_mask]} or not starred.coeffs[target_mask]:
            bad += 1
    _check(res, "hodge.star_square",
           "double star gives (-1)^(k+1) and lands on the complementary blade", bad, 0)

    rng = _rng(seed, "hodge.com")
    bad = 0
    for _ in range(iterations or 200):
        u = _random_mv(rng, masks=MASKS_OF_GRADE[2], span=2)
        v = _random_mv(rng, masks=MASKS_OF_GRADE[2], span=2)
        c = exterior.com_bracket(u, v)
        if c != -exterior.com_bracket(v, u):
            bad += 1
        if c != u * v - v * u:
            bad += 1
    _check(res, "hodge.com_bracket",
           "the grade-2 bracket is antisymmetric and equals the commutator", bad, 0)

    bad = 0
    for mu in range(4):
        for nu in range(4):
            u, v = basis_vector(mu), basis_vector(nu)
            lhs = (exterior.clifford_product_via_table(u, v)
                   + exterior.clifford_product_via_table(v, u))
            if lhs != Multivector.scalar(2 * exterior.METRIC_G[mu] if mu == nu else 0):
                bad += 1
    _check(res, "hodge.vector_anticommutation",
           "table product reproduces the metric anticommutation of covectors", bad, 0)

    audit = exterior.missing_case_audit()
    _check(res, "hodge.grade_pair_coverage",
           "each of the 25 grade pairs is handled by a formula",
           0 if audit.all_covered else 1, 0, f"{len(audit.handlers)} pairs")
    return res


# ---- suite: spin ----------------------------------------------------------------------


def _suite_spin(seed: int, iterations: int | None) -> list:
    res: list[CheckResult] = []
    n = iterations or 100

    rng = _rng(seed, "spin.lorentz")
    worst_metric = 0.0
    worst_det = 0.0
    worst_time = 1.0
    double_cover_bad = 0
    for _ in range(n):
        s = spin.random_spin(rng)
        p = spin.lorentz_of(s)
        worst_metric = nan_max(worst_metric, p.metric_residual())
        worst_det = nan_max(worst_det, abs(float(p.det()) - 1.0))
        worst_time = min(worst_time, float(p.rows[0][0]))
        if spin.lorentz_of(-s).rows != p.rows:
            double_cover_bad += 1
    _check(res, "spin.lorentz_metric", "induced matrices preserve the metric",
           worst_metric, 1e-10)
    _check(res, "spin.lorentz_det", "induced matrices have unit determinant",
           worst_det, 1e-10)
    _check(res, "spin.lorentz_orthochronous", "time orientation is preserved",
           0 if worst_time > 0 else 1, 0, f"min p00 = {worst_time}")
    _check(res, "spin.double_cover", "opposite spin elements induce the same matrix",
           double_cover_bad, 0)

    rng = _rng(seed, "spin.closure")
    bad = 0
    for _ in range(min(n, 50)):
        s = spin.random_spin(rng) * spin.random_spin(rng)
        prod = s.reverse * s.element
        if (prod - Multivector.unit(FLOAT)).max_abs() > 1e-10:
            bad += 1
    _check(res, "spin.group_closure", "products of spin elements stay in the group",
           bad, 0)

    rng = _rng(seed, "spin.homomorphism")
    worst = 0.0
    for _ in range(min(n, 30)):
        s1, s2 = spin.random_spin(rng), spin.random_spin(rng)
        lhs = spin.lorentz_of(s1 * s2).as_floats()
        rhs = spin.lorentz_of(s1).matmul(spin.lorentz_of(s2)).as_floats()
        worst = nan_max(worst, *(abs(a - b) for ra, rb in zip(lhs, rhs)
                                   for a, b in zip(ra, rb)))
    _check(res, "spin.homomorphism",
           "matrix of a product is the product of matrices, in the same order",
           worst, 1e-9)

    rng = _rng(seed, "spin.inverse")
    worst = 0.0
    for _ in range(min(n, 30)):
        s = spin.random_spin(rng)
        pq = spin.lorentz_of(s).matmul(spin.lorentz_of(s, inverse=True)).as_floats()
        worst = nan_max(worst, *(abs(pq[i][j] - (1.0 if i == j else 0.0))
                                   for i in range(4) for j in range(4)))
    _check(res, "spin.inverse_action", "forward and inverse actions invert each other",
           worst, 1e-9)

    rng = _rng(seed, "spin.grades")
    worst = 0.0
    for _ in range(min(n, 20)):
        s = spin.random_spin(rng)
        for k in range(5):
            for m in MASKS_OF_GRADE[k]:
                moved = spin.sandwich(s, Multivector.basis(m, FLOAT))
                leak = moved - moved.grade_part(k)
                worst = nan_max(worst, leak.max_abs())
    _check(res, "spin.grade_preservation", "the sandwich action preserves every grade",
           worst, 1e-10)

    rng = _rng(seed, "spin.parity")
    worst = 0.0
    for _ in range(min(n, 20)):
        # real coefficients: the parity statement lives in the real algebra
        odd = Multivector.from_terms(
            [(m, complex(rng.uniform(-1, 1))) for m in range(16) if GRADE[m] % 2], FLOAT)
        for k in (1, 2, 3):
            for m in MASKS_OF_GRADE[k]:
                moved = odd.star() * Multivector.basis(m, FLOAT) * odd
                worst = nan_max(worst, (moved - moved.grade_part(k)).max_abs())
        for m in (0, 0b1111):
            moved = odd.star() * Multivector.basis(m, FLOAT) * odd
            keep = moved.grade_part(0) + moved.grade_part(4)
            worst = nan_max(worst, (moved - keep).max_abs())
    _check(res, "spin.parity_action",
           "odd conjugation preserves middle grades and the scalar/pseudoscalar pair",
           worst, 1e-10)

    rng = _rng(seed, "spin.exp_closed_forms")
    worst = 0.0
    for _ in range(min(n, 20)):
        theta = rng.uniform(-1.5, 1.5)
        s_rot = spin.spin_from_bivector(
            Multivector.basis(0b0110, FLOAT).scale(complex(theta)))
        want = (Multivector.unit(FLOAT).scale(complex(math.cos(theta)))
                + Multivector.basis(0b0110, FLOAT).scale(complex(math.sin(theta))))
        worst = nan_max(worst, (s_rot.element - want).max_abs())
        alpha = rng.uniform(-1.5, 1.5)
        s_boost = spin.spin_from_bivector(
            Multivector.basis(0b0011, FLOAT).scale(complex(alpha)))
        want = (Multivector.unit(FLOAT).scale(complex(math.cosh(alpha)))
                + Multivector.basis(0b0011, FLOAT).scale(complex(math.sinh(alpha))))
        worst = nan_max(worst, (s_boost.element - want).max_abs())
    _check(res, "spin.exponential_closed_forms",
           "bivector exponentials match their rotation and boost closed forms",
           worst, 1e-12)

    g0 = generators.canonical_generators()
    s0 = spin.recover_spin(g0.h, g0.i2, g0.k2)
    _check(res, "spin.recover_canonical",
           "canonical generators recover the identity exactly",
           0 if s0.element == Multivector.unit() else 1, 0)

    rng = _rng(seed, "spin.recover_roundtrip")
    worst = 0.0
    for _ in range(n):
        s = spin.random_spin(rng, scale=0.8)
        gt = generators.transported_generators(s, generators.canonical_generators(FLOAT))
        r = spin.recover_spin(gt.h, gt.i2, gt.k2)
        d1 = (r.element - s.reverse).max_abs()
        d2 = (r.element + s.reverse).max_abs()
        worst = nan_max(worst, min(d1, d2))
        back = spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)
        worst = nan_max(worst, back.max_abs())
    _check(res, "spin.recover_roundtrip",
           "transported generators recover the transporting element up to sign",
           worst, 1e-8)

    rng = _rng(seed, "spin.recover_pair")
    worst = 0.0
    for _ in range(min(n, 25)):
        s = spin.random_spin(rng, scale=0.8)
        gt = generators.transported_generators(s, generators.canonical_generators(FLOAT))
        r = spin.recover_spin_pair(gt.h, gt.i2)
        worst = nan_max(worst, (spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)).max_abs())
        worst = nan_max(worst, (spin.sandwich(r, gt.i2)
                                + Multivector.basis(0b0110, FLOAT)).max_abs())
    _check(res, "spin.recover_pair",
           "a two-condition recovery still satisfies both sandwich equations",
           worst, 1e-8)
    return res


# ---- suite: representation ---------------------------------------------------------------


_GAMMA_EXPECTED = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 1j), (0, 0, -1j, 0), (0, -1j, 0, 0), (1j, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
)


def _suite_representation(seed: int, iterations: int | None) -> list:
    res: list[CheckResult] = []

    try:
        generators.canonical_generators()
        canonical_ok = 0
    except InvalidGeneratorError:
        canonical_ok = 1
    _check(res, "representation.canonical_valid",
           "the canonical generator triple satisfies its relations", canonical_ok, 0)

    try:
        generators.make_secondary(basis_vector(1),
                                  -Multivector.basis(0b0110),
                                  -Multivector.basis(0b1010))
        caught = 1
    except InvalidGeneratorError as e:
        caught = 0 if "H*H != unit" in str(e) else 1
    _check(res, "representation.invalid_rejected",
           "a spacelike H is rejected with the violated relation named", caught, 0)

    rng = _rng(seed, "representation.basis16")
    bad = 0
    for _ in range(10):
        g = generators.random_generators(rng)
        try:
            generators.basis16_of(g)
        except InvalidGeneratorError:
            bad += 1
    _check(res, "representation.basis16",
           "generator products span the algebra with traceless non-unit elements",
           bad, 0)

    rng = _rng(seed, "representation.idempotent")
    bad = 0
    for _ in range(10):
        g = generators.random_generators(rng)
        try:
            ideal.idempotent_of(g)
        except Exception:
            bad += 1
    _check(res, "representation.idempotent_invariants",
           "idempotency, ideal multiplication, and orthonormality hold at construction",
           bad, 0)

    rng = _rng(seed, "representation.absorption")
    bad = 0
    for _ in range(10):
        g = generators.random_generators(rng)
        basis = ideal.idempotent_of(g)
        if g.h * basis.t != basis.t or g.i2 * basis.t != basis.t.scale(QQi(0, 1)):
            bad += 1
        if basis.t * g.h != basis.t or basis.t * g.i2 != basis.t.scale(QQi(0, 1)):
            bad += 1
    _check(res, "representation.absorption",
           "H and I are absorbed by the idempotent from either side", bad, 0)

    basis = ideal.canonical_basis()
    bad = 0
    for mu in range(4):
        got = ideal.gamma_of(basis_vector(mu), basis)
        for r in range(4):
            for c in range(4):
                if complex(got[r][c]) != complex(_GAMMA_EXPECTED[mu][r][c]):
                    bad += 1
    _check(res, "representation.gamma_matrices",
           "canonical generators reproduce the standard matrix quadruple exactly",
           bad, 0)

    rng = _rng(seed, "representation.homomorphism")
    n_hom = iterations or 1000
    bad = 0
    for _ in range(n_hom):
        u = _random_mv(rng, span=1)
        v = _random_mv(rng, span=1)
        gu = ideal.gamma_of(u, basis)
        gv = ideal.gamma_of(v, basis)
        guv = ideal.gamma_of(u * v, basis)
        if not linalg.mat_eq(guv, linalg.mat_mul(gu, gv)):
            bad += 1
    _check(res, "representation.gamma_homomorphism",
           "the matrix map turns products into matrix products", bad, 0,
           f"{n_hom} pairs")

    rng = _rng(seed, "representation.change")
    bad = 0
    for _ in range(8):
        s = spin.random_rational_spin(rng, factors=2)
        new_basis = ideal.representation_change(s, basis)
        gs = ideal.gamma_of(s.element, basis)
        gs_rev = ideal.gamma_of(s.reverse, basis)
        for _ in range(4):
            u = _random_mv(rng, span=1)
            lhs = ideal.gamma_of(u, new_basis)
            rhs = linalg.mat_mul(linalg.mat_mul(gs, ideal.gamma_of(u, basis)),
                                 gs_rev)
            if not linalg.mat_eq(lhs, rhs):
                bad += 1
        if not linalg.mat_eq(ideal.gamma_of(s.element, new_basis), gs):
            bad += 1
    _check(res, "representation.change_of_basis",
           "transported bases conjugate the representation by the element's matrix",
           bad, 0)

    rng = _rng(seed, "representation.theorem3")
    bad = 0
    n_sets = 20
    for _ in range(n_sets):
        g = generators.random_generators(rng)
        b = ideal.idempotent_of(g)
        if ideal.even_ideal_map_rank(b) != 8:
            bad += 1
    _check(res, "representation.even_ideal_rank",
           "right multiplication by t is injective on the real even subspace",
           bad, 0, f"{n_sets} generator sets")

    rng = _rng(seed, "representation.roundtrip")
    bad = 0
    for _ in range(iterations or 50):
        g = generators.random_generators(rng)
        b = ideal.idempotent_of(g)
        psi = _random_real_mv(rng, masks=EVEN_MASKS, span=3)
        recovered = ideal.even_from_ideal(ideal.ideal_from_even(psi, b), b)
        if recovered != psi:
            bad += 1
    _check(res, "representation.even_ideal_roundtrip",
           "even states survive the trip through the ideal exactly", bad, 0)

    rng = _rng(seed, "representation.scalar_product")
    bad = 0
    for _ in range(iterations or 50):
        u = _random_mv(rng, span=2) * basis.t
        v = _random_mv(rng, span=2) * basis.t
        k = _random_mv(rng, span=2)
        lhs = ideal.scalar_product(k * u, v, basis.gens.h)
        rhs = ideal.scalar_product(u, hermitian_conjugate(k, basis.gens.h) * v,
                                   basis.gens.h)
        if lhs != rhs:
            bad += 1
        norm = ideal.scalar_product(u, u, basis.gens.h)
        if norm.imag != Fraction(0) or norm.real < 0:
            bad += 1
    _check(res, "representation.scalar_product",
           "the pairing moves factors through conjugation and is nonnegative on the ideal",
           bad, 0)

    rng = _rng(seed, "representation.spin_invariance")
    bad = 0
    for _ in range(20):
        s = spin.random_rational_spin(rng, factors=2)
        psi = _random_real_mv(rng, masks=EVEN_MASKS, span=2)
        comps = basis.project_components(psi * basis.t)
        new_basis = ideal.representation_change(s, basis)
        psi2 = psi * s.element
        gs = ideal.gamma_of(s.element, basis)
        comps2 = [sum((gs[k][l] * comps[l] for l in range(4)), QQi(0)) for k in range(4)]
        lhs = psi2 * new_basis.t
        rhs = Multivector.zero(EXACT)
        for c, tk in zip(comps2, new_basis.ts):
            rhs = rhs + tk.scale(c)
        if lhs != rhs:
            bad += 1
    _check(res, "representation.spin_transformation",
           "the component expansion is invariant under simultaneous transport",
           bad, 0)
    return res


# ---- suite: fields --------------------------------------------------------------------------


def _random_exact_field(rng: random.Random, nterms: int = 2, grades=None,
                        backend: str = EXACT) -> AnalyticField:
    entries = []
    for _ in range(nterms):
        k = Fraction(rng.randint(-2, 2))
        phase = Poly({tuple(rng.randint(0, 1) for _ in range(4)):
                      k if backend == EXACT else float(k)})
        coeffs = [Poly() for _ in range(16)]
        for _ in range(3):
            m = rng.randrange(16)
            if grades is not None and GRADE[m] not in grades:
                continue
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            c = (QQi(rng.randint(-2, 2), rng.randint(-2, 2)) if backend == EXACT
                 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            coeffs[m] = coeffs[m] + Poly({exps: c})
        entries.append((phase, coeffs))
    return AnalyticField(backend, entries)


def _suite_fields(seed: int, iterations: int | None) -> list:
    res: list[CheckResult] = []
    n = iterations or 100

    rng = _rng(seed, "fields.nilpotency")
    bad = 0
    for _ in range(n):
        f = _random_exact_field(rng)
        if not d(d(f)).is_zero() or not delta(delta(f)).is_zero():
            bad += 1
    _check(res, "fields.nilpotency", "d and its conjugate square to zero, exactly",
           bad, 0, f"{n} random fields")

    rng = _rng(seed, "fields.upsilon_forms")
    bad = 0
    for _ in range(n):
        f = _random_exact_field(rng)
        if upsilon(f) != upsilon_gradient(f):
            bad += 1
    _check(res, "fields.upsilon_forms",
           "the difference form and the gradient form of the first-order operator agree",
           bad, 0)

    rng = _rng(seed, "fields.laplace_routes")
    bad = 0
    for _ in range(max(10, n // 4)):
        f = _random_exact_field(rng)
        l1 = laplace(f, "direct")
        if (l1 != laplace(f, "upsilon") or l1 != laplace(f, "d_minus_delta")
                or l1 != laplace(f, "de_rham")):
            bad += 1
    _check(res, "fields.laplace_routes", "all four second-order routes agree exactly",
           bad, 0)

    rng = _rng(seed, "fields.laplace_commutes")
    bad = 0
    for _ in range(max(10, n // 4)):
        f = _random_exact_field(rng)
        if laplace(d(f)) != d(laplace(f)):
            bad += 1
        if laplace(delta(f)) != delta(laplace(f)):
            bad += 1
        if laplace(f.hodge_star()) != laplace(f).hodge_star():
            bad += 1
        if laplace(upsilon(f)) != upsilon(laplace(f)):
            bad += 1
    _check(res, "fields.laplace_commutes",
           "the second-order operator commutes with the first-order ones and the star",
           bad, 0)

    leftovers = 0
    h = math.pi / 4
    lattice = Stencil.identity(h)
    dd = d(lattice).compose(d(lattice))
    if not dd.is_zero():
        leftovers += 1
    if not delta(lattice).compose(delta(lattice)).is_zero():
        leftovers += 1
    if upsilon(lattice) != upsilon_gradient(lattice):
        leftovers += 1
    nprng = _np_rng(seed, "fields.grid_identities")
    data = GridField(6, h, nprng.normal(size=(16, 6, 6, 6, 6))
                     + 1j * nprng.normal(size=(16, 6, 6, 6, 6)))
    if dd.apply(data).max_abs() != 0.0:
        leftovers += 1
    _check(res, "fields.grid_identities",
           "composed lattice operators cancel symbolically and give exact zeros",
           leftovers, 0)

    direct = laplace(lattice, "direct")
    close = all(direct.isclose(laplace(lattice, route), 1e-12)
                for route in ("upsilon", "d_minus_delta", "de_rham"))
    _check(res, "fields.grid_laplace_routes",
           "lattice second-order routes agree to rounding", 0 if close else 1, 0)

    n_grid = 16
    h1 = math.pi / 4
    wave = AnalyticField.plane_wave(Multivector.unit(FLOAT), (1.0, 0.0, 0.0, 0.0))
    ana = upsilon_gradient(wave)
    err = []
    for hh in (h1, h1 / 2):
        gf = sample(wave, n_grid, hh)
        ga = sample(ana, n_grid, hh)
        err.append((upsilon_gradient(Stencil.identity(hh)).apply(gf) - ga).max_abs())
    ratio = err[0] / err[1]
    _check(res, "fields.grid_convergence",
           "halving the spacing divides the first-order error by about four",
           abs(ratio - 4.0), 0.8, f"ratio {ratio:.3f}")
    return res


# ---- suite: equations ---------------------------------------------------------------------------


def _random_potential(rng: random.Random, backend: str = EXACT) -> AnalyticField:
    out = AnalyticField.zero(backend)
    for mu in range(4):
        f = _random_exact_field(rng, nterms=1, backend=backend).component(0).real_part()
        out = out + f.mul_const(basis_vector(mu, backend), side="right")
    return out


def _random_bispinor_field(rng: random.Random, backend: str = EXACT) -> eq.BispinorField:
    comps = []
    for _ in range(4):
        f = _random_exact_field(rng, nterms=1, backend=backend).component(0)
        comps.append(f)
    return eq.BispinorField(tuple(comps))


def _field_gap(a, b) -> float:
    """Deviation between two analytic fields: zero for structural equality,
    otherwise the worst pointwise gap."""
    if a == b:
        return 0.0
    diff = a - b
    size = eq._column_norm if isinstance(diff, eq.BispinorField) else Multivector.max_abs
    return eq.sampled_max(diff, size)


def _suite_equations(seed: int, iterations: int | None, tolerance: float,
                     backend: str = EXACT) -> list:
    res: list[CheckResult] = []
    n = iterations or 50
    exact_mode = backend == EXACT
    map_bound = 0.0 if exact_mode else tolerance
    basis = ideal.canonical_basis()
    fbasis = eq._float_basis(basis)
    state_basis = basis if exact_mode else fbasis
    gammas = tuple(ideal.gamma_of(basis_vector(mu, backend), state_basis)
                   for mu in range(4))

    worst = 0.0
    rng = _rng(seed, "equations.plane_waves")
    momenta = [(1.0, 0.0, 0.0, 0.0)]
    for _ in range(3):
        momenta.append(eq.boosted_momentum(
            1.0, rng.uniform(-1.0, 1.0),
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))))
    for p in momenta:
        for form in eq.EquationForm:
            sol = eq.plane_wave(form, p, 1.0, basis=basis)
            rep = eq.FieldConfig(form, sol.state, None, 1.0, fbasis).residual(
                tolerance=tolerance)
            worst = nan_max(worst, rep.max_norm)
    _check(res, "equations.plane_wave_residuals",
           "generated free solutions satisfy every equation form",
           worst, 1e-12, f"{len(momenta)} momenta x {len(list(eq.EquationForm))} forms")

    rng = _rng(seed, "equations.theorem2")
    worst = 0.0
    m = Fraction(3, 2) if exact_mode else 1.5
    for _ in range(n):
        psi = _random_bispinor_field(rng, backend)
        pot = _random_potential(rng, backend)
        r_col = eq.dirac_operator(psi, pot, m, gammas)
        theta = eq.translate(psi, eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.IDEAL,
                             state_basis)
        r_ideal = eq.form_operator(eq.EquationForm.IDEAL, theta, pot, m)
        worst = nan_max(worst, _field_gap(
            eq.translate(r_col, eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.IDEAL,
                         state_basis), r_ideal))
        worst = nan_max(worst, _field_gap(
            eq.translate(r_ideal, eq.EquationForm.IDEAL, eq.EquationForm.DIRAC_MATRIX,
                         state_basis), r_col))
    _check(res, "equations.residual_map_matrix_ideal",
           "matrix-form residuals map onto ideal-form residuals, both ways",
           worst, map_bound, f"{n} random states")

    rng = _rng(seed, "equations.theorem4")
    worst = 0.0
    for _ in range(n):
        psi_even = _random_exact_field(rng, grades={0, 2, 4},
                                       backend=backend).even_part().real_part()
        pot = _random_potential(rng, backend)
        r_even = eq.form_operator(eq.EquationForm.HESTENES, psi_even, pot, m,
                                  state_basis.gens.h, state_basis.gens.i2)
        theta = psi_even.mul_const(state_basis.t, side="right")
        r_ideal = eq.form_operator(eq.EquationForm.IDEAL, theta, pot, m)
        worst = nan_max(worst, _field_gap(r_even.mul_const(state_basis.t, side="right"),
                                          r_ideal))
    _check(res, "equations.residual_map_even_ideal",
           "even-form residuals multiply into ideal-form residuals",
           worst, map_bound)

    rng = _rng(seed, "equations.reductions")
    worst = 0.0
    for kind in ("t-HI", "t-H", "t-e5"):
        t_red = eq.reduction_idempotent(kind, state_basis.gens)
        for _ in range(n // 3 + 1):
            rho = _random_exact_field(rng, nterms=2, backend=backend)
            pot = _random_potential(rng, backend)
            worst = nan_max(worst, _field_gap(
                *eq.reduction_sides(kind, t_red, rho, pot, m, state_basis.gens)))
    _check(res, "equations.ilk_reductions",
           "the three idempotents map general-form residuals onto the reduced equations",
           worst, map_bound)

    rng = _rng(seed, "equations.gauge")
    worst = 0.0
    lam_cases = [real_polynomial({(0, 1, 0, 0): Fraction(3, 10)}, FLOAT),
                 real_polynomial({(2, 0, 0, 0): Fraction(1, 10),
                                  (0, 0, 1, 1): Fraction(-1, 5)}, FLOAT)]
    sol = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=basis)
    nonsol = eq.plane_wave(eq.EquationForm.TENSOR,
                           eq.boosted_momentum(1.0, 0.4, (0, 1, 1)), 1.0,
                           basis=basis).state
    for lam in lam_cases:
        for state, mass in ((sol.state, 1.0), (nonsol, 0.6)):
            before = eq.residual_tensor(state, None, mass, fbasis.gens.h, fbasis.gens.i2,
                                        tolerance=tolerance)
            st2, pot2 = eq.gauge_transform(state, None, lam, eq.EquationForm.TENSOR, fbasis)
            after = eq.residual_tensor(st2, pot2, mass, fbasis.gens.h, fbasis.gens.i2,
                                       tolerance=tolerance)
            worst = nan_max(worst, abs(after.max_norm - before.max_norm))
        psi = eq.plane_wave(eq.EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0, basis=basis)
        before = eq.residual_dirac(psi.state, None, 1.0, fbasis, tolerance=tolerance)
        st2, pot2 = eq.gauge_transform(psi.state, None, lam,
                                       eq.EquationForm.DIRAC_MATRIX, fbasis)
        after = eq.residual_dirac(st2, pot2, 1.0, fbasis, tolerance=tolerance)
        worst = nan_max(worst, abs(after.max_norm - before.max_norm))
    _check(res, "equations.gauge_invariance",
           "gauge transport preserves residual size for solutions and non-solutions",
           worst, 1e-10)

    rng = _rng(seed, "equations.spin_invariance")
    worst = 0.0
    for _ in range(10):
        s = spin.random_spin(rng, scale=0.5)
        phi_s = sol.state.mul_const(s.element, side="right")
        h_s = spin.sandwich(s, fbasis.gens.h)
        i_s = spin.sandwich(s, fbasis.gens.i2)
        rep = eq.residual_tensor(phi_s, None, 1.0, h_s, i_s, tolerance=tolerance)
        worst = nan_max(worst, rep.max_norm)
    _check(res, "equations.global_spin_invariance",
           "transported solutions solve the transported equation",
           worst, 1e-10)

    cur = eq.current(sol.state, fbasis.gens.h)
    _check(res, "equations.current_conservation_analytic",
           "the current of a free solution is divergence-free",
           cur.divergence_max(), 1e-12)
    _check(res, "equations.current_grade",
           "the current 1-form stays in grade one and matches its components",
           nan_max(cur.grade_leak, cur.match_error), 1e-12)

    s1 = eq.plane_wave(eq.EquationForm.TENSOR, (2.0, 2.0, 0, 0), 0.0, basis=basis, which=0)
    s2 = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0.0, 1.0, 0), 0.0, basis=basis, which=1)
    phi2 = s1.state + s2.state
    h1 = math.pi / 4
    d1 = eq.current_grid_divergence(phi2, fbasis.gens.h, 16, h1)
    d2 = eq.current_grid_divergence(phi2, fbasis.gens.h, 16, h1 / 2)
    ratio = d1 / d2 if d2 else 0.0
    _check(res, "equations.current_grid_convergence",
           "lattice divergence of the sampled current shrinks at second order",
           abs(ratio - 4.0), 0.8, f"ratio {ratio:.3f}")

    rng = _rng(seed, "equations.covariance")
    worst = 0.0
    for form in (eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.HESTENES,
                 eq.EquationForm.TENSOR):
        state = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=basis).state
        for _ in range(3):
            s = spin.random_spin(rng, scale=0.4)
            rep = eq.covariance_check(
                s, eq.FieldConfig(form, state, None, 1.0, fbasis))
            worst = nan_max(worst, rep.residual_after)
    _check(res, "equations.covariance",
           "coordinate changes carried by spin elements preserve solutions",
           worst, 1e-10)

    rng = _rng(seed, "equations.translate_roundtrip")
    worst = 0.0
    for _ in range(min(n, 20)):
        psi = _random_bispinor_field(rng, backend)
        for dst in (eq.EquationForm.IDEAL, eq.EquationForm.HESTENES,
                    eq.EquationForm.TENSOR):
            moved = eq.translate(psi, eq.EquationForm.DIRAC_MATRIX, dst, state_basis)
            back = eq.translate(moved, dst, eq.EquationForm.DIRAC_MATRIX, state_basis)
            worst = nan_max(worst, _field_gap(back, psi))
    _check(res, "equations.translate_roundtrips",
           "state translations invert across the form square", worst, map_bound)
    return res


_SUITES = {
    "algebra": _suite_algebra,
    "hodge": _suite_hodge,
    "spin": _suite_spin,
    "representation": _suite_representation,
    "fields": _suite_fields,
    "equations": _suite_equations,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0, backend: str = EXACT,
              iterations: int | None = None,
              tolerance: float = DEFAULT_TOLERANCE) -> RunReport:
    """Run one named battery (or all of them) deterministically under a seed.

    Only the equations suite reads `backend` and `tolerance`; the report
    records both for every suite."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    report = RunReport(suite=name, seed=seed, backend=backend,
                       iterations=iterations, tolerance=tolerance)
    names = list(_SUITES) if name == "all" else [name]
    for suite_name in names:
        runner = _SUITES[suite_name]
        if suite_name == "equations":
            report.checks.extend(runner(seed, iterations, tolerance, backend))
        else:
            report.checks.extend(runner(seed, iterations))
    return report
