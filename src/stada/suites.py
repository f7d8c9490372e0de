"""Seeded verification batteries behind the `verify` command.

Each suite is a list of named checks, and each check is a generator over
its cases.  It yields one outcome per case: a bool on a count check, where
False is a violation, or a measured float on a bounded check.  One runner,
`_run_check`, turns the outcomes into the verdict: a count check measures
its violations against 0, a bounded check the `nan_max` of its floats
against its bound, and it passes when measured <= bound, so a NaN case
never passes.  The runner also holds each check's id, law, detail, rng key
and default case count.  All randomness flows from one seed so that reruns
are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import math
import platform
import random
import sys
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction

import numpy as np

from . import equations as eq
from . import __version__, exterior, generators, ideal, linalg, spin
from .errors import InvalidGeneratorError
from .expr import eval_expr
from .fields import (
    AnalyticField,
    d,
    delta,
    laplace,
    random_field,
    real_polynomial,
    upsilon,
    upsilon_gradient,
)
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
    random_multivector,
)
from .names import REDUCTION_KINDS, SUITE_NAMES
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
    return {"python": sys.version.split()[0], "platform": platform.platform(),
            "package_version": __version__}


def _rng(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def _np_rng(seed: int, check_id: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{check_id}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _run_check(report: RunReport, check_id: str, law: str, *, key: str | None = None,
               n: int | None = None, bound: float | None = None, detail: str = ""):
    """Decorator that runs a check at once and appends its verdict to `report`.

    The decorated generator is called with the rng of `key` under the
    report's seed (None without a key) and with its case count, the report's
    `iterations` or else the default `n`.  Without a `bound` it is a count
    check: it yields a bool per case, and the check measures the cases that
    are not ok against 0.  With one it yields floats, a case is ok only when
    it is <= bound, and the check measures their `nan_max`.  `detail` is
    formatted with `cases` and `passed`, the numbers of all and of ok cases,
    and with `value`, what the generator returns."""
    def run(body):
        cases = body(_rng(report.seed, key) if key else None, report.iterations or n)
        outcomes = []
        while True:
            try:
                outcomes.append(next(cases))
            except StopIteration as stop:
                value = stop.value
                break
        if bound is None:
            ok = [bool(x) for x in outcomes]
            measured, limit = float(ok.count(False)), 0.0
        else:
            ok = [x <= bound for x in outcomes]
            measured, limit = float(nan_max(0.0, *outcomes)), float(bound)
        report.checks.append(CheckResult(
            id=check_id, law=law, status="pass" if measured <= limit else "fail",
            measured=measured, bound=limit,
            detail=detail.format(cases=len(ok), passed=sum(ok), value=value)))
    return run


# ---- suite: algebra --------------------------------------------------------------


def _suite_algebra(report: RunReport) -> None:
    @_run_check(report, "algebra.blade_product_oracle",
                "table product equals adjacent-transposition oracle on all 256 blade pairs",
                detail="{passed}/{cases} matched")
    def cases(rng, n):
        for a in range(16):
            for b in range(16):
                sign, mask = oracle_blade_product(a, b)
                got = Multivector.basis(a) * Multivector.basis(b)
                yield got == Multivector.basis(mask).scale(sign)

    @_run_check(report, "algebra.associativity", "(UV)W = U(VW) on random exact triples",
                key="algebra.associativity", n=1000, detail="{cases} triples")
    def cases(rng, n):
        for _ in range(n):
            u, v, w = (random_multivector(rng, span=2) for _ in range(3))
            yield (u * v) * w == u * (v * w)

    @_run_check(report, "algebra.anticommutator",
                "generator anticommutators reproduce twice the signature")
    def cases(rng, n):
        for mu in range(4):
            for nu in range(4):
                lhs = basis_vector(mu) * basis_vector(nu) + basis_vector(nu) * basis_vector(mu)
                yield lhs == Multivector.scalar(2 * ETA[mu] if mu == nu else 0)

    @_run_check(report, "algebra.exterior_graded_commutativity",
                "wedge of homogeneous parts commutes up to (-1)^(rs)",
                key="algebra.exterior_graded", n=200)
    def cases(rng, n):
        for _ in range(n):
            r = rng.randrange(5)
            s = rng.randrange(5)
            u = random_multivector(rng, masks=MASKS_OF_GRADE[r], span=2)
            v = random_multivector(rng, masks=MASKS_OF_GRADE[s], span=2)
            rhs = exterior_product(v, u)
            if (r * s) % 2:
                rhs = -rhs
            yield exterior_product(u, v) == rhs

    @_run_check(report, "algebra.pseudoscalar_parity",
                "pseudoscalar commutes with even and anticommutes with odd blades")
    def cases(rng, n):
        ps = l5()
        for m in range(16):
            blade = Multivector.basis(m)
            comm = ps * blade - blade * ps if GRADE[m] % 2 == 0 else ps * blade + blade * ps
            yield comm.is_zero(0.0)

    @_run_check(report, "algebra.involution_laws",
                "conjugating reversion is involutive and antimultiplicative",
                key="algebra.involution", n=200)
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, span=2)
            v = random_multivector(rng, span=2)
            yield u.star().star() == u and (u * v).star() == v.star() * u.star()

    @_run_check(report, "algebra.trace_laws",
                "trace kills commutators and survives conjugation", key="algebra.trace", n=50)
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, span=2)
            v = random_multivector(rng, span=2)
            yield (u * v - v * u).trace() == QQi(0)
            small = random_multivector(rng, span=1, masks=EVEN_MASKS, den=4, real=True)
            w = Multivector.unit() + small
            try:
                w_inv = inverse(w)
            except ZeroDivisionError:
                continue
            yield (w_inv * u * w).trace() == u.trace()

    @_run_check(report, "algebra.float_agreement",
                "float products track exact products coefficientwise",
                key="algebra.float_agreement", n=100, bound=1e-12)
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, span=64, den=64)
            v = random_multivector(rng, span=64, den=64)
            exact = (u * v).to_float()
            approx = u.to_float() * v.to_float()
            yield (exact - approx).max_abs()

    @_run_check(report, "algebra.parse_roundtrip", "parse inverts format on the exact backend",
                key="algebra.parse_roundtrip", n=100)
    def cases(rng, n):
        for _ in range(n):
            u = Multivector.from_terms(
                [(m, QQi(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)))
                 for m in rng.sample(range(16), rng.randint(0, 8))], EXACT)
            yield eval_expr(format_multivector(u)) == u

    @_run_check(report, "algebra.hermitian_conjugation",
                "hermitian conjugation is involutive and antimultiplicative",
                key="algebra.hermitian", n=100)
    def cases(rng, n):
        h = basis_vector(0)
        for _ in range(n):
            u = random_multivector(rng, span=2)
            v = random_multivector(rng, span=2)
            lhs = hermitian_conjugate(u * v, h)
            rhs = hermitian_conjugate(v, h) * hermitian_conjugate(u, h)
            yield lhs == rhs and hermitian_conjugate(hermitian_conjugate(u, h), h) == u


# ---- suite: hodge ------------------------------------------------------------------


def _suite_hodge(report: RunReport) -> None:
    @_run_check(report, "hodge.table_equivalence",
                "grade-pair table product equals the sign-rule product on all 256 pairs",
                detail="{passed}/{cases} matched")
    def cases(rng, n):
        for a in range(16):
            for b in range(16):
                u, v = Multivector.basis(a), Multivector.basis(b)
                yield exterior.clifford_product_via_table(u, v) == u * v

    @_run_check(report, "hodge.star_square",
                "double star gives (-1)^(k+1) and lands on the complementary blade")
    def cases(rng, n):
        for m in range(16):
            blade = Multivector.basis(m)
            twice = exterior.hodge_star(exterior.hodge_star(blade))
            want = blade if (GRADE[m] + 1) % 2 == 0 else -blade
            yield twice == want
            starred = exterior.hodge_star(blade)
            target_mask = 0b1111 ^ m
            yield (set(starred.grades()) <= {GRADE[target_mask]}
                   and bool(starred.coeffs[target_mask]))

    @_run_check(report, "hodge.com_bracket",
                "the grade-2 bracket is antisymmetric and equals the commutator",
                key="hodge.com", n=200)
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, masks=MASKS_OF_GRADE[2], span=2)
            v = random_multivector(rng, masks=MASKS_OF_GRADE[2], span=2)
            c = exterior.com_bracket(u, v)
            yield c == -exterior.com_bracket(v, u)
            yield c == u * v - v * u

    @_run_check(report, "hodge.vector_anticommutation",
                "table product reproduces the metric anticommutation of covectors")
    def cases(rng, n):
        for mu in range(4):
            for nu in range(4):
                u, v = basis_vector(mu), basis_vector(nu)
                lhs = (exterior.clifford_product_via_table(u, v)
                       + exterior.clifford_product_via_table(v, u))
                yield lhs == Multivector.scalar(2 * exterior.METRIC_G[mu] if mu == nu else 0)

    @_run_check(report, "hodge.grade_pair_coverage",
                "each of the 25 grade pairs is handled by a formula", detail="{value} pairs")
    def cases(rng, n):
        audit = exterior.missing_case_audit()
        yield audit.all_covered
        return len(audit.handlers)


# ---- suite: spin ----------------------------------------------------------------------


def _suite_spin(report: RunReport) -> None:
    # one draw of spin elements and their matrices feeds the four lorentz checks
    lorentz = []

    @_run_check(report, "spin.lorentz_metric", "induced matrices preserve the metric",
                key="spin.lorentz", n=100, bound=1e-10)
    def cases(rng, n):
        for _ in range(n):
            s = spin.random_spin(rng)
            p = spin.lorentz_of(s)
            lorentz.append((s, p))
            yield p.metric_residual()

    @_run_check(report, "spin.lorentz_det", "induced matrices have unit determinant",
                bound=1e-10)
    def cases(rng, n):
        for _, p in lorentz:
            yield abs(float(p.det()) - 1.0)

    @_run_check(report, "spin.lorentz_orthochronous", "time orientation is preserved",
                detail="min p00 = {value}")
    def cases(rng, n):
        p00 = [float(p.rows[0][0]) for _, p in lorentz]
        yield from (x > 0 for x in p00)
        # min(*p00) drops a NaN; the negated nan_max keeps it
        return -nan_max(*(-x for x in p00))

    @_run_check(report, "spin.double_cover", "opposite spin elements induce the same matrix")
    def cases(rng, n):
        for s, p in lorentz:
            yield spin.lorentz_of(-s).rows == p.rows

    @_run_check(report, "spin.group_closure", "products of spin elements stay in the group",
                key="spin.closure", n=100)
    def cases(rng, n):
        for _ in range(min(n, 50)):
            s = spin.random_spin(rng) * spin.random_spin(rng)
            prod = s.reverse * s.element
            yield (prod - Multivector.unit(FLOAT)).max_abs() <= 1e-10

    @_run_check(report, "spin.homomorphism",
                "matrix of a product is the product of matrices, in the same order",
                key="spin.homomorphism", n=100, bound=1e-9)
    def cases(rng, n):
        for _ in range(min(n, 30)):
            s1, s2 = spin.random_spin(rng), spin.random_spin(rng)
            lhs = spin.lorentz_of(s1 * s2).as_floats()
            rhs = spin.lorentz_of(s1).matmul(spin.lorentz_of(s2)).as_floats()
            yield from (abs(a - b) for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))

    @_run_check(report, "spin.inverse_action", "forward and inverse actions invert each other",
                key="spin.inverse", n=100, bound=1e-9)
    def cases(rng, n):
        for _ in range(min(n, 30)):
            s = spin.random_spin(rng)
            pq = spin.lorentz_of(s).matmul(spin.lorentz_of(s, inverse=True)).as_floats()
            yield from (abs(pq[i][j] - (1.0 if i == j else 0.0))
                        for i in range(4) for j in range(4))

    @_run_check(report, "spin.grade_preservation", "the sandwich action preserves every grade",
                key="spin.grades", n=100, bound=1e-10)
    def cases(rng, n):
        for _ in range(min(n, 20)):
            s = spin.random_spin(rng)
            for k in range(5):
                for m in MASKS_OF_GRADE[k]:
                    moved = spin.sandwich(s, Multivector.basis(m, FLOAT))
                    yield (moved - moved.grade_part(k)).max_abs()

    @_run_check(report, "spin.parity_action",
                "odd conjugation preserves middle grades and the scalar/pseudoscalar pair",
                key="spin.parity", n=100, bound=1e-10)
    def cases(rng, n):
        for _ in range(min(n, 20)):
            # real coefficients: the parity statement lives in the real algebra
            odd = Multivector.from_terms(
                [(m, complex(rng.uniform(-1, 1))) for m in range(16) if GRADE[m] % 2], FLOAT)
            for k in (1, 2, 3):
                for m in MASKS_OF_GRADE[k]:
                    moved = odd.star() * Multivector.basis(m, FLOAT) * odd
                    yield (moved - moved.grade_part(k)).max_abs()
            for m in (0, 0b1111):
                moved = odd.star() * Multivector.basis(m, FLOAT) * odd
                keep = moved.grade_part(0) + moved.grade_part(4)
                yield (moved - keep).max_abs()

    @_run_check(report, "spin.exponential_closed_forms",
                "bivector exponentials match their rotation and boost closed forms",
                key="spin.exp_closed_forms", n=100, bound=1e-12)
    def cases(rng, n):
        for _ in range(min(n, 20)):
            theta = rng.uniform(-1.5, 1.5)
            s_rot = spin.spin_from_bivector(
                Multivector.basis(0b0110, FLOAT).scale(complex(theta)))
            want = (Multivector.unit(FLOAT).scale(complex(math.cos(theta)))
                    + Multivector.basis(0b0110, FLOAT).scale(complex(math.sin(theta))))
            yield (s_rot.element - want).max_abs()
            alpha = rng.uniform(-1.5, 1.5)
            s_boost = spin.spin_from_bivector(
                Multivector.basis(0b0011, FLOAT).scale(complex(alpha)))
            want = (Multivector.unit(FLOAT).scale(complex(math.cosh(alpha)))
                    + Multivector.basis(0b0011, FLOAT).scale(complex(math.sinh(alpha))))
            yield (s_boost.element - want).max_abs()

    @_run_check(report, "spin.recover_canonical",
                "canonical generators recover the identity exactly")
    def cases(rng, n):
        g0 = generators.canonical_generators()
        yield spin.recover_spin(g0.h, g0.i2, g0.k2).element == Multivector.unit()

    @_run_check(report, "spin.recover_roundtrip",
                "transported generators recover the transporting element up to sign",
                key="spin.recover_roundtrip", n=100, bound=1e-8)
    def cases(rng, n):
        g0 = generators.canonical_generators(FLOAT)
        for _ in range(n):
            s = spin.random_spin(rng, scale=0.8)
            gt = generators.transported_generators(s, g0)
            r = spin.recover_spin(gt.h, gt.i2, gt.k2)
            d1 = (r.element - s.reverse).max_abs()
            d2 = (r.element + s.reverse).max_abs()
            yield min(d1, d2)
            yield (spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)).max_abs()

    @_run_check(report, "spin.recover_pair",
                "a two-condition recovery still satisfies both sandwich equations",
                key="spin.recover_pair", n=100, bound=1e-8)
    def cases(rng, n):
        g0 = generators.canonical_generators(FLOAT)
        for _ in range(min(n, 25)):
            s = spin.random_spin(rng, scale=0.8)
            gt = generators.transported_generators(s, g0)
            r = spin.recover_spin_pair(gt.h, gt.i2)
            yield (spin.sandwich(r, gt.h) - basis_vector(0, FLOAT)).max_abs()
            yield (spin.sandwich(r, gt.i2) + Multivector.basis(0b0110, FLOAT)).max_abs()


# ---- suite: representation ---------------------------------------------------------------


_GAMMA_EXPECTED = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 1j), (0, 0, -1j, 0), (0, -1j, 0, 0), (1j, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
)


def _suite_representation(report: RunReport) -> None:
    @_run_check(report, "representation.canonical_valid",
                "the canonical generator triple satisfies its relations")
    def cases(rng, n):
        try:
            generators.canonical_generators()
        except InvalidGeneratorError:
            yield False
        else:
            yield True

    @_run_check(report, "representation.invalid_rejected",
                "a spacelike H is rejected with the violated relation named")
    def cases(rng, n):
        try:
            generators.make_secondary(basis_vector(1),
                                      -Multivector.basis(0b0110),
                                      -Multivector.basis(0b1010))
        except InvalidGeneratorError as e:
            yield "H*H != unit" in str(e)
        else:
            yield False

    @_run_check(report, "representation.basis16",
                "generator products span the algebra with traceless non-unit elements",
                key="representation.basis16")
    def cases(rng, n):
        for _ in range(10):
            g = generators.random_generators(rng)
            try:
                generators.basis16_of(g)
            except InvalidGeneratorError:
                yield False
            else:
                yield True

    @_run_check(report, "representation.idempotent_invariants",
                "idempotency, ideal multiplication, and orthonormality hold at construction",
                key="representation.idempotent")
    def cases(rng, n):
        for _ in range(10):
            g = generators.random_generators(rng)
            try:
                ideal.idempotent_of(g)
            except Exception:
                yield False
            else:
                yield True

    @_run_check(report, "representation.absorption",
                "H and I are absorbed by the idempotent from either side",
                key="representation.absorption")
    def cases(rng, n):
        for _ in range(10):
            g = generators.random_generators(rng)
            b = ideal.idempotent_of(g)
            yield g.h * b.t == b.t and g.i2 * b.t == b.t.scale(QQi(0, 1))
            yield b.t * g.h == b.t and b.t * g.i2 == b.t.scale(QQi(0, 1))

    basis = ideal.canonical_basis()

    @_run_check(report, "representation.gamma_matrices",
                "canonical generators reproduce the standard matrix quadruple exactly")
    def cases(rng, n):
        for mu in range(4):
            got = ideal.gamma_of(basis_vector(mu), basis)
            for r in range(4):
                for c in range(4):
                    yield complex(got[r][c]) == complex(_GAMMA_EXPECTED[mu][r][c])

    @_run_check(report, "representation.gamma_homomorphism",
                "the matrix map turns products into matrix products",
                key="representation.homomorphism", n=1000, detail="{cases} pairs")
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, span=1)
            v = random_multivector(rng, span=1)
            gu = ideal.gamma_of(u, basis)
            gv = ideal.gamma_of(v, basis)
            guv = ideal.gamma_of(u * v, basis)
            yield linalg.mat_eq(guv, linalg.mat_mul(gu, gv))

    @_run_check(report, "representation.change_of_basis",
                "transported bases conjugate the representation by the element's matrix",
                key="representation.change")
    def cases(rng, n):
        for _ in range(8):
            s = spin.random_rational_spin(rng, factors=2)
            new_basis = ideal.representation_change(s, basis)
            gs = ideal.gamma_of(s.element, basis)
            gs_rev = ideal.gamma_of(s.reverse, basis)
            for _ in range(4):
                u = random_multivector(rng, span=1)
                lhs = ideal.gamma_of(u, new_basis)
                rhs = linalg.mat_mul(linalg.mat_mul(gs, ideal.gamma_of(u, basis)),
                                     gs_rev)
                yield linalg.mat_eq(lhs, rhs)
            yield linalg.mat_eq(ideal.gamma_of(s.element, new_basis), gs)

    @_run_check(report, "representation.even_ideal_rank",
                "right multiplication by t is injective on the real even subspace",
                key="representation.theorem3", detail="{cases} generator sets")
    def cases(rng, n):
        for _ in range(20):
            g = generators.random_generators(rng)
            yield ideal.even_ideal_map_rank(ideal.idempotent_of(g)) == 8

    @_run_check(report, "representation.even_ideal_roundtrip",
                "even states survive the trip through the ideal exactly",
                key="representation.roundtrip", n=50)
    def cases(rng, n):
        for _ in range(n):
            g = generators.random_generators(rng)
            b = ideal.idempotent_of(g)
            psi = random_multivector(rng, span=3, masks=EVEN_MASKS, real=True)
            yield ideal.even_from_ideal(ideal.ideal_from_even(psi, b), b) == psi

    @_run_check(report, "representation.scalar_product",
                "the pairing moves factors through conjugation and is nonnegative on the ideal",
                key="representation.scalar_product", n=50)
    def cases(rng, n):
        for _ in range(n):
            u = random_multivector(rng, span=2) * basis.t
            v = random_multivector(rng, span=2) * basis.t
            k = random_multivector(rng, span=2)
            lhs = ideal.scalar_product(k * u, v, basis.gens.h)
            rhs = ideal.scalar_product(u, hermitian_conjugate(k, basis.gens.h) * v,
                                       basis.gens.h)
            yield lhs == rhs
            norm = ideal.scalar_product(u, u, basis.gens.h)
            yield norm.imag == Fraction(0) and norm.real >= 0

    @_run_check(report, "representation.spin_transformation",
                "the component expansion is invariant under simultaneous transport",
                key="representation.spin_invariance")
    def cases(rng, n):
        for _ in range(20):
            s = spin.random_rational_spin(rng, factors=2)
            psi = random_multivector(rng, span=2, masks=EVEN_MASKS, real=True)
            comps = basis.project_components(psi * basis.t)
            new_basis = ideal.representation_change(s, basis)
            psi2 = psi * s.element
            gs = ideal.gamma_of(s.element, basis)
            comps2 = [sum((gs[k][l] * comps[l] for l in range(4)), QQi(0)) for k in range(4)]
            lhs = psi2 * new_basis.t
            rhs = Multivector.zero(EXACT)
            for c, tk in zip(comps2, new_basis.ts):
                rhs = rhs + tk.scale(c)
            yield lhs == rhs


# ---- suite: fields --------------------------------------------------------------------------


def _suite_fields(report: RunReport) -> None:
    @_run_check(report, "fields.nilpotency", "d and its conjugate square to zero, exactly",
                key="fields.nilpotency", n=100, detail="{cases} random fields")
    def cases(rng, n):
        for _ in range(n):
            f = random_field(rng)
            yield d(d(f)).is_zero() and delta(delta(f)).is_zero()

    @_run_check(report, "fields.upsilon_forms",
                "the difference form and the gradient form of the first-order operator agree",
                key="fields.upsilon_forms", n=100)
    def cases(rng, n):
        for _ in range(n):
            f = random_field(rng)
            yield upsilon(f) == upsilon_gradient(f)

    @_run_check(report, "fields.laplace_routes", "all four second-order routes agree exactly",
                key="fields.laplace_routes", n=100)
    def cases(rng, n):
        for _ in range(max(10, n // 4)):
            f = random_field(rng)
            l1 = laplace(f, "direct")
            yield (l1 == laplace(f, "upsilon") and l1 == laplace(f, "d_minus_delta")
                   and l1 == laplace(f, "de_rham"))

    @_run_check(report, "fields.laplace_commutes",
                "the second-order operator commutes with the first-order ones and the star",
                key="fields.laplace_commutes", n=100)
    def cases(rng, n):
        for _ in range(max(10, n // 4)):
            f = random_field(rng)
            yield laplace(d(f)) == d(laplace(f))
            yield laplace(delta(f)) == delta(laplace(f))
            yield laplace(f.hodge_star()) == laplace(f).hodge_star()
            yield laplace(upsilon(f)) == upsilon(laplace(f))

    h = math.pi / 4
    lattice = Stencil.identity(h)

    @_run_check(report, "fields.grid_identities",
                "composed lattice operators cancel symbolically and give exact zeros")
    def cases(rng, n):
        dd = d(lattice).compose(d(lattice))
        yield dd.is_zero()
        yield delta(lattice).compose(delta(lattice)).is_zero()
        yield upsilon(lattice) == upsilon_gradient(lattice)
        nprng = _np_rng(report.seed, "fields.grid_identities")
        data = GridField(6, h, nprng.normal(size=(16, 6, 6, 6, 6))
                         + 1j * nprng.normal(size=(16, 6, 6, 6, 6)))
        yield dd.apply(data).max_abs() == 0.0

    @_run_check(report, "fields.grid_laplace_routes",
                "lattice second-order routes agree to rounding")
    def cases(rng, n):
        direct = laplace(lattice, "direct")
        for route in ("upsilon", "d_minus_delta", "de_rham"):
            yield direct.isclose(laplace(lattice, route), 1e-12)

    @_run_check(report, "fields.grid_convergence",
                "halving the spacing divides the first-order error by about four",
                bound=0.8, detail="ratio {value:.3f}")
    def cases(rng, n):
        wave = AnalyticField.plane_wave(Multivector.unit(FLOAT), (1.0, 0.0, 0.0, 0.0))
        ana = upsilon_gradient(wave)
        err = []
        for hh in (h, h / 2):
            gf = sample(wave, 16, hh)
            ga = sample(ana, 16, hh)
            err.append((upsilon_gradient(Stencil.identity(hh)).apply(gf) - ga).max_abs())
        ratio = err[0] / err[1]
        yield abs(ratio - 4.0)
        return ratio


# ---- suite: equations ---------------------------------------------------------------------------


def _random_potential(rng: random.Random, backend: str = EXACT) -> AnalyticField:
    out = AnalyticField.zero(backend)
    for mu in range(4):
        f = random_field(rng, nterms=1, backend=backend).component(0).real_part()
        out = out + f.mul_const(basis_vector(mu, backend), side="right")
    return out


def _random_bispinor_field(rng: random.Random, backend: str = EXACT) -> eq.BispinorField:
    comps = []
    for _ in range(4):
        f = random_field(rng, nterms=1, backend=backend).component(0)
        comps.append(f)
    return eq.BispinorField(tuple(comps))


def _suite_equations(report: RunReport) -> None:
    backend, tolerance = report.backend, report.tolerance
    exact_mode = backend == EXACT
    map_bound = 0.0 if exact_mode else tolerance
    m = Fraction(3, 2) if exact_mode else 1.5
    basis = ideal.canonical_basis()
    fbasis = basis.to_float()
    state_basis = basis if exact_mode else fbasis

    @_run_check(report, "equations.plane_wave_residuals",
                "generated free solutions satisfy every equation form",
                key="equations.plane_waves", bound=1e-12,
                detail="{value[0]} momenta x {value[1]} forms")
    def cases(rng, n):
        momenta = [(1.0, 0.0, 0.0, 0.0)]
        for _ in range(3):
            momenta.append(eq.boosted_momentum(
                1.0, rng.uniform(-1.0, 1.0),
                (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))))
        for p in momenta:
            for form in eq.EquationForm:
                sol = eq.plane_wave(form, p, 1.0, basis=fbasis)
                yield eq.FieldConfig(form, sol.state, None, 1.0, fbasis).residual(
                    tolerance=tolerance).max_norm
        return len(momenta), len(eq.EquationForm)

    @_run_check(report, "equations.residual_map_matrix_ideal",
                "matrix-form residuals map onto ideal-form residuals, both ways",
                key="equations.theorem2", n=50, bound=map_bound,
                detail="{cases} random states")
    def cases(rng, n):
        for _ in range(n):
            psi = _random_bispinor_field(rng, backend)
            pot = _random_potential(rng, backend)
            r_col = eq.dirac_operator(psi, pot, m, state_basis.vector_gammas())
            theta = eq.translate(psi, eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.IDEAL,
                                 state_basis)
            r_ideal = eq.form_operator(eq.EquationForm.IDEAL, theta, pot, m)
            forward = eq.field_gap(
                eq.translate(r_col, eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.IDEAL,
                             state_basis), r_ideal)
            yield nan_max(forward, eq.field_gap(
                eq.translate(r_ideal, eq.EquationForm.IDEAL, eq.EquationForm.DIRAC_MATRIX,
                             state_basis), r_col))

    @_run_check(report, "equations.residual_map_even_ideal",
                "even-form residuals multiply into ideal-form residuals",
                key="equations.theorem4", n=50, bound=map_bound)
    def cases(rng, n):
        for _ in range(n):
            psi_even = random_field(rng, grades={0, 2, 4},
                                    backend=backend).even_part().real_part()
            pot = _random_potential(rng, backend)
            r_even = eq.form_operator(eq.EquationForm.HESTENES, psi_even, pot, m,
                                      state_basis.gens.h, state_basis.gens.i2)
            theta = psi_even.mul_const(state_basis.t, side="right")
            r_ideal = eq.form_operator(eq.EquationForm.IDEAL, theta, pot, m)
            yield eq.field_gap(r_even.mul_const(state_basis.t, side="right"), r_ideal)

    @_run_check(report, "equations.ilk_reductions",
                "the three idempotents map general-form residuals onto the reduced equations",
                key="equations.reductions", n=50, bound=map_bound)
    def cases(rng, n):
        for kind in REDUCTION_KINDS:
            for _ in range(n // len(REDUCTION_KINDS) + 1):
                rho = random_field(rng, nterms=2, backend=backend)
                pot = _random_potential(rng, backend)
                yield eq.field_gap(*eq.reduction_sides(kind, rho, pot, m, state_basis.gens))

    sol = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=fbasis)

    @_run_check(report, "equations.gauge_invariance",
                "gauge transport preserves residual size for solutions and non-solutions",
                bound=1e-10)
    def cases(rng, n):
        lam_cases = [real_polynomial({(0, 1, 0, 0): Fraction(3, 10)}, FLOAT),
                     real_polynomial({(2, 0, 0, 0): Fraction(1, 10),
                                      (0, 0, 1, 1): Fraction(-1, 5)}, FLOAT)]
        nonsol = eq.plane_wave(eq.EquationForm.TENSOR,
                               eq.boosted_momentum(1.0, 0.4, (0, 1, 1)), 1.0,
                               basis=fbasis).state
        psi = eq.plane_wave(eq.EquationForm.DIRAC_MATRIX, (1.0, 0, 0, 0), 1.0, basis=fbasis).state
        configs = [eq.FieldConfig(eq.EquationForm.TENSOR, sol.state, None, 1.0, fbasis),
                   eq.FieldConfig(eq.EquationForm.TENSOR, nonsol, None, 0.6, fbasis),
                   eq.FieldConfig(eq.EquationForm.DIRAC_MATRIX, psi, None, 1.0, fbasis)]
        for lam in lam_cases:
            for config in configs:
                before = config.residual(tolerance=tolerance)
                st2, pot2 = eq.gauge_transform(config.state, config.potential, lam,
                                               config.form, fbasis)
                after = replace(config, state=st2, potential=pot2).residual(tolerance=tolerance)
                yield abs(after.max_norm - before.max_norm)

    @_run_check(report, "equations.global_spin_invariance",
                "transported solutions solve the transported equation",
                key="equations.spin_invariance", bound=1e-10)
    def cases(rng, n):
        for _ in range(10):
            s = spin.random_spin(rng, scale=0.5)
            phi_s = sol.state.mul_const(s.element, side="right")
            h_s = spin.sandwich(s, fbasis.gens.h)
            i_s = spin.sandwich(s, fbasis.gens.i2)
            yield eq.residual_tensor(phi_s, None, 1.0, h_s, i_s, tolerance=tolerance).max_norm

    cur = eq.current(sol.state, fbasis.gens.h)

    @_run_check(report, "equations.current_conservation_analytic",
                "the current of a free solution is divergence-free", bound=1e-12)
    def cases(rng, n):
        yield cur.divergence_max()

    @_run_check(report, "equations.current_grade",
                "the current 1-form stays in grade one and matches its components",
                bound=1e-12)
    def cases(rng, n):
        yield cur.grade_leak
        yield cur.match_error

    @_run_check(report, "equations.current_grid_convergence",
                "lattice divergence of the sampled current shrinks at second order",
                bound=0.8, detail="ratio {value:.3f}")
    def cases(rng, n):
        s1 = eq.plane_wave(eq.EquationForm.TENSOR, (2.0, 2.0, 0, 0), 0.0, basis=fbasis, which=0)
        s2 = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0.0, 1.0, 0), 0.0, basis=fbasis,
                           which=1)
        phi2 = s1.state + s2.state
        h1 = math.pi / 4
        d1 = eq.current_grid_divergence(phi2, fbasis.gens.h, 16, h1)
        d2 = eq.current_grid_divergence(phi2, fbasis.gens.h, 16, h1 / 2)
        ratio = d1 / d2 if d2 else 0.0
        yield abs(ratio - 4.0)
        return ratio

    @_run_check(report, "equations.covariance",
                "coordinate changes carried by spin elements preserve solutions",
                key="equations.covariance", bound=1e-10)
    def cases(rng, n):
        for form in (eq.EquationForm.DIRAC_MATRIX, eq.EquationForm.HESTENES,
                     eq.EquationForm.TENSOR):
            state = eq.plane_wave(form, (1.0, 0, 0, 0), 1.0, basis=fbasis).state
            for _ in range(3):
                s = spin.random_spin(rng, scale=0.4)
                yield eq.covariance_check(
                    s, eq.FieldConfig(form, state, None, 1.0, fbasis)).residual_after

    @_run_check(report, "equations.translate_roundtrips",
                "state translations invert across the form square",
                key="equations.translate_roundtrip", n=50, bound=map_bound)
    def cases(rng, n):
        for _ in range(min(n, 20)):
            psi = _random_bispinor_field(rng, backend)
            for dst in (eq.EquationForm.IDEAL, eq.EquationForm.HESTENES,
                        eq.EquationForm.TENSOR):
                moved = eq.translate(psi, eq.EquationForm.DIRAC_MATRIX, dst, state_basis)
                back = eq.translate(moved, dst, eq.EquationForm.DIRAC_MATRIX, state_basis)
                yield eq.field_gap(back, psi)


_SUITES = {
    "algebra": _suite_algebra,
    "hodge": _suite_hodge,
    "spin": _suite_spin,
    "representation": _suite_representation,
    "fields": _suite_fields,
    "equations": _suite_equations,
}


def run_suite(name: str, seed: int = 0, backend: str = EXACT,
              iterations: int | None = None,
              tolerance: float = DEFAULT_TOLERANCE) -> RunReport:
    """Run one named battery (or all of them) deterministically under a seed.

    Only the equations suite reads `backend` and `tolerance`; the report
    records both for every suite.  `iterations`, the case count of the
    sampled checks, is None for each check's own default or a positive int;
    any other value is refused with ValueError, as an unknown suite is."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    # type(True) is bool, not int
    if not (iterations > 0 if type(iterations) is int else iterations is None):
        raise ValueError(f"iterations must be None or a positive int, got {iterations!r}")
    report = RunReport(suite=name, seed=seed, backend=backend,
                       iterations=iterations, tolerance=tolerance)
    names = list(_SUITES) if name == "all" else [name]
    for suite_name in names:
        _SUITES[suite_name](report)
    return report
