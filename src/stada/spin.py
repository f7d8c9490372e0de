"""Spin(1,3) elements, their sandwich action, induced Lorentz matrices,
and recovery of a spin element from transformed generators.

Spin elements are even real multivectors S with S^star S = unit.  Test
elements come from two factories: bivector exponentials (float backend,
the identity component) and products of rational rotations and boosts
built from Pythagorean triples (exact backend, so that group identities
can be asserted as equalities).  Recovery solves the linear intertwining
equations a X = X b by `linalg.null_space`, exactly on the exact backend
and by its SVD cutoff on the float backend.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, scalars
from .errors import ConvergenceError, DomainError, InvalidSpinError
from .generators import make_secondary
from .multivector import (
    CLIFFORD,
    ETA,
    EVEN_MASKS,
    MASKS_OF_GRADE,
    Multivector,
    basis_vector,
    clifford_product,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi

_BIVECTOR_MASKS = MASKS_OF_GRADE[2]
# Bivector planes that square to +unit (boosts) contain the time axis.
_BOOST_MASKS = tuple(m for m in _BIVECTOR_MASKS if m & 1)

# the exponential series stops at the first term below the cutoff
_SERIES_CUTOFF = 1e-18
_SERIES_TERMS = 256


@dataclass(frozen=True)
class SpinElement:
    """Even real multivector S with S^star S = unit; reverse is its inverse."""

    element: Multivector
    reverse: Multivector

    @classmethod
    def of(cls, mv: Multivector, tol: float = DEFAULT_TOLERANCE) -> "SpinElement":
        if any(mv.odd_part().coeffs):
            raise InvalidSpinError("spin element must be even")
        if not mv.is_real(tol):
            raise InvalidSpinError("spin element must have real coefficients")
        rev = mv.star()
        if not clifford_product(rev, mv).isclose(Multivector.unit(mv.backend), tol):
            raise InvalidSpinError("S^star S differs from the unit")
        return cls(mv, rev)

    @classmethod
    def identity(cls, backend: str = EXACT) -> "SpinElement":
        u = Multivector.unit(backend)
        return cls(u, u)

    @property
    def backend(self) -> str:
        return self.element.backend

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self.element * other.element,
                           other.reverse * self.reverse)

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self.element, -self.reverse)


def sandwich(s: SpinElement, u: Multivector) -> Multivector:
    """The action S^star U S."""
    return s.reverse * u * s.element


def sandwich_inverse(s: SpinElement, u: Multivector) -> Multivector:
    """The inverse action S U S^star."""
    return s.element * u * s.reverse


def spin_from_bivector(b: Multivector) -> SpinElement:
    """exp(b) for a real grade-2 element, by the power series on the algebra."""
    if not b.is_homogeneous(2):
        raise DomainError("exponential generator must be homogeneous grade 2")
    if not b.is_real():
        raise DomainError("exponential generator must be real")
    b = b.to_float()
    if not math.isfinite(b.max_abs()):  # a NaN or inf would run every term
        raise DomainError("exponential generator must be finite")
    # the operations of term * b, scale(1.0 / n) and + (so every bit matches),
    # on coefficient lists: no Multivector per term
    total = term = Multivector.unit(FLOAT).coeffs
    for n in range(1, _SERIES_TERMS + 1):
        s = complex(1.0 / n)
        term = [c * s for c in CLIFFORD.generic(term, b.coeffs, 0j)]
        total = [x + y for x, y in zip(total, term)]
        size = Multivector(term, FLOAT).max_abs()
        if size < _SERIES_CUTOFF:
            return SpinElement.of(Multivector(total, FLOAT))
        if size > 1e150:
            raise ConvergenceError("exponential series grew without bound")
    raise ConvergenceError(f"exponential series did not settle in {_SERIES_TERMS} terms")


def random_spin(rng: random.Random, scale: float = 1.0) -> SpinElement:
    """Seeded spin element: exponential of a random bivector."""
    b = Multivector.from_terms(
        [(m, complex(rng.uniform(-scale, scale))) for m in _BIVECTOR_MASKS], FLOAT)
    return spin_from_bivector(b)


def _pythagorean(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational (cos, sin) pair on the unit circle."""
    m = rng.randint(2, 5)
    n = rng.randint(1, m - 1)
    hyp = m * m + n * n
    return Fraction(m * m - n * n, hyp), Fraction(2 * m * n, hyp)


def random_rational_spin(rng: random.Random, factors: int = 3) -> SpinElement:
    """Seeded exact spin element: a product of rational-angle rotations and boosts.

    Rotations use rational points on the circle, boosts rational points on
    the hyperbola, so S^star S = unit holds exactly.
    """
    out = SpinElement.identity(EXACT)
    for _ in range(factors):
        mask = rng.choice(_BIVECTOR_MASKS)
        c, s = _pythagorean(rng)
        if mask in _BOOST_MASKS:
            # cosh = (m^2+n^2)/(m^2-n^2), sinh = 2mn/(m^2-n^2) squares to +1.
            c, s = 1 / c, s / c
        if rng.random() < 0.5:
            s = -s
        factor = Multivector.from_terms(
            [(0, QQi.from_rational(c)), (mask, QQi.from_rational(s))], EXACT)
        out = out * SpinElement.of(factor)
    return out


@dataclass(frozen=True)
class LorentzMatrix:
    """Rows indexed by the transformed axis: entry [nu][mu] multiplies x^mu."""

    rows: tuple

    def matmul(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(linalg.mat_mul(self.rows, other.rows))

    def det(self):
        return linalg.det(self.rows)

    def as_floats(self) -> tuple:
        return tuple(tuple(float(v) for v in row) for row in self.rows)

    def metric_residual(self) -> float:
        """max |P^T g P - g| over entries."""
        p = self.as_floats()
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                acc = sum(p[k][mu] * ETA[k] * p[k][nu] for k in range(4))
                target = ETA[mu] if mu == nu else 0.0
                worst = scalars.nan_max(worst, abs(acc - target))
        return worst


def lorentz_of(s: SpinElement, inverse: bool = False) -> LorentzMatrix:
    """Extract the 4x4 matrix acting on coordinates from the sandwich action.

    Row nu holds the grade-1 coefficients of S^star l^nu S (or of the
    inverse action S l^nu S^star when `inverse` is set).  A float row must
    be real and of grade 1 to `DEFAULT_TOLERANCE`, an exact one exactly.
    """
    act = sandwich_inverse if inverse else sandwich
    rows = []
    for nu in range(4):
        w = act(s, basis_vector(nu, s.backend))
        if not (w - w.grade_part(1)).is_zero():
            raise InvalidSpinError("sandwich of a vector left the grade-1 space")
        if not w.is_real():
            raise InvalidSpinError("sandwich produced non-real vector components")
        rows.append(tuple(w.coeffs[1 << mu].real for mu in range(4)))
    return LorentzMatrix(tuple(rows))


# ---- recovery of spin elements from transformed generators ---------------


def _intertwine_rows(a: Multivector, b: Multivector) -> list[list]:
    """Real matrix of X -> a X - X b restricted to the even subspace."""
    backend = a.backend
    cols = []
    for mask in EVEN_MASKS:
        e = Multivector.basis(mask, backend)
        image = a * e - e * b
        cols.append([image.coeffs[m].real for m in range(16)])
    return [[cols[j][i] for j in range(len(EVEN_MASKS))] for i in range(16)]


def intertwiner_basis(pairs: list[tuple[Multivector, Multivector]]) -> list[Multivector]:
    """Basis of even solutions X of the system a_i X = X b_i: the
    `linalg.null_space` of the stacked real system, exact for exact inputs."""
    backend = pairs[0][0].backend
    stacked = []
    for a, b in pairs:
        stacked.extend(_intertwine_rows(a, b))
    return [Multivector.from_terms(
        [(mask, scalars.coerce(v, backend)) for mask, v in zip(EVEN_MASKS, vec)], backend)
        for vec in linalg.null_space(stacked)]


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _normalize_to_spin(x: Multivector) -> SpinElement:
    """Scale an even real X with X^star X in the positive scalar ray to Spin."""
    prod = x.star() * x
    if x.backend == EXACT:
        rest = prod - prod.grade_part(0)
        if not rest.is_zero(0.0):
            raise InvalidSpinError("X^star X is not a scalar")
        c = prod.coeffs[0].real
        if c <= 0:
            raise InvalidSpinError("X^star X is not positive")
        root = _rational_sqrt(c)
        if root is not None:
            return SpinElement.of(x.scale(QQi.from_rational(1 / root)))
        xf = x.to_float()
        return SpinElement.of(xf.scale(1.0 / math.sqrt(float(c))))
    rest = prod - prod.grade_part(0)
    scalefree = max(prod.max_abs(), 1e-300)
    if rest.max_abs() > 1e-9 * scalefree:
        raise InvalidSpinError("X^star X is not a scalar")
    c = prod.coeffs[0].real
    if c <= 0:
        raise InvalidSpinError("X^star X is not positive")
    return SpinElement.of(x.scale(1.0 / math.sqrt(c)), tol=1e-9)


def _canonical_sign(s: SpinElement) -> SpinElement:
    coeffs = [scalars.to_complex(c).real for c in s.element.coeffs]
    lead = max(range(16), key=lambda m: abs(coeffs[m]))
    return -s if coeffs[lead] < 0 else s


def recover_spin_candidates(h: Multivector, i2: Multivector,
                            k2: Multivector) -> tuple[SpinElement, SpinElement]:
    """Both spin elements (differing by global sign) that carry the generators
    (h, i2, k2) onto the canonical ones.

    The defining sandwich equations are linear in S once rewritten as
    h S = S l0, i2 S = -S l12, k2 S = -S l13; the even solution space is
    one-dimensional, and both signs of the normalized solution satisfy all
    three equations.
    """
    make_secondary(h, i2, k2)
    backend = h.backend
    targets = [
        (h, basis_vector(0, backend)),
        (i2, -Multivector.basis(0b0110, backend)),
        (k2, -Multivector.basis(0b1010, backend)),
    ]
    kernel = intertwiner_basis(targets)
    if len(kernel) != 1:
        raise InvalidSpinError(
            f"expected a one-dimensional solution space, found {len(kernel)}")
    s = _canonical_sign(_normalize_to_spin(kernel[0]))
    return s, -s


def recover_spin(h: Multivector, i2: Multivector, k2: Multivector) -> SpinElement:
    """The canonical-sign spin element mapping (h, i2, k2) to the standard
    generator triple; its negative satisfies the same equations."""
    return recover_spin_candidates(h, i2, k2)[0]


def recover_spin_pair(h: Multivector, i2: Multivector) -> SpinElement:
    """Some spin element mapping a grade-1/grade-2 pair (h, i2) onto the
    canonical pair; with only two conditions the solution is not unique."""
    backend = h.backend
    targets = [
        (h, basis_vector(0, backend)),
        (i2, -Multivector.basis(0b0110, backend)),
    ]
    kernel = intertwiner_basis(targets)
    if not kernel:
        raise InvalidSpinError("the intertwining system has no even solutions")
    for x in kernel:
        try:
            return _canonical_sign(_normalize_to_spin(x))
        except InvalidSpinError:
            continue
    raise InvalidSpinError("no kernel element normalizes to a spin element")
