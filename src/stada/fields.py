"""Form-valued functions of spacetime in a differentiation-closed class.

A field is a finite sum of terms

    (coefficient polynomial per basis blade) * exp(i * phase(x))

where the phase is a polynomial with real coefficients.  The class is
closed under partial derivatives, products, complex conjugation, linear
coordinate substitution, and multiplication by exp(i*lambda) for any real
polynomial lambda, which is exactly what the differential operators,
gauge transformations, and covariance checks need.  On the exact backend
all of those operations are exact, so operator identities are asserted
as structural equalities; evaluation at a point always produces floats.
"""

from __future__ import annotations

import cmath
import functools
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from . import scalars
from .errors import BackendMismatchError, DomainError
from .exterior import STAR_TABLE
from .kernel import BladeProduct
from .multivector import (
    CLIFFORD,
    ETA,
    EVEN_MAP,
    GRADE,
    GRADE_MAPS,
    ODD_MAP,
    REVERSION_MAP,
    WEDGE,
    Multivector,
    basis_vector,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi, Scalar

Exps = tuple[int, int, int, int]

_ZERO_EXPS: Exps = (0, 0, 0, 0)


class Poly:
    """Polynomial in the four coordinates; coefficient type is caller-chosen."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exps, object] | None = None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({_ZERO_EXPS: value})

    @classmethod
    def coordinate(cls, mu: int, one=1) -> "Poly":
        exps = tuple(1 if i == mu else 0 for i in range(4))
        return cls({exps: one})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                out[exps] = out[exps] + c
            else:
                out[exps] = c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({exps: -c for exps, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Exps, object] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                c = ca * cb
                if exps in out:
                    out[exps] = out[exps] + c
                else:
                    out[exps] = c
        return Poly(out)

    def scale(self, value) -> "Poly":
        if not value:
            return Poly()
        return Poly({exps: c * value for exps, c in self.terms.items()})

    def diff(self, mu: int) -> "Poly":
        out = {}
        for exps, c in self.terms.items():
            e = exps[mu]
            if e == 0:
                continue
            lowered = tuple(v - 1 if i == mu else v for i, v in enumerate(exps))
            term = c * e
            if lowered in out:
                out[lowered] = out[lowered] + term
            else:
                out[lowered] = term
        return Poly(out)

    def conjugate(self) -> "Poly":
        return Poly({exps: c.conjugate() if hasattr(c, "conjugate") else c
                     for exps, c in self.terms.items()})

    def eval(self, x) -> complex:
        total = 0j
        for exps, c in self.terms.items():
            v = complex(c)
            for mu in range(4):
                e = exps[mu]
                if e:
                    v *= x[mu] ** e
            total += v
        return total

    def eval_real(self, x) -> float:
        total = 0.0
        for exps, c in self.terms.items():
            v = float(c)
            for mu in range(4):
                e = exps[mu]
                if e:
                    v *= x[mu] ** e
            total += v
        return total

    def compose_linear(self, matrix) -> "Poly":
        """Substitute x_mu = sum_nu matrix[mu][nu] y_nu."""
        lines = []
        for mu in range(4):
            line = Poly({tuple(1 if i == nu else 0 for i in range(4)): matrix[mu][nu]
                         for nu in range(4) if matrix[mu][nu]})
            lines.append(line)
        out = Poly()
        for exps, c in self.terms.items():
            term = Poly.constant(c)
            for mu in range(4):
                for _ in range(exps[mu]):
                    term = term * lines[mu]
            out = out + term
        return out

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def linear_coefficients(self) -> tuple:
        """Coefficients of the four degree-1 monomials (zeros when absent)."""
        out = []
        for mu in range(4):
            exps = tuple(1 if i == mu else 0 for i in range(4))
            out.append(self.terms.get(exps, 0))
        return tuple(out)

    def nonlinear_part(self) -> "Poly":
        return Poly({e: c for e, c in self.terms.items() if sum(e) > 1})

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _coeff_from_real(value, backend: str, times_i: bool = False) -> Scalar:
    if backend == EXACT:
        f = Fraction(value)
        return QQi.from_rational(0, f) if times_i else QQi.from_rational(f)
    v = float(value)
    return complex(0.0, v) if times_i else complex(v, 0.0)


def _real_poly_as_coeff(p: Poly, backend: str, times_i: bool = False) -> Poly:
    return Poly({exps: _coeff_from_real(c, backend, times_i) for exps, c in p.terms.items()})


# 1/2 and -i/2, built once: the float backend converts them without building a QQi
_HALF = QQi(1, 0, 2)
_MINUS_HALF_I = QQi(0, -1, 2)

# per blade, the blade map that moves its coefficient onto the unit blade
_COMPONENT_MAPS = tuple(tuple((int(m == mask), 0) for m in range(16)) for mask in range(16))


class AnalyticField:
    """Finite sum of blade-valued polynomial terms carrying polynomial phases.

    Treat instances as immutable; all operations return new fields.
    """

    __slots__ = ("backend", "terms")

    def __init__(self, backend: str,
                 terms: Iterable[tuple[Poly, Iterable[Poly]]] = ()):
        merged: dict[tuple, tuple[Poly, list[Poly]]] = {}
        for phase, coeffs in terms:
            coeffs = list(coeffs)
            if len(coeffs) != 16:
                raise ValueError("a field term needs 16 coefficient polynomials")
            key = phase.key()
            if key in merged:
                old = merged[key][1]
                merged[key] = (phase, [a + b for a, b in zip(old, coeffs)])
            else:
                merged[key] = (phase, coeffs)
        clean = {}
        for key, (phase, coeffs) in merged.items():
            if any(coeffs):
                clean[key] = (phase, tuple(coeffs))
        self.backend = backend
        self.terms = clean

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, backend: str = FLOAT) -> "AnalyticField":
        return cls(backend)

    @classmethod
    def constant(cls, mv: Multivector) -> "AnalyticField":
        coeffs = [Poly.constant(c) if c else Poly() for c in mv.coeffs]
        return cls(mv.backend, [(Poly(), coeffs)])

    @classmethod
    def monomial(cls, mv: Multivector, exps: Exps) -> "AnalyticField":
        coeffs = [Poly({tuple(exps): c}) if c else Poly() for c in mv.coeffs]
        return cls(mv.backend, [(Poly(), coeffs)])

    @classmethod
    def plane_wave(cls, mv: Multivector, wave) -> "AnalyticField":
        """mv * exp(i * sum_mu wave[mu] x^mu)."""
        backend = mv.backend
        entries = {}
        for mu in range(4):
            w = wave[mu]
            if w:
                entries[tuple(1 if i == mu else 0 for i in range(4))] = (
                    Fraction(w) if backend == EXACT else float(w))
        phase = Poly(entries)
        coeffs = [Poly.constant(c) if c else Poly() for c in mv.coeffs]
        return cls(backend, [(phase, coeffs)])

    @classmethod
    def scalar_poly(cls, poly: Poly, backend: str) -> "AnalyticField":
        coeffs = [poly if m == 0 else Poly() for m in range(16)]
        return cls(backend, [(Poly(), coeffs)])

    # ---- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnalyticField):
            return NotImplemented
        if self.backend != other.backend:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k][1] == other.terms[k][1] for k in self.terms)

    def __hash__(self):
        raise TypeError("AnalyticField is not hashable")

    def grades(self) -> set[int]:
        out = set()
        for _, coeffs in self.terms.values():
            out.update(GRADE[m] for m in range(16) if coeffs[m])
        return out

    def _map_blades(self, table, conjugate: bool = False) -> "AnalyticField":
        """Apply a blade map to every term; with `conjugate`, also conjugate
        the kept coefficients and negate the phases."""
        out = []
        for phase, coeffs in self.terms.values():
            new = [Poly()] * 16
            for q, (sign, target) in zip(coeffs, table):
                if sign and q:
                    q = q.conjugate() if conjugate else q
                    new[target] = q if sign > 0 else -q
            out.append((-phase if conjugate else phase, new))
        return AnalyticField(self.backend, out)

    def component(self, mask: int) -> "AnalyticField":
        """The coefficient of one basis blade, as a scalar-valued field."""
        return self._map_blades(_COMPONENT_MAPS[mask])

    def grade_part(self, k: int) -> "AnalyticField":
        if not 0 <= k <= 4:
            raise DomainError(f"grade {k} outside 0..4")
        return self._map_blades(GRADE_MAPS[k])

    def even_part(self) -> "AnalyticField":
        return self._map_blades(EVEN_MAP)

    def odd_part(self) -> "AnalyticField":
        return self._map_blades(ODD_MAP)

    def apply_slot_matrix(self, rows) -> "AnalyticField":
        """Apply a constant 16x16 scalar matrix to the blade axis."""
        out = []
        for phase, coeffs in self.terms.values():
            new = [Poly() for _ in range(16)]
            for j, q in enumerate(coeffs):
                if not q:
                    continue
                for i in range(16):
                    entry = rows[i][j]
                    if entry:
                        new[i] = new[i] + q.scale(entry)
            out.append((phase, new))
        return AnalyticField(self.backend, out)

    def phase_polys(self) -> list[Poly]:
        return [phase for phase, _ in self.terms.values()]

    # ---- linear operations --------------------------------------------------

    def _check(self, other: "AnalyticField") -> None:
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"mixed scalar backends: {self.backend} vs {other.backend}")

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        self._check(other)
        entries = [(p, list(c)) for p, c in self.terms.values()]
        entries += [(p, list(c)) for p, c in other.terms.values()]
        return AnalyticField(self.backend, entries)

    def __sub__(self, other: "AnalyticField") -> "AnalyticField":
        return self + (-other)

    def __neg__(self) -> "AnalyticField":
        return AnalyticField(self.backend,
                             [(p, [-q for q in c]) for p, c in self.terms.values()])

    def scale(self, value) -> "AnalyticField":
        s = scalars.coerce(value, self.backend)
        return AnalyticField(self.backend,
                             [(p, [q.scale(s) for q in c]) for p, c in self.terms.values()])

    # ---- involutions ---------------------------------------------------------

    def conjugate(self) -> "AnalyticField":
        """Complex conjugation: conjugate coefficients, negate phases."""
        return AnalyticField(self.backend,
                             [(-p, [q.conjugate() for q in c])
                              for p, c in self.terms.values()])

    def star_involution(self) -> "AnalyticField":
        """Blade reversion sign with conjugation, applied pointwise."""
        return self._map_blades(REVERSION_MAP, conjugate=True)

    def hodge_star(self) -> "AnalyticField":
        return self._map_blades(STAR_TABLE)

    def real_part(self) -> "AnalyticField":
        return (self + self.conjugate()).scale(Fraction(1, 2))

    def imag_part(self) -> "AnalyticField":
        return (self - self.conjugate()).scale(_MINUS_HALF_I)

    def is_real(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        diff = self - self.conjugate()
        if self.backend == EXACT:
            return diff.is_zero()
        return diff.max_abs() <= tol

    # ---- calculus -------------------------------------------------------------

    def partial(self, mu: int) -> "AnalyticField":
        """d/dx^mu, including the phase chain rule."""
        out = []
        for phase, coeffs in self.terms.values():
            chain = _real_poly_as_coeff(phase.diff(mu), self.backend, times_i=True)
            # a constant phase derivative, as for a plane wave, acts as a scale
            const = chain.terms.get(_ZERO_EXPS) if len(chain.terms) == 1 else None
            new = []
            for q in coeffs:
                if not q:
                    new.append(q)
                    continue
                dq = q.diff(mu)
                if chain:
                    dq = dq + (q.scale(const) if const is not None else chain * q)
                new.append(dq)
            out.append((phase, new))
        return AnalyticField(self.backend, out)

    def multiply_phase(self, lam: Poly) -> "AnalyticField":
        """Multiply by exp(i * lam) for a real polynomial lam."""
        return AnalyticField(self.backend,
                             [(p + lam, list(c)) for p, c in self.terms.values()])

    def compose_linear(self, matrix) -> "AnalyticField":
        """Substitute x = matrix . y in every polynomial and phase."""
        conv = Fraction if self.backend == EXACT else float
        rmat = [[conv(v) for v in row] for row in matrix]
        cmat = [[scalars.coerce(v, self.backend) for v in row] for row in rmat]
        out = []
        for phase, coeffs in self.terms.values():
            new_phase = phase.compose_linear(rmat)
            new_coeffs = [q.compose_linear(cmat) if q else Poly() for q in coeffs]
            out.append((new_phase, new_coeffs))
        return AnalyticField(self.backend, out)

    # ---- products ---------------------------------------------------------------

    def _blade_mul(self, other: "AnalyticField", kind: BladeProduct) -> "AnalyticField":
        self._check(other)
        zero = Poly()
        out = []
        for pa, ca in self.terms.values():
            for pb, cb in other.terms.values():
                out.append((pa + pb, kind.generic(ca, cb, zero)))
        return AnalyticField(self.backend, out)

    def clifford(self, other: "AnalyticField") -> "AnalyticField":
        return self._blade_mul(other, CLIFFORD)

    def wedge(self, other: "AnalyticField") -> "AnalyticField":
        return self._blade_mul(other, WEDGE)

    def mul_const(self, mv: Multivector, side: str = "right",
                  product: BladeProduct = CLIFFORD) -> "AnalyticField":
        """Multiply by the constant mv, on the given side, under the given product.

        The constant acts as a slot map: each live term (i, j, sign, mask)
        scales one coefficient polynomial by one coefficient of mv into slot
        mask, summed in the ascending (i, j) order of the field-by-field
        product, whose coefficients it equals bit for bit."""
        self._check(mv)
        right = side == "right"
        out = []
        for phase, coeffs in self.terms.values():
            a, b = (coeffs, mv.coeffs) if right else (mv.coeffs, coeffs)
            new = [Poly()] * 16
            for i, j, sign, mask in product.live_terms(a, b):
                p = a[i].scale(b[j]) if right else b[j].scale(a[i])
                new[mask] = new[mask] + p if sign > 0 else new[mask] - p
            out.append((phase, new))
        return AnalyticField(self.backend, out)

    def scalar_part_of_mul(self, mv: Multivector) -> "AnalyticField":
        """The unit-blade part of the Clifford product self * mv, forming only
        the terms that land on the unit blade, in the order of mul_const."""
        self._check(mv)
        out = []
        for phase, coeffs in self.terms.values():
            acc = Poly()
            for i, j, sign in CLIFFORD.scalar_terms:
                if coeffs[i] and mv.coeffs[j]:
                    p = coeffs[i].scale(mv.coeffs[j])
                    acc = acc + p if sign > 0 else acc - p
            out.append((phase, [acc] + [Poly()] * 15))
        return AnalyticField(self.backend, out)

    # ---- evaluation ----------------------------------------------------------------

    def eval(self, x) -> Multivector:
        """Value at a point, always on the float backend."""
        coeffs = [0j] * 16
        for phase, polys in self.terms.values():
            factor = cmath.exp(1j * phase.eval_real(x))
            for m, q in enumerate(polys):
                if q:
                    coeffs[m] += factor * q.eval(x)
        return Multivector(coeffs, FLOAT)

    def max_abs(self) -> float:
        worst = 0.0
        for _, coeffs in self.terms.values():
            for q in coeffs:
                for c in q.terms.values():
                    worst = scalars.nan_max(worst, abs(complex(c)))
        return worst

    def to_float(self) -> "AnalyticField":
        if self.backend == FLOAT:
            return self
        out = []
        for phase, coeffs in self.terms.values():
            fphase = Poly({e: float(c) for e, c in phase.terms.items()})
            fcoeffs = [Poly({e: complex(c) for e, c in q.terms.items()}) for q in coeffs]
            out.append((fphase, fcoeffs))
        return AnalyticField(FLOAT, out)

    def __repr__(self):
        return (f"AnalyticField(backend={self.backend!r}, "
                f"terms={len(self.terms)}, grades={sorted(self.grades())})")


# ---- the differential operators ---------------------------------------------
#
# Each formula uses only calls that an AnalyticField and a grid.Stencil both
# answer: partial, mul_const, hodge_star, +, -, negation and scale.  On a
# field they differentiate; on Stencil.identity(h) they build the lattice
# operator of spacing h.


def _sum(terms):
    """The sum of a non-empty list of fields or stencils, left to right."""
    return functools.reduce(operator.add, terms)


def _gradient(field, product: BladeProduct):
    """sum_mu e^mu (product) partial_mu field."""
    return _sum([field.partial(mu).mul_const(basis_vector(mu, field.backend), side="left",
                                             product=product)
                 for mu in range(4)])


def d(field):
    """Exterior derivative: wedge each basis covector onto the matching partial."""
    return _gradient(field, WEDGE)


def delta(field):
    """Codifferential, the star-conjugated derivative."""
    return d(field.hodge_star()).hodge_star()


def upsilon(field):
    """The first-order operator d - delta."""
    return d(field) - delta(field)


def upsilon_gradient(field):
    """The same operator computed as the Clifford action of the gradient."""
    return _gradient(field, CLIFFORD)


def laplace(field, route: str = "direct"):
    """Second-order operator; `route` picks one of the four equivalent forms."""
    if route == "direct":
        seconds = [field.partial(mu).partial(mu) for mu in range(4)]
        return _sum([s if ETA[mu] > 0 else -s for mu, s in enumerate(seconds)])
    if route == "upsilon":
        return upsilon_gradient(upsilon_gradient(field))
    if route == "d_minus_delta":
        return upsilon(upsilon(field))
    if route == "de_rham":
        return -(d(delta(field)) + delta(d(field)))
    raise DomainError(f"unknown laplace route {route!r}")


def phase_cos(lam: Poly, backend: str) -> AnalyticField:
    """cos(lam) as a scalar field, via the two conjugate phase terms."""
    half = scalars.coerce(_HALF, backend)
    pos = [Poly.constant(half) if m == 0 else Poly() for m in range(16)]
    neg = [Poly.constant(half) if m == 0 else Poly() for m in range(16)]
    return AnalyticField(backend, [(lam, pos), (-lam, neg)])


def phase_sin(lam: Poly, backend: str) -> AnalyticField:
    """sin(lam) as a scalar field."""
    lo = scalars.coerce(_MINUS_HALF_I, backend)
    hi = -lo
    pos = [Poly.constant(lo) if m == 0 else Poly() for m in range(16)]
    neg = [Poly.constant(hi) if m == 0 else Poly() for m in range(16)]
    return AnalyticField(backend, [(lam, pos), (-lam, neg)])


def real_polynomial(entries: Mapping[Exps, object], backend: str) -> Poly:
    """A phase-side polynomial with real coefficients of the backend's kind."""
    conv = Fraction if backend == EXACT else float
    return Poly({tuple(e): conv(c) for e, c in entries.items()})
