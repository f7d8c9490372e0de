"""Residual evaluators and translation maps for the equivalent equation
forms: the matrix Dirac equation, its algebraic-ideal form, the real even
(Hestenes) form, the exterior-calculus tensor form, and the general
nonhomogeneous-form equation with its idempotent reductions.

Every form is one row of a table: the right factors J and M of its
equation  Upsilon psi + (A psi) J + m psi M = 0, its domain check and the
element its norm uses.  `form_operator` applies the row's formula to
whatever state it is given (the reduction identities need that), and each
`residual_*` validates the state, evaluates the operator, and packages a
report.  Pointwise residual size is measured with the generator-adapted
hermitian norm, which the gauge rotations of every form preserve exactly.

The spinor bijections are those of `ideal`, which owns the basis and imports
nothing from here; `translate` carries fields along them.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from . import linalg, scalars
from .errors import BackendMismatchError, ConsistencyError, DomainError
from .fields import (AnalyticField, PointSet, Poly, complex_from_parts, complex_times, d,
                     delta, phase_cos, phase_sin, upsilon_gradient)
from .generators import SecondaryGenerators
from .grid import GridField, Stencil, central_difference, sample
from .ideal import IdealBasis, canonical_basis, gamma_of
from .multivector import (
    CLIFFORD,
    ETA,
    REVERSION_MAP,
    Multivector,
    basis_vector,
    blade_indices,
    l5,
    require_unit_square,
)
from .names import EquationForm
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi, nan_max
from .spin import lorentz_of


# ---- bispinor-valued fields -------------------------------------------------


@dataclass(frozen=True)
class BispinorField:
    """Column of four scalar-valued analytic fields."""

    components: tuple[AnalyticField, AnalyticField, AnalyticField, AnalyticField]

    def __post_init__(self):
        for c in self.components:
            if c.grades() - {0}:
                raise DomainError("bispinor components must be scalar-valued")

    @property
    def backend(self) -> str:
        return self.components[0].backend

    @classmethod
    def zero(cls, backend: str = FLOAT) -> "BispinorField":
        z = AnalyticField.zero(backend)
        return cls((z, z, z, z))

    @classmethod
    def constant(cls, values, backend: str) -> "BispinorField":
        comps = tuple(
            AnalyticField.constant(Multivector.scalar(v, backend)) for v in values)
        return cls(comps)

    def __add__(self, other: "BispinorField") -> "BispinorField":
        return BispinorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "BispinorField") -> "BispinorField":
        return BispinorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "BispinorField":
        return BispinorField(tuple(-a for a in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BispinorField):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def scale(self, value) -> "BispinorField":
        return BispinorField(tuple(a.scale(value) for a in self.components))

    def partial(self, mu: int) -> "BispinorField":
        return BispinorField(tuple(a.partial(mu) for a in self.components))

    def apply_matrix(self, rows) -> "BispinorField":
        """Row n is the sum over k of component k scaled by rows[n][k], left to
        right, from its first nonzero term: zero plus a field is that field."""
        out = []
        for row in rows:
            terms = [c.scale(v) for c, v in zip(self.components, row) if v]
            out.append(functools.reduce(operator.add, terms) if terms
                       else AnalyticField.zero(self.backend))
        return BispinorField(tuple(out))

    def mul_scalar_field(self, f: AnalyticField) -> "BispinorField":
        return BispinorField(tuple(f.clifford(a) for a in self.components))

    def multiply_phase(self, lam: Poly) -> "BispinorField":
        return BispinorField(tuple(a.multiply_phase(lam) for a in self.components))

    def compose_linear(self, matrix) -> "BispinorField":
        return BispinorField(tuple(a.compose_linear(matrix) for a in self.components))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)

    def eval(self, x) -> tuple:
        """The four values at one point: the one-point case of `eval_points`."""
        return tuple(self.eval_points([x])[:, 0].tolist())

    def eval_points(self, points):
        """The four values at each point: a complex array of shape (4, P)."""
        points = PointSet(points)
        return np.array([a.eval_points(points)[0] for a in self.components])


# ---- norms and sample points -------------------------------------------------


# bounded: a caller may pass any seed; a tuple, so no caller changes the kept points
@functools.lru_cache(maxsize=16)
def sample_points(seed: int = 0) -> PointSet:
    """24 seeded points of the box [-1, 1]^4, drawn once per seed, with the
    powers of their coordinates kept from their first evaluation."""
    rng = random.Random(seed)
    return PointSet(tuple(rng.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(24))


def _rescaled(norm, u) -> float:
    """norm(u), or s * norm(u / s) with s = max |u| where a finite u overflows."""
    value = norm(u)
    if math.isfinite(value):
        return value
    s = u.max_abs()
    return s * norm(u.scale(1.0 / s)) if math.isfinite(s) else value


# A size maps the values at P points, the columns `eval_points` gives, to the
# list of their P sizes, each with the bits of the one-point rule.
#
# CLIFFORD's sign of blade i times blade j, and the blades reversion negates
_CLIFFORD_SIGNS = np.array([[sign for sign, _ in row] for row in CLIFFORD.table], dtype=float)
_REVERSED = np.array([sign < 0 for sign, _ in REVERSION_MAP])[:, None]
# CLIFFORD.scalar_terms, the terms that land on the unit blade, in its order
_UNIT_TERMS = (np.array([[i] for i, _, _ in CLIFFORD.scalar_terms]),
               np.array([[j] for _, j, _ in CLIFFORD.scalar_terms]),
               np.array([[[sign]] for _, _, sign in CLIFFORD.scalar_terms], dtype=float))


def _clifford_terms(live, constant_left: bool) -> tuple:
    """(i, j, sign) arrays of shape (K, 16) (sign (K, 16, 1)): for each blade
    m, the K terms a[i] b[j] of a Clifford product landing on m, in ascending
    i as `BladeProduct.generic` adds them, where the constant factor, left or
    right, has the K blades `live` and the other may use every blade."""
    m = np.arange(16)
    k = np.array(live)[:, None]
    i = np.broadcast_to(k, (len(live), 16)) if constant_left else np.sort(k ^ m, axis=0)
    return i, i ^ m, _CLIFFORD_SIGNS[i, i ^ m][..., None]


def _products(a, b, terms):
    """Per column and blade m, the sum from 0j of sign * a[i] * b[j] over the
    terms of m in order, skipping a term with a zero factor (0 * inf would
    add a NaN): `BladeProduct.generic` or `scalar_part` on each column."""
    i, j, sign = terms
    x, y = a[i], b[j]
    live = (x != 0) & (y != 0)
    # a skipped term adds -0.0, which leaves every sum as it is
    with np.errstate(all="ignore"):
        p = complex_from_parts(np.where(live, sign * (x.real * y.real - x.imag * y.imag), -0.0),
                               np.where(live, sign * (x.real * y.imag + x.imag * y.real), -0.0))
        out = 0j + p[0]
        for q in p[1:]:
            out = out + q
    return out


def _max_abs(u) -> list:
    """`Multivector.max_abs` of each column of a (16, P) array: the largest
    modulus of its values, NaN if one is NaN."""
    moduli = [scalars.modulus(c) for c in u.ravel().tolist()]
    return np.array(moduli).reshape(u.shape).max(axis=0).tolist()


def _column_norms(u) -> list:
    """sqrt(sum |v|^2) of each column of a (4, P) bispinor array, by `hypot`
    where a square or a modulus overflows; NaN if a modulus is NaN."""
    out = []
    for col in u.T.tolist():
        try:
            out.append(math.sqrt(sum(abs(v) ** 2 for v in col)))
        except OverflowError:  # a finite square or modulus beyond float range
            moduli = [scalars.modulus(v) for v in col]
            out.append(math.nan if any(map(math.isnan, moduli)) else math.hypot(*moduli))
    return out


def _hermitian_size(h: Multivector):
    """The size sqrt(4 Tr(U U^dagger)), U^dagger = H U^star H, of each column
    U, built once per float H (`_float_hermitian_size`)."""
    return _float_hermitian_size(tuple(h.to_float().coeffs))


# bounded: the covariance checks measure a new pushed H for each case; an H
# that fails its check raises, and nothing is kept for it
@functools.lru_cache(maxsize=64)
def _float_hermitian_size(h_coeffs: tuple):
    """The size of each column for the float H with these coefficients;
    `require_unit_square` checks H*H = unit here.  H U^star, then that
    times H, then the unit-blade terms of U U^dagger in CLIFFORD's order,
    each a whole row at a time; a column whose norm is not finite is
    measured again as s * norm(U / s), s = max |U|, where s is finite."""
    hf = Multivector(list(h_coeffs), FLOAT)
    require_unit_square(hf)
    live = [m for m, c in enumerate(h_coeffs) if c]
    hcol = np.array(h_coeffs)[:, None]
    h_left, h_right = _clifford_terms(live, True), _clifford_terms(live, False)

    def norms(u):
        conj = u.conj()
        star = np.where(_REVERSED, -conj, conj)
        dagger = _products(_products(hcol, star, h_left), hcol, h_right)
        trace = _products(u, dagger, _UNIT_TERMS)[0]
        val = trace.real * 4.0 - trace.imag * 0.0
        return np.sqrt(np.where(val < 0.0, 0.0, val))

    def size(u) -> list:
        with np.errstate(all="ignore"):
            out = norms(u)
            cols = np.flatnonzero(~np.isfinite(out))
            if cols.size:
                s = np.array(_max_abs(u[:, cols]))
                cols, s = cols[np.isfinite(s)], s[np.isfinite(s)]
                out[cols] = s * norms(complex_times(u[:, cols], 1.0 / s))
        return out.tolist()

    return size


def hermitian_norm(u: Multivector, h: Multivector) -> float:
    """sqrt(4 Tr(U U^dagger)) with the conjugation adapted to H, which must
    square to the unit: the one-point case of the sampled size."""
    return _hermitian_size(h)(np.array(u.to_float().coeffs)[:, None])[0]


def _grid_norm(state: GridField, h_mv: Multivector) -> float:
    """The largest hermitian norm over the sites of a grid."""
    ud = state.star_involution().mul_const(h_mv.to_float(), side="left")
    ud = ud.mul_const(h_mv.to_float(), side="right")
    # dagger = H u^star H; combine slotwise for the scalar part of u * dagger
    acc = np.zeros(state.values.shape[1:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, sign in CLIFFORD.scalar_terms:
            acc += sign * state.values[i] * ud.values[j]
        norms = np.sqrt(np.maximum((4 * acc).real, 0.0))
    return float(norms.max()) if norms.size else 0.0


def sampled_max(field, size, seed: int = 0) -> float:
    """The largest size over the seeded sample points: `size` maps the
    values of the field at every point (`eval_points`) to their sizes.  0.0
    for a structurally zero field, NaN if any point measures NaN."""
    if field.is_zero():
        return 0.0
    return nan_max(*size(field.eval_points(sample_points(seed))))


def field_gap(a, b, seed: int = 0) -> float:
    """0.0 for structurally equal fields, otherwise the sampled size of a - b:
    column norms for a bispinor field, the largest modulus for any other."""
    if a == b:
        return 0.0
    diff = a - b
    return sampled_max(diff, _column_norms if isinstance(diff, BispinorField) else _max_abs, seed)


def _state_norm(state, h_mv: Multivector, seed: int) -> float:
    if isinstance(state, GridField):
        require_unit_square(h_mv.to_float())
        return _rescaled(lambda g: _grid_norm(g, h_mv), state)
    # H*H = unit is checked once per float H, not per field or point
    return 0.0 if state.is_zero() else sampled_max(state, _hermitian_size(h_mv), seed)


# ---- reports -------------------------------------------------------------------


@dataclass
class ResidualReport:
    form: str
    backend: str
    max_norm: float
    tolerance: float
    seed: int
    grid: dict | None = None
    notes: list = dataclass_field(default_factory=list)
    residual: object | None = None

    @property
    def verdict(self) -> str:
        """"pass" where the norm is within the tolerance; a NaN norm fails."""
        return "pass" if self.max_norm <= self.tolerance else "fail"

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "form": self.form,
            "backend": self.backend,
            "max_norm": self.max_norm,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "seed": self.seed,
            "grid": self.grid,
            "notes": list(self.notes),
        }


# ---- generic state helpers ------------------------------------------------------


def _mass_scalar(m, state):
    if state.backend == EXACT:
        return QQi.from_rational(Fraction(m))
    return complex(float(m))


def _upsilon(state):
    if isinstance(state, GridField):
        return upsilon_gradient(Stencil.identity(state.h)).apply(state)
    return upsilon_gradient(state)


def _pot_times(pot, state):
    """Left Clifford multiplication of the state by the potential 1-form."""
    if pot is None:
        return state.scale(0)
    if isinstance(state, GridField):
        if isinstance(pot, AnalyticField):
            pot = sample(pot, state.n, state.h)
        return pot.pointwise_product(state)
    if isinstance(pot, GridField):
        raise DomainError("grid potential cannot act on an analytic state")
    return pot.clifford(state)


def _pot_components(pot) -> list:
    """Scalar fields a_mu from a grade-1 potential."""
    if pot is None:
        return [None, None, None, None]
    return [pot.component(1 << mu) for mu in range(4)]


# ---- the form table --------------------------------------------------------------


def _check_bispinor(state, basis, tol: float) -> None:
    if not isinstance(state, BispinorField):
        raise DomainError("the matrix form needs a bispinor state")
    if basis is not None and state.backend == EXACT != basis.backend:
        raise BackendMismatchError(f"mixed scalar backends: {state.backend} vs {basis.backend}")


def _domain_bound(state, tol: float) -> tuple:
    """(state, bound) of a float domain check: the bound follows the
    rounding of the state, and a loose verdict tolerance does not widen it.
    A state whose modulus overflows is halved first, so that its bound is
    finite: an infinite bound would admit any state."""
    size = state.max_abs()
    if size == math.inf:
        state = state.scale(0.5)
        size = state.max_abs()
    return state, min(tol, DEFAULT_TOLERANCE) * max(size, 1.0) * 10


def _check_in_ideal(theta, basis: IdealBasis, tol: float) -> None:
    if theta.backend == EXACT:
        if not (theta.mul_const(basis.t, side="right") - theta).is_zero():
            raise DomainError("state leaves the left ideal")
        return
    theta, bound = _domain_bound(theta, tol)
    if (theta.mul_const(basis.t.to_float(), side="right") - theta).max_abs() > bound:
        raise DomainError("state leaves the left ideal")


def _check_even_real(state, basis, tol: float, require_real: bool = True) -> None:
    if state.backend == EXACT:
        if not state.odd_part().is_zero():
            raise DomainError("state must be even")
        if require_real and not state.is_real():
            raise DomainError("state must be real")
        return
    state, bound = _domain_bound(state, tol)
    if state.odd_part().max_abs() > bound:
        raise DomainError("state must be even")
    if require_real and not state.is_real(bound):
        raise DomainError("state must be real")


@dataclass(frozen=True)
class _Row:
    """One form of  Upsilon psi + (A psi) J + m psi M = 0: the gauge generator
    J and the mass factor M act on the right, each a product of the named
    "i" (a scalar), "H", "I" and "e5"; the gauge map is psi -> psi exp(lam J).
    `domain(state, basis, tol)` refuses a state outside the form (the matrix
    form: any state but a bispinor); the norm is the "column" norm of a
    bispinor or the hermitian norm under H or e0.  The plane `wave` is a
    bispinor (None) or combines a set of `IdealBasis.amplitude_columns`, times
    the reduction idempotent of the kind it names on the right (or None)."""

    gauge: tuple
    mass: tuple
    domain: object
    norm: str
    wave: tuple | None


_FORMS = {
    EquationForm.DIRAC_MATRIX: _Row(("i",), ("i",), _check_bispinor, "column", None),
    EquationForm.IDEAL: _Row(("i",), ("i",), _check_in_ideal, "H", ("ideal", None)),
    EquationForm.ILK: _Row(("i",), ("i",), None, "e0", ("ideal", None)),
    EquationForm.HESTENES: _Row(("I",), ("H", "I"), _check_even_real, "H", ("even", None)),
    EquationForm.TENSOR: _Row(("I",), ("H", "I"), _check_even_real, "H", ("even", None)),
    EquationForm.ILK_EVEN:
        _Row(("i",), ("i", "H"), lambda s, b, tol: _check_even_real(s, b, tol, False), "H",
             ("complex-even", None)),
    EquationForm.ILK_E5: _Row(("e5",), ("e5",), None, "e0", ("ideal", "t-e5")),
}


def _times_right(value, names, h, i2, scalar=None):
    """value times the named right factor, then times scalar (times i where
    the factor names it); an absent multivector or scalar is skipped."""
    mv = None
    for name in names:
        if name != "i":
            g = l5(value.backend) if name == "e5" else {"H": h, "I": i2}[name]
            if g is None:
                raise DomainError(f"the right factor {name} needs generator data")
            mv = g if mv is None else mv * g
    if mv is not None:
        value = value.mul_const(mv, side="right")
    if "i" in names:
        i_unit = scalars.imaginary_unit(value.backend)
        scalar = i_unit if scalar is None else scalar * i_unit
    return value if scalar is None else value.scale(scalar)


# ---- the operators ---------------------------------------------------------------


def dirac_operator(psi: BispinorField, pot: AnalyticField | None, m,
                   gammas) -> BispinorField:
    """gamma^mu (d_mu psi + i a_mu psi) + i m psi."""
    backend = psi.backend
    i_unit = scalars.imaginary_unit(backend)
    acc = BispinorField.zero(backend)
    a_fields = _pot_components(pot)
    for mu in range(4):
        term = psi.partial(mu)
        if a_fields[mu] is not None and not a_fields[mu].is_zero():
            term = term + psi.mul_scalar_field(a_fields[mu].scale(i_unit))
        acc = acc + term.apply_matrix(gammas[mu])
    m_s = _mass_scalar(m, psi.components[0])
    return acc + psi.scale(m_s * i_unit)


def form_operator(form: EquationForm, state, pot, m, h: Multivector | None = None,
                  i2: Multivector | None = None):
    """Upsilon psi + (A psi) J + m psi M with the right factors of the form's
    row, applied to whatever state it is given (the reduction identities
    need that).  H and I are needed where J or M names them."""
    if form == EquationForm.DIRAC_MATRIX:
        raise DomainError("the matrix form takes the gamma-matrix operator")
    row = _FORMS[form]
    out = _upsilon(state) + _times_right(_pot_times(pot, state), row.gauge, h, i2)
    return out + _times_right(state, row.mass, h, i2, _mass_scalar(m, state))


# ---- validated residual reports ----------------------------------------------------


def _residual(form: EquationForm, state, pot, m, h=None, i2=None, basis=None, *,
              tolerance: float, seed: int) -> ResidualReport:
    """Check the state against the form's domain, apply the form's operator,
    and report the worst size of the result under the form's norm element."""
    row = _FORMS[form]
    if row.domain is not None:
        row.domain(state, basis, tolerance)
    if form == EquationForm.DIRAC_MATRIX:  # the independent gamma-matrix route
        basis = basis or canonical_basis(state.backend)
        gammas = (basis.to_float() if state.backend == FLOAT else basis).vector_gammas()
        res = dirac_operator(state, pot, m, gammas)
    else:
        res = form_operator(form, state, pot, m, h, i2)
    notes = []
    if form == EquationForm.HESTENES and isinstance(res, AnalyticField):
        # the grade content of the residual is recorded, not asserted
        notes.append(f"residual grades: {sorted(res.grades())}")
    if row.norm == "column":
        max_norm = sampled_max(res, _column_norms, seed)
    else:
        max_norm = _state_norm(res, basis_vector(0, FLOAT) if row.norm == "e0" else h, seed)
    grid = {"n": res.n, "h": res.h} if isinstance(res, GridField) else None
    return ResidualReport(form=form.value, backend="grid" if grid else res.backend,
                          max_norm=max_norm, tolerance=tolerance, seed=seed,
                          grid=grid, notes=notes, residual=res)


def residual_dirac(psi: BispinorField, pot, m, basis: IdealBasis | None = None,
                   *, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.DIRAC_MATRIX, psi, pot, m, basis=basis,
                     tolerance=tolerance, seed=seed)


def residual_ideal(theta, pot, m, basis: IdealBasis, *,
                   tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.IDEAL, theta, pot, m, basis.gens.h, basis=basis,
                     tolerance=tolerance, seed=seed)


def residual_hestenes(state, pot, m, h_mv: Multivector, i_mv: Multivector, *,
                      tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.HESTENES, state, pot, m, h_mv, i_mv,
                     tolerance=tolerance, seed=seed)


def residual_tensor(state, pot, m, h_mv: Multivector, i_mv: Multivector, *,
                    tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.TENSOR, state, pot, m, h_mv, i_mv,
                     tolerance=tolerance, seed=seed)


def residual_ilk(state, pot, m, *, tolerance: float = DEFAULT_TOLERANCE,
                 seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.ILK, state, pot, m, tolerance=tolerance, seed=seed)


def residual_ilk_even(state, pot, m, h_mv: Multivector, *,
                      tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.ILK_EVEN, state, pot, m, h_mv,
                     tolerance=tolerance, seed=seed)


def residual_ilk_e5(state, pot, m, *, tolerance: float = DEFAULT_TOLERANCE,
                    seed: int = 0) -> ResidualReport:
    return _residual(EquationForm.ILK_E5, state, pot, m, tolerance=tolerance, seed=seed)


# form -> residual of (state, potential, mass, basis, H, I).  Each entry names
# its residual_* function at call time, so a rebinding of that module global
# (as tracing does) is seen here too.
_RESIDUALS = {
    EquationForm.DIRAC_MATRIX: lambda s, a, m, b, h, i, **kw: residual_dirac(s, a, m, b, **kw),
    EquationForm.IDEAL: lambda s, a, m, b, h, i, **kw: residual_ideal(s, a, m, b, **kw),
    EquationForm.HESTENES: lambda s, a, m, b, h, i, **kw: residual_hestenes(s, a, m, h, i, **kw),
    EquationForm.TENSOR: lambda s, a, m, b, h, i, **kw: residual_tensor(s, a, m, h, i, **kw),
    EquationForm.ILK: lambda s, a, m, b, h, i, **kw: residual_ilk(s, a, m, **kw),
    EquationForm.ILK_EVEN: lambda s, a, m, b, h, i, **kw: residual_ilk_even(s, a, m, h, **kw),
    EquationForm.ILK_E5: lambda s, a, m, b, h, i, **kw: residual_ilk_e5(s, a, m, **kw),
}


# ---- reduction idempotents ---------------------------------------------------------


# the right idempotents that cut the general-form equation down, keyed as
# `names.REDUCTION_KINDS`: kind -> (the form of the equation it reduces to,
# the idempotent from the unit, the imaginary unit and the generators)
_REDUCTIONS = {
    "t-HI": (EquationForm.TENSOR,
             lambda unit, i, g: ((unit + g.h) * (unit - g.i2.scale(i))).scale(Fraction(1, 4))),
    "t-H": (EquationForm.ILK_EVEN, lambda unit, i, g: (unit + g.h).scale(Fraction(1, 2))),
    "t-e5": (EquationForm.ILK_E5,
             lambda unit, i, g: (unit - l5(g.backend).scale(i)).scale(Fraction(1, 2))),
}


def _reduction(kind: str) -> tuple:
    if kind not in _REDUCTIONS:
        raise DomainError(f"unknown reduction idempotent {kind!r}")
    return _REDUCTIONS[kind]


def reduction_idempotent(kind: str, gens: SecondaryGenerators) -> Multivector:
    """The right idempotent of the named reduction, on the generators' backend."""
    _, build = _reduction(kind)
    return build(Multivector.unit(gens.backend), scalars.imaginary_unit(gens.backend), gens)


def reduced_operator(kind: str, state, pot, m, gens: SecondaryGenerators):
    """The operator of the equation that the named idempotent reduces to."""
    form, _ = _reduction(kind)
    return form_operator(form, state, pot, m, gens.h, gens.i2)


def reduction_sides(kind: str, rho, pot, m, gens: SecondaryGenerators) -> tuple:
    """Both sides of the reduction identity for t_red = reduction_idempotent(kind,
    gens): the reduced operator on rho t_red, and the general-form operator on
    rho times t_red."""
    t_red = reduction_idempotent(kind, gens)
    lhs = reduced_operator(kind, rho.mul_const(t_red, side="right"), pot, m, gens)
    rhs = form_operator(EquationForm.ILK, rho, pot, m).mul_const(t_red, side="right")
    return lhs, rhs


# ---- translations --------------------------------------------------------------------


def translate(state, src: EquationForm, dst: EquationForm, basis: IdealBasis):
    """Carry a state between equation forms along the canonical bijections.

    The real-even and exterior-calculus forms share storage, so that pair
    translates as the identity for any state kind; the remaining maps are
    defined on analytic states and pass through the ideal: psi_k t_k and
    Omega t lead in, the components (theta, t^k) and 4 <Re theta>_even
    (proved in `ideal.even_from_ideal`) lead out.  The last map is defined
    on the ideal, and the state is not checked to lie in it.
    """
    if src == dst:
        return state
    if {src, dst} == {EquationForm.HESTENES, EquationForm.TENSOR}:
        return state
    if isinstance(state, GridField):
        raise DomainError("only the shared-storage pair translates on grids")
    if src == EquationForm.DIRAC_MATRIX:
        _check_bispinor(state, basis, DEFAULT_TOLERANCE)
        theta = AnalyticField.zero(state.backend)
        for comp, tk in zip(state.components, basis.ts):
            theta = theta + comp.mul_const(tk, side="right")
        return translate(theta, EquationForm.IDEAL, dst, basis)
    if src in (EquationForm.HESTENES, EquationForm.TENSOR):
        return translate(state.mul_const(basis.t, side="right"), EquationForm.IDEAL, dst, basis)
    if src == EquationForm.IDEAL and dst == EquationForm.DIRAC_MATRIX:
        return BispinorField(tuple(state.scalar_part_of_mul(td).scale(4)
                                   for td in basis.ts_dagger))
    if src == EquationForm.IDEAL and dst in (EquationForm.HESTENES, EquationForm.TENSOR):
        return state.real_part().even_part().scale(4)
    raise DomainError(f"no translation from {src.value} to {dst.value}")


def _combination(coeffs, cols) -> Multivector:
    """sum_k coeffs[k] cols[k], added left to right."""
    return functools.reduce(operator.add, (col.scale(c) for c, col in zip(coeffs, cols)))


# ---- gauge transformations ---------------------------------------------------------


def gauge_transform(state, pot, lam: Poly, form: EquationForm,
                    basis: IdealBasis | None = None):
    """Apply the U(1) gauge map psi -> psi exp(lam J) of the given form, with J
    the gauge generator of its row, and gauge function lam.

    Returns the pair (state', potential').  The potential always moves by
    A -> A - d(lam).  For J = i the phase stays structural; otherwise the
    rotor is cos(lam) + sin(lam) J.
    """
    if isinstance(state, GridField):
        raise DomainError("gauge transformation runs on the analytic backend")
    backend = state.backend
    lam_field = AnalyticField.scalar_poly(lam, backend)
    dlam = d(lam_field)
    new_pot = (pot - dlam) if pot is not None else -dlam
    jay = _FORMS[form].gauge
    if jay == ("i",):
        return state.multiply_phase(lam), new_pot
    h, i2 = (basis.gens.h, basis.gens.i2) if basis is not None else (None, None)
    turned = _times_right(state, jay, h, i2)
    new_state = state.clifford(phase_cos(lam, backend)) + turned.clifford(phase_sin(lam, backend))
    return new_state, new_pot


# ---- conserved current ----------------------------------------------------------------


@dataclass
class CurrentResult:
    j: tuple
    J: AnalyticField
    divergence: AnalyticField
    grade_leak: float
    match_error: float

    def divergence_max(self) -> float:
        return sampled_max(self.divergence, _max_abs)


def current(phi, h_mv: Multivector) -> CurrentResult:
    """Current components Tr(Phi-bar e^mu Phi) with Phi-bar = H Phi^star, the
    1-form J = Phi H Phi^star, and the divergence d_mu j^mu; the grade leak
    and the match error are sampled at the points of seed 0."""
    if isinstance(phi, GridField):
        raise DomainError("the current runs on the analytic backend; "
                          "current_grid_divergence samples it on a grid")
    backend = phi.backend
    phi_bar = phi.star_involution().mul_const(h_mv, side="left")
    j_fields = []
    for mu in range(4):
        e_mu = basis_vector(mu, backend)
        jmu = phi_bar.clifford(phi.mul_const(e_mu, side="left")).component(0)
        j_fields.append(jmu)
    J = phi.clifford(phi_bar)
    leak = J - J.grade_part(1)
    grade_leak = sampled_max(leak, _max_abs)
    lowered = AnalyticField.zero(backend)
    for mu in range(4):
        sgn = ETA[mu]
        term = j_fields[mu].mul_const(basis_vector(mu, backend), side="right")
        lowered = lowered + (term if sgn > 0 else -term)
    match = J.grade_part(1) - lowered
    match_error = sampled_max(match, _max_abs)
    div = AnalyticField.zero(backend)
    for mu in range(4):
        div = div + j_fields[mu].partial(mu)
    if grade_leak > 1e-8 * max(J.max_abs(), 1.0):
        raise ConsistencyError("J = Phi H Phi^star has parts outside grade 1")
    return CurrentResult(j=tuple(j_fields), J=J, divergence=div,
                         grade_leak=grade_leak, match_error=match_error)


def current_grid_divergence(phi_analytic: AnalyticField, h_mv: Multivector,
                            n: int, h: float) -> float:
    """Sample the analytic current on a periodic grid and measure the
    central-difference divergence; second order in h for smooth solutions."""
    result = current(phi_analytic, h_mv)
    div = np.zeros((n, n, n, n), dtype=complex)
    for mu in range(4):
        jmu = sample(result.j[mu], n, h).component(0)
        div = div + central_difference(jmu, mu, h)
    return float(np.abs(div).max())


# ---- lagrangian and field equations ------------------------------------------------------


@dataclass
class LagrangianResult:
    density: AnalyticField
    matter_part: AnalyticField
    field_part: AnalyticField
    trace_identity_error: float


def lagrangian(phi: AnalyticField, pot, m, h_mv: Multivector,
               i_mv: Multivector) -> LagrangianResult:
    """Density Tr(H C I) + Tr(F^2) with C the operator residual paired with
    Phi^star and F the field strength of the potential."""
    backend = phi.backend
    op = form_operator(EquationForm.TENSOR, phi, pot, m, h_mv, i_mv)
    C = phi.star_involution().clifford(op)
    matter = C.mul_const(h_mv, side="left").mul_const(i_mv, side="right").component(0)
    F = d(pot) if pot is not None else AnalyticField.zero(backend)
    field_part = F.clifford(F).component(0)
    # cross-check Tr(F^2) against -1/2 f^{mu nu} f_{mu nu}
    a_fields = _pot_components(pot)
    alt = AnalyticField.zero(backend)
    for mu in range(4):
        for nu in range(4):
            if a_fields[mu] is None or a_fields[nu] is None:
                continue
            f_mn = a_fields[nu].partial(mu) - a_fields[mu].partial(nu)
            term = f_mn.clifford(f_mn).scale(ETA[mu] * ETA[nu])
            alt = alt + term
    alt = alt.scale(Fraction(-1, 2))
    diff = field_part - alt
    err = sampled_max(diff, _max_abs)
    return LagrangianResult(density=matter + field_part, matter_part=matter,
                            field_part=field_part, trace_identity_error=err)


@dataclass
class MaxwellResult:
    field_strength: AnalyticField
    strength_residual_max: float
    source_residual: AnalyticField
    source_residual_max: float


def maxwell_residual(phi: AnalyticField, pot, h_mv: Multivector) -> MaxwellResult:
    """Residuals of the coupled field equations: dA - F (zero by construction)
    and delta F - J with J the conserved current of the matter field."""
    backend = phi.backend
    F = d(pot) if pot is not None else AnalyticField.zero(backend)
    strength_residual = (d(pot) - F) if pot is not None else AnalyticField.zero(backend)
    J = current(phi, h_mv).J
    source = delta(F) - J
    smax = sampled_max(strength_residual, _max_abs)
    jmax = sampled_max(source, _max_abs)
    return MaxwellResult(field_strength=F, strength_residual_max=smax,
                         source_residual=source, source_residual_max=jmax)


# ---- plane-wave solutions -----------------------------------------------------------------


@dataclass(frozen=True)
class PlaneWaveSolution:
    form: EquationForm
    momentum: tuple
    mass: float
    energy_sign: int
    amplitude: tuple
    state: object


def plane_wave(form: EquationForm, p, m, sign: int = 1,
               basis: IdealBasis | None = None, which: int = 0) -> PlaneWaveSolution:
    """Exact free solution of the requested form with momentum covector p.

    The amplitude u is vector `which` of the `linalg.null_space` of
    p-slash - sign*m; the momentum must satisfy the mass-shell relation
    p.p = m^2.  The gammas are those of `basis.to_float()`, the rounded exact
    gamma_of(e_mu) of the canonical basis when none is given.

    The state is u exp(i phi), phi = -sign p.x, carried to the form without
    a field translation: every translation is pointwise and R-linear, so it
    acts on the amplitude alone, and the closed-form amplitude columns P, M
    of the basis that the form's row names (`IdealBasis.amplitude_columns`)
    give it as A+ exp(i phi) + A- exp(-i phi) with A+ = sum_k u_k P_k and
    A- = sum_k conj(u_k) M_k; A- is zero for the complex-linear sets.  The
    t-e5 idempotent of ilk-e5 multiplies A+ and A- once each, after the sums.
    """
    p = tuple(float(v) for v in p)
    m = float(m)
    if m < 0:
        raise DomainError("mass must be nonnegative")
    if sign not in (1, -1):
        raise DomainError("energy sign must be +1 or -1")
    shell = sum(ETA[mu] * p[mu] * p[mu] for mu in range(4))
    scale = max(1.0, sum(v * v for v in p))
    if not abs(shell - m * m) <= 1e-10 * scale:  # NaN from overflow is off shell too
        raise DomainError(f"momentum is off shell: p.p = {shell}, m^2 = {m * m}")
    basis = (basis or canonical_basis()).to_float()
    pslash = sum(p[mu] * g for mu, g in enumerate(basis.gamma_arrays()))
    amplitudes = linalg.null_space(pslash - sign * m * np.eye(4))
    if not amplitudes:
        raise DomainError("no amplitude solves the momentum-space equation")
    if which >= len(amplitudes):
        raise DomainError(f"amplitude index {which} exceeds the solution space")
    u = np.array(amplitudes[which])
    lead = int(np.argmax(np.abs(u)))
    u = u * (abs(u[lead]) / u[lead])
    u = u / np.linalg.norm(u)
    u = [complex(v) for v in u]
    wave = tuple(-sign * v for v in p)
    if _FORMS[form].wave is None:
        state = BispinorField(tuple(
            AnalyticField.plane_wave(Multivector.scalar(v, FLOAT), wave) for v in u))
    else:
        columns, kind = _FORMS[form].wave
        plus, minus = basis.amplitude_columns[columns]
        amps = (_combination(u, plus), _combination([v.conjugate() for v in u], minus))
        if kind is not None:
            right = reduction_idempotent(kind, basis.gens)
            amps = tuple(a * right for a in amps)
        state = (AnalyticField.plane_wave(amps[0], wave)
                 + AnalyticField.plane_wave(amps[1], tuple(-v for v in wave)))
    return PlaneWaveSolution(form=form, momentum=p, mass=m, energy_sign=sign,
                             amplitude=tuple(u), state=state)


def boosted_momentum(m: float, rapidity: float, direction) -> tuple:
    """On-shell covector from a rest-frame mass by a boost along `direction`."""
    n = np.array(direction, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        return (m, 0.0, 0.0, 0.0)
    n = n / norm
    e = m * math.cosh(rapidity)
    ps = m * math.sinh(rapidity)
    return (e, ps * n[0], ps * n[1], ps * n[2])


# ---- covariance under coordinate changes ----------------------------------------------------


def _push_matrix(q_rows, backend: str):
    """Slot matrix of the substitution e^nu -> sum_lambda q[nu][lambda] e^lambda."""
    cols = []
    for mask in range(16):
        blade = Multivector.unit(backend)
        for nu in blade_indices(mask):
            vec = Multivector.from_terms(
                [(1 << lam, scalars.coerce(
                    Fraction(q_rows[nu][lam]) if backend == EXACT else float(q_rows[nu][lam]),
                    backend))
                 for lam in range(4)], backend)
            blade = blade ^ vec
        cols.append(blade.coeffs)
    return [[cols[j][i] for j in range(16)] for i in range(16)]


def push_covectors(mv: Multivector, rows) -> Multivector:
    """mv with its covectors substituted by the slot matrix `rows` of `_push_matrix`."""
    out = [scalars.zero(mv.backend)] * 16
    for j, c in enumerate(mv.coeffs):
        if not c:
            continue
        for i in range(16):
            if rows[i][j]:
                out[i] = out[i] + rows[i][j] * c
    return Multivector(out, mv.backend)


@dataclass(frozen=True)
class FieldConfig:
    """One equation instance: the form tag, its state, the potential, the
    mass, and the generator data everything is built from."""

    form: EquationForm
    state: object
    potential: object | None
    mass: object
    basis: IdealBasis

    @property
    def state_basis(self) -> IdealBasis:
        """The basis on the state's backend: the float copy for a float state."""
        return self.basis if self.state.backend == EXACT else self.basis.to_float()

    def residual(self, *, tolerance: float = DEFAULT_TOLERANCE,
                 seed: int = 0) -> ResidualReport:
        b = self.state_basis
        return _RESIDUALS[self.form](self.state, self.potential, self.mass, b, b.gens.h,
                                     b.gens.i2, tolerance=tolerance, seed=seed)


@dataclass
class CovarianceReport:
    form: str
    residual_before: float
    residual_after: float
    tolerance: float
    verdict: str


COVARIANCE_TOLERANCE = 1e-10


def covariance_check(s, config: FieldConfig) -> CovarianceReport:
    """Transform a configuration by the Lorentz change of coordinates carried
    by a spin element and check the transformed residual, both sampled at
    the points of seed 0: it passes up to max(T, 10 r + T), r the residual
    before and T = `COVARIANCE_TOLERANCE`."""
    form, state, pot, m = config.form, config.state, config.potential, config.mass
    basis = config.state_basis
    q = lorentz_of(s, inverse=True).rows
    if isinstance(state, GridField):
        raise DomainError("covariance checks run on the analytic backend")
    # one slot matrix pushes the covectors of the potential, the tensor state, H and I
    push = _push_matrix(q, state.backend)
    # potential: new components a~_lam = q^mu_lam a_mu composed with x = Q x~
    new_pot = pot.compose_linear(q).apply_slot_matrix(push) if pot is not None else None
    new_h, new_i = basis.gens.h, basis.gens.i2
    if form == EquationForm.DIRAC_MATRIX:
        new_state = state.compose_linear(q).apply_matrix(gamma_of(s.element, basis))
    elif form in (EquationForm.IDEAL, EquationForm.HESTENES):
        new_state = AnalyticField.constant(s.element).clifford(state.compose_linear(q))
    elif form == EquationForm.TENSOR:
        # the exterior form pushes the state's covectors, and H and I with them
        new_state = state.compose_linear(q).apply_slot_matrix(push)
        new_h, new_i = push_covectors(new_h, push), push_covectors(new_i, push)
    else:
        raise DomainError(f"covariance check not defined for form {form.value}")
    tolerance = COVARIANCE_TOLERANCE
    before = config.residual(tolerance=tolerance)
    after = _RESIDUALS[form](new_state, new_pot, m, basis, new_h, new_i, tolerance=tolerance)
    verdict = "pass" if (after.max_norm <= max(tolerance, 10 * before.max_norm + tolerance)) else "fail"
    return CovarianceReport(form=form.value, residual_before=before.max_norm,
                            residual_after=after.max_norm, tolerance=tolerance,
                            verdict=verdict)
