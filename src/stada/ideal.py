"""Idempotent, left ideal, scalar product, and the induced 4x4 matrix
representation of the algebra, together with the bijections between the
ideal, bispinor columns, and the real even subalgebra.

A basis is built only from exact generators: the idempotent construction
is rational in them, so idempotency, the ideal multiplication law and
orthonormality are asserted as equalities, not tolerances.  Its float copy
(`IdealBasis.to_float`) rounds the verified exact basis, so there is one
kind of float basis and no float construction check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import add

from . import scalars
from .errors import BackendMismatchError, ConsistencyError, DomainError
from .generators import SecondaryGenerators, canonical_generators, transported_generators
from .kernel import ExactLinearMap
from .multivector import (
    EVEN_MASKS,
    Multivector,
    basis_vector,
    hermitian_conjugate,
    numerators,
    scalar_part_of_product,
)
from .scalars import EXACT, FLOAT, Scalar


def scalar_product(u: Multivector, v: Multivector, h: Multivector) -> Scalar:
    """Sesquilinear pairing 4 Tr(U V^dagger) with V^dagger = H V^star H."""
    vd = hermitian_conjugate(v, h)
    return scalar_part_of_product(u, vd) * 4


@dataclass(frozen=True)
class IdealBasis:
    """The idempotent t, the ideal basis t_1..t_4, and the factors F_1..F_4.

    The dual basis elements t^k coincide with t_k; both index positions
    appear in the formulas, one storage backs them.

    The matrix representation is linear in U, so the images of the 16
    basis blades are built once per basis, on the first `gamma_of`, and
    every later call combines them.  A float basis is the copy `to_float()`
    of an exact one, its `source`: its blade images and its plane-wave
    amplitude columns are those of the source, rounded on first use.
    """

    gens: SecondaryGenerators
    t: Multivector
    ts: tuple[Multivector, Multivector, Multivector, Multivector]
    fs: tuple[Multivector, Multivector, Multivector, Multivector]
    ts_dagger: tuple[Multivector, Multivector, Multivector, Multivector]
    # the exact basis a float copy was rounded from
    source: "IdealBasis | None" = field(default=None, repr=False, compare=False)

    @property
    def backend(self) -> str:
        return self.gens.backend

    def pairing(self, u: Multivector, v: Multivector) -> Scalar:
        return scalar_product(u, v, self.gens.h)

    def project_components(self, u: Multivector) -> tuple[Scalar, ...]:
        """Components (u, t^k) against the dual basis, k = 1..4."""
        return tuple(scalar_part_of_product(u, td) * 4 for td in self.ts_dagger)

    def contains(self, u: Multivector) -> bool:
        """Membership test for the left ideal: u t == u."""
        return (u * self.t - u).is_zero()

    def to_float(self) -> "IdealBasis":
        """The float copy, built once: the members of the verified exact basis
        rounded, nothing rebuilt in floats.  A float basis is its own copy."""
        return self if self.backend != EXACT else self._float_copy

    @cached_property
    def _float_copy(self) -> "IdealBasis":
        return IdealBasis(SecondaryGenerators(*_rounded((self.gens.h, self.gens.i2, self.gens.k2))),
                          *_rounded((self.t, self.ts, self.fs, self.ts_dagger)), source=self)

    @cached_property
    def blade_images(self) -> ExactLinearMap:
        """U -> gamma(U) as a linear map, from the verified images of the blades."""
        return ExactLinearMap([
            [v for row in _gamma_matrix(Multivector.basis(mask, EXACT), self) for v in row]
            for mask in range(16)])

    @cached_property
    def rounded_images(self) -> tuple:
        """gamma_of of each blade of a float copy, rows flattened: its source's, rounded."""
        if self.source is None:
            raise DomainError("float gammas are those of a float copy of an exact basis")
        return tuple(sum(_rounded(gamma_of(Multivector.basis(mask, EXACT), self.source)), ())
                     for mask in range(16))

    @cached_property
    def amplitude_columns(self) -> dict:
        """Spinor space -> (P, M), the columns a plane wave combines its
        amplitude u with: sum_k u_k P_k + conj(u_k) M_k is the image of the
        constant spinor u in the ideal ("ideal"), sum_k u_k t_k with P_k = t_k
        and M_k = 0; in the real even subalgebra ("even"), sum_k F_k (Re u_k +
        Im u_k I) with P_k = F_k (1 - iI)/2 = 2 <t_k>_even and M_k = F_k (1 + iI)/2;
        or in the complex even elements fixed by r = (1 - iI)/2 on the right
        ("complex-even"), that image times r: P_k r = P_k and M_k r = 0, so
        M_k = 0 there.  Built exactly, once per basis; a float copy rounds
        the columns of its exact basis."""
        if self.source is not None:
            return {name: _rounded(cols) for name, cols in self.source.amplitude_columns.items()}
        half = Multivector.unit(EXACT).scale(Fraction(1, 2))
        half_ii = self.gens.i2.scale(scalars.imaginary_unit(EXACT) * Fraction(1, 2))
        zeros = (Multivector.zero(EXACT),) * 4
        plus = tuple(f * (half - half_ii) for f in self.fs)
        return {"ideal": (self.ts, zeros),
                "even": (plus, tuple(f * (half + half_ii) for f in self.fs)),
                "complex-even": (plus, zeros)}

    def vector_gammas(self) -> tuple:
        """gamma_of(e_mu) for mu = 0..3 on the basis's backend, kept from the first call."""
        return self._vector_gammas

    @cached_property
    def _vector_gammas(self) -> tuple:
        return tuple(gamma_of(basis_vector(mu, self.backend), self) for mu in range(4))


def _rounded(value):
    """A multivector, a scalar, or nested tuples of them, rounded to float."""
    if isinstance(value, tuple):
        return tuple(map(_rounded, value))
    return value.to_float() if isinstance(value, Multivector) else complex(value)


def idempotent_of(g: SecondaryGenerators) -> IdealBasis:
    """Build t = (unit+H)(unit-iI)/4 and its ideal basis from exact generators,
    verifying every construction invariant exactly (idempotency, the
    multiplication law among the t_k, and orthonormality under the scalar
    product).  A float basis is the rounded copy `to_float()`.

    Orthonormality reads the stored daggers `ts_dagger`, H t_n^star H each
    built once: (t_k, t^n) = 4 Tr(t_k t_n^dagger) is `project_components(t_k)`,
    the value `scalar_product` gives, so the check verifies the daggers
    every later projection uses."""
    if g.backend != EXACT:
        raise DomainError("an ideal basis is built from exact generators; "
                          "round it with IdealBasis.to_float()")
    unit = Multivector.unit(EXACT)
    t = ((unit + g.h) * (unit - g.i2.scale(scalars.imaginary_unit(EXACT)))).scale(Fraction(1, 4))
    ps = g.pseudoscalar()
    fs = (
        unit,
        g.k2,
        -(g.i2 * ps),
        -(g.k2 * g.i2 * ps),
    )
    ts = tuple(f * t for f in fs)
    ts_dagger = tuple(hermitian_conjugate(tk, g.h) for tk in ts)
    basis = IdealBasis(gens=g, t=t, ts=ts, fs=fs, ts_dagger=ts_dagger)
    if not (t * t - t).is_zero():
        raise ConsistencyError("idempotency t*t = t failed")
    for k, tk in enumerate(ts):
        for n, tn in enumerate(ts):
            target = tk if n == 0 else Multivector.zero(EXACT)
            if not (tk * tn - target).is_zero():
                raise ConsistencyError(f"t_{k + 1} t_{n + 1} violates the ideal multiplication law")
    for k, tk in enumerate(ts):
        for n, val in enumerate(basis.project_components(tk)):
            if val != (1 if k == n else 0):
                raise ConsistencyError(f"orthonormality (t_{k + 1}, t^{n + 1}) failed: {val}")
    return basis


def canonical_basis(backend: str = EXACT) -> IdealBasis:
    """The canonical basis, built and verified once (`_canonical_exact`); on
    the float backend, its rounded copy."""
    if backend not in (EXACT, FLOAT):
        raise DomainError(f"unknown backend: {backend}")
    basis = _canonical_exact()
    return basis if backend == EXACT else basis.to_float()


@cache
def _canonical_exact() -> IdealBasis:
    return idempotent_of(canonical_generators())


# ---- the matrix representation -------------------------------------------


def gamma_of(u: Multivector, basis: IdealBasis) -> tuple:
    """The 4x4 matrix of left multiplication on the ideal basis: entry
    [n][k] is (U t_k, t^n); the upper index enumerates rows.

    gamma(U) = sum_m u_m gamma_m over the blade images gamma_m, checked
    exactly once per exact basis (`_gamma_matrix`).  A float copy sums its
    `rounded_images` over ascending m from 0j and skips a term with a zero
    factor, as the blade products do, so 0 * inf adds no NaN."""
    if u.backend != basis.backend:
        raise BackendMismatchError(f"mixed scalar backends: {u.backend} vs {basis.backend}")
    if basis.backend == EXACT:
        flat = basis.blade_images(numerators(u))
    else:
        live = [(x, image) for x, image in zip(u.coeffs, basis.rounded_images) if x]
        flat = [reduce(add, (x * image[e] for x, image in live if image[e]), 0j)
                for e in range(16)]
    return tuple(tuple(flat[4 * n:4 * n + 4]) for n in range(4))


def _gamma_matrix(u: Multivector, basis: IdealBasis) -> tuple:
    """gamma_of of an exact U: column k holds the components of U t_k, and
    the reconstruction U t_k = sum_n gamma[n][k] t_n is checked exactly."""
    products = [u * tk for tk in basis.ts]
    columns = [basis.project_components(p) for p in products]
    for p, column in zip(products, columns):
        if ideal_from_bispinor(Bispinor(column, EXACT), basis) != p:
            raise ConsistencyError("representation reconstruction failed")
    return tuple(zip(*columns))


def representation_change(s, basis: IdealBasis) -> IdealBasis:
    """Transport the exact ideal basis along a spin element: each t_k moves
    by the sandwich action, which is realized by rebuilding the construction
    from the transported generators and checking the two routes agree."""
    from .spin import sandwich  # spin imports numpy, which the basis alone never needs

    new_gens = transported_generators(s, basis.gens)
    new_basis = idempotent_of(new_gens)
    for tk, new_tk in zip(basis.ts, new_basis.ts):
        if not (sandwich(s, tk) - new_tk).is_zero():
            raise ConsistencyError("transported basis disagrees with rebuilt basis")
    return new_basis


# ---- bispinors and the even-subalgebra bijection --------------------------


@dataclass(frozen=True)
class Bispinor:
    """Column of four complex components."""

    components: tuple[Scalar, Scalar, Scalar, Scalar]
    backend: str


def ideal_from_bispinor(psi: Bispinor, basis: IdealBasis) -> Multivector:
    """theta = psi_k t^k."""
    out = Multivector.zero(basis.backend)
    for c, tk in zip(psi.components, basis.ts):
        out = out + tk.scale(c)
    return out


def bispinor_from_ideal(theta: Multivector, basis: IdealBasis) -> Bispinor:
    """Components (theta, t^k) of an ideal element."""
    if not basis.contains(theta):
        raise DomainError("element does not lie in the left ideal")
    return Bispinor(basis.project_components(theta), basis.backend)


def even_from_ideal(phi: Multivector, basis: IdealBasis) -> Multivector:
    """The unique real even solution Omega of Omega t = phi, which is
    4 <Re phi>_even:

        phi = Omega t = [Omega (1 + H) - i Omega (1 + H) I]/4, with Omega, H, I real;
        so Re phi = (Omega + Omega H)/4;
        Omega H is odd, so <Re phi>_even = Omega/4.
    """
    if not basis.contains(phi):
        raise DomainError("element does not lie in the left ideal")
    return (phi + phi.conjugate()).even_part().scale(2)


def ideal_from_even(omega: Multivector, basis: IdealBasis) -> Multivector:
    """The forward map of the bijection: Omega -> Omega t."""
    return omega * basis.t


def matrix_to_json(mat) -> list:
    """Row-major 4x4 matrix as nested [re, im] pairs."""
    return [[[complex(v).real, complex(v).imag] for v in row] for row in mat]


def bispinor_to_json(psi: Bispinor) -> list:
    return [[complex(v).real, complex(v).imag] for v in psi.components]


def even_ideal_map_rank(basis: IdealBasis) -> int:
    """Rank of Omega -> Omega t restricted to the 8-dimensional real even
    subspace; 8 means the map is injective and the bijection holds."""
    from . import linalg  # linalg imports numpy, which the basis alone never needs

    # one row per even blade, the real and imaginary parts of its image: the
    # transpose of the map's matrix, which has the same rank
    rows = [[x for c in (Multivector.basis(mask, basis.backend) * basis.t).coeffs
             for x in (c.real, c.imag)] for mask in EVEN_MASKS]
    return linalg.rank(rows)
