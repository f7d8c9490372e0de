"""Dense arithmetic for the 16-dimensional spacetime Clifford algebra.

Basis blades are indexed by 4-bit masks: bit mu set means the grade-1
generator along axis mu is a factor, factors ordered by ascending index.
Generator squares follow the signature `ETA` = (+1, -1, -1, -1), the
metric every production module reads (`exterior.METRIC_G` is the
oracle's own copy).  Products are
driven by a 16x16 sign table built once from a transposition-counting
rule; the table itself is cross-checked in the test suite against an
independent adjacent-transposition oracle.

An exact multivector keeps its coefficients in the kernel's numerator
form: Gaussian-integer numerators over one positive denominator, in
lowest terms, so `==` and `hash` compare the form itself.  Sums, scaling,
the blade maps, the zero and reality tests and the products all work on
that form, with one gcd per result; `coeffs`, the `QQi` tuple, is built
once, on first read, for a value made by such an operation.  A value made
from `QQi` coefficients keeps them and gets its form only when an
operation first needs it.  A float multivector holds plain complex
`coeffs`, and its products add the terms in the table order.

The Clifford and exterior products, the scalar part of a product and the
left-regular matrix all go through one `kernel.BladeProduct` per table.
The oracles that check these products (`suites.oracle_blade_product`,
`exterior.clifford_product_via_table`) read only `coeffs` and stay
independent of the kernel.

Text goes one way here: `format_multivector` writes a multivector, and
`multivector_to_json` / `multivector_from_json` give its JSON form.
Reading text is the job of `stada.expr`, the one parser.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import scalars
from .errors import BackendMismatchError, DomainError, InvalidGeneratorError
from .kernel import (
    EVERY_BLADE,
    BladeProduct,
    add_forms,
    coefficients,
    map_form,
    numerator_form,
    scale_form,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi, Scalar

ETA = (1, -1, -1, -1)

GRADE = tuple(mask.bit_count() for mask in range(16))
MASKS_OF_GRADE = tuple(tuple(m for m in range(16) if GRADE[m] == k) for k in range(5))
EVEN_MASKS = tuple(m for m in range(16) if GRADE[m] % 2 == 0)

BLADE_KEYS = tuple("".join(str(mu) for mu in range(4) if mask >> mu & 1) for mask in range(16))

# Reversion sign (-1)^(k(k-1)/2) per grade.
REVERSION_SIGN = (1, 1, -1, -1, 1)

# Blade maps in the (sign, target) format of `exterior.STAR_TABLE`: source
# blade m goes to sign * blade target, and a sign of 0 drops it.  Grade
# filters, parity filters, reversion and the Hodge star are each one map,
# applied by the one `_map_blades` loop of each container.
GRADE_MAPS = tuple(tuple((int(GRADE[m] == k), m) for m in range(16)) for k in range(5))
EVEN_MAP = tuple((int(GRADE[m] % 2 == 0), m) for m in range(16))
ODD_MAP = tuple((int(GRADE[m] % 2 == 1), m) for m in range(16))
REVERSION_MAP = tuple((REVERSION_SIGN[GRADE[m]], m) for m in range(16))

L5_MASK = 0b1111

_ZEROS = (0,) * 16
_QQI_ZERO = scalars.zero(EXACT)


def blade_indices(mask: int) -> tuple[int, ...]:
    return tuple(mu for mu in range(4) if mask >> mu & 1)


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for mu in indices:
        mask |= 1 << mu
    return mask


def _reorder_sign(a: int, b: int) -> int:
    # Parity of the transposition count needed to interleave the ascending
    # index list of b into that of a.
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def blade_clifford(a: int, b: int) -> tuple[int, int]:
    """Clifford product of two basis blades: (sign, result mask)."""
    sign = _reorder_sign(a, b)
    if ((a & b) & 0b1110).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


def blade_wedge(a: int, b: int) -> tuple[int, int]:
    """Exterior product of two basis blades: (sign, mask); sign 0 on overlap."""
    if a & b:
        return 0, 0
    return _reorder_sign(a, b), a | b


CLIFFORD_TABLE = tuple(tuple(blade_clifford(a, b) for b in range(16)) for a in range(16))
WEDGE_TABLE = tuple(tuple(blade_wedge(a, b) for b in range(16)) for a in range(16))

# every product that walks a blade table goes through these two kernels
CLIFFORD = BladeProduct(CLIFFORD_TABLE)
WEDGE = BladeProduct(WEDGE_TABLE)


class Multivector:
    """Immutable element of the (complexified) spacetime algebra.

    `coeffs` is the tuple of 16 coefficients.  An exact value also has a
    numerator form in `_numerators`: None for a value made from `QQi`
    coefficients until `numerators` first builds it, and the only stored
    form of a value made by `from_numerators`, whose `coeffs` is built on
    first read.
    """

    __slots__ = ("coeffs", "backend", "_numerators")

    def __init__(self, coeffs: Sequence[Scalar], backend: str):
        if len(coeffs) != 16:
            raise ValueError("a multivector needs exactly 16 coefficients")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "backend", backend)
        if backend == EXACT:
            object.__setattr__(self, "_numerators", None)

    @classmethod
    def from_numerators(cls, form: tuple, coeffs: tuple | None = None) -> "Multivector":
        """The exact multivector of a numerator form (den, re, im) in lowest
        terms; `coeffs`, when given, must be its QQi tuple."""
        u = object.__new__(cls)
        object.__setattr__(u, "backend", EXACT)
        object.__setattr__(u, "_numerators", form)
        if coeffs is not None:
            object.__setattr__(u, "coeffs", coeffs)
        return u

    def __getattr__(self, name):
        # reached only for an unset slot, which is the `coeffs` of a value
        # made from its numerator form: build the QQi tuple once
        if name != "coeffs":
            raise AttributeError(f"'Multivector' object has no attribute {name!r}")
        coeffs = coefficients(*self._numerators)
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, backend: str = EXACT) -> "Multivector":
        if backend == EXACT:
            return cls.from_numerators((1, _ZEROS, _ZEROS), (_QQI_ZERO,) * 16)
        return cls((scalars.zero(backend),) * 16, backend)

    @classmethod
    def unit(cls, backend: str = EXACT) -> "Multivector":
        return cls.scalar(1, backend)

    @classmethod
    def scalar(cls, value, backend: str = EXACT) -> "Multivector":
        coeffs = [scalars.zero(backend)] * 16
        coeffs[0] = c = scalars.coerce(value, backend)
        if backend == EXACT:
            return cls.from_numerators((c.d, (c.a,) + _ZEROS[1:], (c.b,) + _ZEROS[1:]),
                                       tuple(coeffs))
        return cls(coeffs, backend)

    @classmethod
    def basis(cls, mask: int, backend: str = EXACT) -> "Multivector":
        if not 0 <= mask < 16:
            raise ValueError("blade mask out of range")
        coeffs = [scalars.zero(backend)] * 16
        coeffs[mask] = scalars.one(backend)
        if backend == EXACT:
            re = [0] * 16
            re[mask] = 1
            return cls.from_numerators((1, tuple(re), _ZEROS), tuple(coeffs))
        return cls(coeffs, backend)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, object]], backend: str = EXACT) -> "Multivector":
        coeffs = [scalars.zero(backend)] * 16
        for mask, value in terms:
            c = scalars.coerce(value, backend)
            # an exact zero plus c is c itself; a float 0j + c turns -0.0 into 0.0
            coeffs[mask] = coeffs[mask] + c if coeffs[mask] or backend != EXACT else c
        return cls(coeffs, backend)

    # ---- structure ----------------------------------------------------

    def grades(self) -> set[int]:
        return {GRADE[m] for m, c in enumerate(self.coeffs) if c}

    def _map_blades(self, table, conjugate: bool = False) -> "Multivector":
        """Apply a blade map; with `conjugate`, conjugate the kept coefficients."""
        if self.backend == EXACT:
            return Multivector.from_numerators(map_form(numerators(self), table, conjugate))
        coeffs = [scalars.zero(self.backend)] * 16
        for c, (sign, target) in zip(self.coeffs, table):
            if sign:
                c = c.conjugate() if conjugate else c
                coeffs[target] = c if sign > 0 else -c
        return Multivector(coeffs, self.backend)

    def grade_part(self, k: int) -> "Multivector":
        if not 0 <= k <= 4:
            raise ValueError(f"grade {k} outside 0..4")
        return self._map_blades(GRADE_MAPS[k])

    def even_part(self) -> "Multivector":
        return self._map_blades(EVEN_MAP)

    def odd_part(self) -> "Multivector":
        return self._map_blades(ODD_MAP)

    def is_zero(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.backend == EXACT:
            _, re, im = numerators(self)
            return re == _ZEROS and im == _ZEROS
        return all(scalars.is_zero(c, tol) for c in self.coeffs)

    def is_real(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.backend == EXACT:
            return numerators(self)[2] == _ZEROS
        return all(abs(c.imag) <= tol for c in self.coeffs)

    def is_homogeneous(self, k: int) -> bool:
        return all(scalars.is_zero(c) for m, c in enumerate(self.coeffs) if GRADE[m] != k)

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"mixed scalar backends: {self.backend} vs {other.backend}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        if self.backend == EXACT:
            return Multivector.from_numerators(add_forms(numerators(self), numerators(other)))
        return Multivector([x + y for x, y in zip(self.coeffs, other.coeffs)], self.backend)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        if self.backend == EXACT:
            return Multivector.from_numerators(add_forms(numerators(self), numerators(other), -1))
        return Multivector([x - y for x, y in zip(self.coeffs, other.coeffs)], self.backend)

    def __neg__(self) -> "Multivector":
        if self.backend == EXACT:
            den, re, im = numerators(self)
            return Multivector.from_numerators(
                (den, tuple([-x for x in re]), tuple([-y for y in im])))
        return Multivector([-c for c in self.coeffs], self.backend)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return clifford_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # Scalars commute with everything.
        return self.scale(other)

    def __xor__(self, other: "Multivector") -> "Multivector":
        return exterior_product(self, other)

    def scale(self, value) -> "Multivector":
        s = scalars.coerce(value, self.backend)
        if self.backend == EXACT:
            return Multivector.from_numerators(scale_form(numerators(self), s))
        return Multivector([c * s for c in self.coeffs], self.backend)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.backend != other.backend:
            return False
        # two values made from QQi coefficients compare them without a form
        if self.backend == EXACT and (self._numerators is not None
                                      or other._numerators is not None):
            return numerators(self) == numerators(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.backend == EXACT:
            return hash((self.backend, numerators(self)))
        return hash((self.backend, self.coeffs))

    def isclose(self, other: "Multivector", tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.backend == EXACT and other.backend == EXACT:
            return numerators(self) == numerators(other)
        return all(scalars.close(x, y, tol) for x, y in zip(self.coeffs, other.coeffs))

    def max_abs(self) -> float:
        """The largest coefficient modulus, NaN if one is NaN, inf where a
        finite coefficient's modulus is beyond the float range
        (`scalars.modulus`).  A float multivector takes the builtin abs of
        every coefficient in one map, and the per-coefficient rule only
        where abs raises."""
        if self.backend != EXACT:
            try:
                return scalars.nan_max(*map(abs, self.coeffs))
            except OverflowError:
                pass
        return scalars.nan_max(*map(scalars.modulus, self.coeffs))

    # ---- involutions and traces ----------------------------------------

    def star(self) -> "Multivector":
        """Reversion combined with complex conjugation of the coefficients."""
        return self._map_blades(REVERSION_MAP, conjugate=True)

    def conjugate(self) -> "Multivector":
        return Multivector([c.conjugate() for c in self.coeffs], self.backend)

    def trace(self) -> Scalar:
        """The unit-blade coefficient.

        This is the algebra trace normalized by Tr(unit) = 1; the 4x4 matrix
        image of an element carries four times this value as its matrix trace.
        """
        return self.coeffs[0]

    # ---- conversion and rendering ---------------------------------------

    def to_float(self) -> "Multivector":
        if self.backend == FLOAT:
            return self
        return Multivector([complex(c) for c in self.coeffs], FLOAT)

    def __repr__(self):
        return f"Multivector({format_multivector(self)!r}, backend={self.backend!r})"

    def __str__(self):
        return format_multivector(self)


def numerators(u: Multivector) -> tuple:
    """The numerator form (den, re, im) of an exact multivector, built once
    from the QQi coefficients of a value made from them."""
    form = u._numerators
    if form is None:
        form = numerator_form(u.coeffs)
        object.__setattr__(u, "_numerators", form)
    return form


def basis_vector(mu: int, backend: str = EXACT) -> Multivector:
    if not 0 <= mu <= 3:
        raise ValueError("axis index outside 0..3")
    return Multivector.basis(1 << mu, backend)


def l5(backend: str = EXACT) -> Multivector:
    """The grade-4 pseudoscalar, the product of all four generators."""
    return Multivector.basis(L5_MASK, backend)


def clifford_product(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    if a.backend == EXACT:
        return Multivector.from_numerators(CLIFFORD.exact(numerators(a), numerators(b)))
    return Multivector(CLIFFORD.generic(a.coeffs, b.coeffs, 0j), a.backend)


def exterior_product(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    if a.backend == EXACT:
        return Multivector.from_numerators(WEDGE.exact(numerators(a), numerators(b)))
    return Multivector(WEDGE.generic(a.coeffs, b.coeffs, 0j), a.backend)


def scalar_part_of_product(a: Multivector, b: Multivector) -> Scalar:
    """Unit-blade coefficient of a*b without forming the full product."""
    a._check(b)
    if a.backend == EXACT:
        re, im, den = CLIFFORD.exact_scalar_part(numerators(a), numerators(b))
        return QQi(re, im, den) if re or im else _QQI_ZERO
    return CLIFFORD.scalar_part(a.coeffs, b.coeffs)


def commutator(a: Multivector, b: Multivector) -> Multivector:
    return clifford_product(a, b) - clifford_product(b, a)


def anticommutator(a: Multivector, b: Multivector) -> Multivector:
    return clifford_product(a, b) + clifford_product(b, a)


def require_unit_square(h: Multivector) -> None:
    """Refuse an exact H whose square is not the unit, and a float H whose
    square differs from it by more than `DEFAULT_TOLERANCE` plus the rounding
    bound of H*H: each coefficient sums 16 complex products, so
    (16 + 2) u (sum |h_i|)^2 with u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.1).  A float H whose bound is
    not finite is refused."""
    tol = DEFAULT_TOLERANCE
    if h.backend != EXACT:
        size = sum(map(scalars.modulus, h.coeffs))
        tol += 18 * 2.0 ** -53 * size * size  # inf, where ** would raise, once it overflows
    if not (tol < math.inf and clifford_product(h, h).isclose(Multivector.unit(h.backend), tol)):
        raise InvalidGeneratorError("hermitian conjugation needs H with H*H = unit")


def hermitian_conjugate(u: Multivector, h: Multivector) -> Multivector:
    """H * U^star * H for an element H with H*H equal to the unit."""
    require_unit_square(h)
    return clifford_product(clifford_product(h, u.star()), h)


def left_matrix(u: Multivector) -> list[list[Scalar]]:
    """16x16 matrix of left multiplication by u acting on coefficient vectors."""
    zero = scalars.zero(u.backend)
    rows = [[zero] * 16 for _ in range(16)]
    coeffs = u.coeffs
    # each entry is c or -c, as one product term lands on each
    negated = [-c if c else c for c in coeffs]
    for i, j, sign, mask in CLIFFORD.live_terms(coeffs, EVERY_BLADE):
        rows[mask][j] = coeffs[i] if sign > 0 else negated[i]
    return rows


def inverse(u: Multivector) -> Multivector:
    """Inverse through the left-regular 16x16 linear system."""
    from . import linalg

    rhs = [scalars.zero(u.backend)] * 16
    rhs[0] = scalars.one(u.backend)
    sol = linalg.solve(left_matrix(u), rhs)
    if sol is None:
        raise ZeroDivisionError("multivector is not invertible")
    return Multivector(sol, u.backend)


# ---- text and JSON representations --------------------------------------


def _format_real(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def _format_scalar(c: Scalar) -> tuple[str, bool]:
    """Render one coefficient; the flag says whether it is negative-real-like."""
    if isinstance(c, QQi):
        if c.is_real():
            r = c.real
            return _format_real(abs(r)), r < 0
        re_s = _format_real(c.real)
        im = c.imag
        im_s = _format_real(abs(im))
        op = "+" if im >= 0 else "-"
        return f"({re_s}{op}{im_s}i)", False
    if abs(c.imag) == 0.0:
        return _format_real(abs(c.real)), c.real < 0
    op = "+" if c.imag >= 0 else "-"
    return f"({_format_real(c.real)}{op}{_format_real(abs(c.imag))}i)", False


def format_multivector(u: Multivector, basis: str = "e") -> str:
    if basis not in ("e", "l"):
        raise ValueError("basis symbol must be 'e' or 'l'")
    parts: list[str] = []
    for mask in range(16):
        c = u.coeffs[mask]
        if not c:
            continue
        body, negative = _format_scalar(c)
        blade = "" if mask == 0 else basis + BLADE_KEYS[mask]
        if mask != 0 and body == "1":
            body = ""
        text = f"{body} {blade}".strip()
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    if not parts:
        return "0"
    return " ".join(parts)


def multivector_to_json(u: Multivector) -> dict:
    out = {}
    for mask in range(16):
        c = u.coeffs[mask]
        if isinstance(c, QQi):
            out[BLADE_KEYS[mask]] = [str(c.real), str(c.imag)]
        else:
            out[BLADE_KEYS[mask]] = [c.real, c.imag]
    return out


def multivector_from_json(data: dict) -> Multivector:
    """Inverse of multivector_to_json: an object from blade keys ("" for the
    scalar, else strictly increasing digits 0-3) to [re, im] pairs."""
    if not isinstance(data, dict) or not all(
            key in BLADE_KEYS and isinstance(v, list) and len(v) == 2
            for key, v in data.items()):
        raise DomainError('a multivector is an object from blade keys such as "013" '
                          "to [re, im] pairs")
    backend = EXACT if any(isinstance(v[0], str) for v in data.values()) else FLOAT
    coeffs = [scalars.zero(backend)] * 16
    for key, (re_v, im_v) in data.items():
        try:
            if backend == EXACT:
                c = QQi.from_rational(Fraction(re_v), Fraction(im_v))
            else:
                c = complex(float(re_v), float(im_v))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"bad coefficient for blade {key!r}: {exc}") from None
        coeffs[BLADE_KEYS.index(key)] = c
    return Multivector(coeffs, backend)
