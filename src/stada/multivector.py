"""Dense arithmetic for the 16-dimensional spacetime Clifford algebra.

Basis blades are indexed by 4-bit masks: bit mu set means the grade-1
generator along axis mu is a factor, factors ordered by ascending index.
Generator squares follow the signature `ETA` = (+1, -1, -1, -1), the
metric every production module reads (`exterior.METRIC_G` is the
oracle's own copy).  Products are
driven by a 16x16 sign table built once from a transposition-counting
rule; the table itself is cross-checked in the test suite against an
independent adjacent-transposition oracle.

The Clifford and exterior products, the scalar part of a product and the
left-regular matrix all go through one `kernel.BladeProduct` per table.
On the exact backend it puts each operand over a shared denominator,
sums Gaussian-integer numerators per output blade, and normalises each
output coefficient once, so the coefficients equal term-by-term `QQi`
arithmetic exactly.  Float products add the terms in the table order.
The oracles that check these products (`suites.oracle_blade_product`,
`exterior.clifford_product_via_table`) stay independent of the kernel.

Text goes one way here: `format_multivector` writes a multivector, and
`multivector_to_json` / `multivector_from_json` give its JSON form.
Reading text is the job of `stada.expr`, the one parser.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import scalars
from .errors import BackendMismatchError, DomainError, InvalidGeneratorError
from .kernel import EVERY_BLADE, BladeProduct
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
    """Immutable element of the (complexified) spacetime algebra."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Sequence[Scalar], backend: str):
        if len(coeffs) != 16:
            raise ValueError("a multivector needs exactly 16 coefficients")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, backend: str = EXACT) -> "Multivector":
        return cls((scalars.zero(backend),) * 16, backend)

    @classmethod
    def unit(cls, backend: str = EXACT) -> "Multivector":
        return cls.scalar(1, backend)

    @classmethod
    def scalar(cls, value, backend: str = EXACT) -> "Multivector":
        coeffs = [scalars.zero(backend)] * 16
        coeffs[0] = scalars.coerce(value, backend)
        return cls(coeffs, backend)

    @classmethod
    def basis(cls, mask: int, backend: str = EXACT) -> "Multivector":
        if not 0 <= mask < 16:
            raise ValueError("blade mask out of range")
        coeffs = [scalars.zero(backend)] * 16
        coeffs[mask] = scalars.one(backend)
        return cls(coeffs, backend)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, object]], backend: str = EXACT) -> "Multivector":
        coeffs = [scalars.zero(backend)] * 16
        for mask, value in terms:
            coeffs[mask] = coeffs[mask] + scalars.coerce(value, backend)
        return cls(coeffs, backend)

    # ---- structure ----------------------------------------------------

    def grades(self) -> set[int]:
        return {GRADE[m] for m, c in enumerate(self.coeffs) if c}

    def _map_blades(self, table, conjugate: bool = False) -> "Multivector":
        """Apply a blade map; with `conjugate`, conjugate the kept coefficients."""
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
        return all(scalars.is_zero(c, tol) for c in self.coeffs)

    def is_real(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.backend == EXACT:
            return all(c.is_real() for c in self.coeffs)
        return all(abs(c.imag) <= tol for c in self.coeffs)

    def is_homogeneous(self, k: int, tol: float = DEFAULT_TOLERANCE) -> bool:
        return all(scalars.is_zero(c, tol) for m, c in enumerate(self.coeffs) if GRADE[m] != k)

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"mixed scalar backends: {self.backend} vs {other.backend}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector([x + y for x, y in zip(self.coeffs, other.coeffs)], self.backend)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector([x - y for x, y in zip(self.coeffs, other.coeffs)], self.backend)

    def __neg__(self) -> "Multivector":
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
        return Multivector([c * s for c in self.coeffs], self.backend)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    def isclose(self, other: "Multivector", tol: float = DEFAULT_TOLERANCE) -> bool:
        return all(scalars.close(x, y, tol) for x, y in zip(self.coeffs, other.coeffs))

    def max_abs(self) -> float:
        return scalars.nan_max(*(abs(scalars.to_complex(c)) for c in self.coeffs))

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


def basis_vector(mu: int, backend: str = EXACT) -> Multivector:
    if not 0 <= mu <= 3:
        raise ValueError("axis index outside 0..3")
    return Multivector.basis(1 << mu, backend)


def l5(backend: str = EXACT) -> Multivector:
    """The grade-4 pseudoscalar, the product of all four generators."""
    return Multivector.basis(L5_MASK, backend)


def clifford_product(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    return Multivector(CLIFFORD.product(a.coeffs, b.coeffs, a.backend), a.backend)


def exterior_product(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    return Multivector(WEDGE.product(a.coeffs, b.coeffs, a.backend), a.backend)


def scalar_part_of_product(a: Multivector, b: Multivector) -> Scalar:
    """Unit-blade coefficient of a*b without forming the full product."""
    a._check(b)
    return CLIFFORD.scalar_part(a.coeffs, b.coeffs, a.backend)


def commutator(a: Multivector, b: Multivector) -> Multivector:
    return clifford_product(a, b) - clifford_product(b, a)


def anticommutator(a: Multivector, b: Multivector) -> Multivector:
    return clifford_product(a, b) + clifford_product(b, a)


def require_unit_square(h: Multivector, tol: float = DEFAULT_TOLERANCE) -> None:
    """Refuse an H whose square differs from the unit by more than `tol`."""
    if not clifford_product(h, h).isclose(Multivector.unit(h.backend), tol):
        raise InvalidGeneratorError("hermitian conjugation needs H with H*H = unit")


def hermitian_conjugate(u: Multivector, h: Multivector,
                        tol: float = DEFAULT_TOLERANCE) -> Multivector:
    """H * U^star * H for an element H with H*H equal to the unit."""
    require_unit_square(h, tol)
    return clifford_product(clifford_product(h, u.star()), h)


def left_matrix(u: Multivector) -> list[list[Scalar]]:
    """16x16 matrix of left multiplication by u acting on coefficient vectors."""
    zero = scalars.zero(u.backend)
    rows = [[zero] * 16 for _ in range(16)]
    for i, j, sign, mask in CLIFFORD.live_terms(u.coeffs, EVERY_BLADE):
        c = u.coeffs[i]
        rows[mask][j] = zero + c if sign > 0 else zero - c
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
