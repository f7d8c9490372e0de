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

Both backends store a field in one format: each phase term is one
blade-sparse map from packed keys, monomial << 4 | blade with 16 bits per
exponent, to numerator pairs over one shared denominator, and the term is
keyed by its phase in the same (monomial, numerator, denominator) form, so
`==` compares that form.  An exact field holds Gaussian-integer numerators
brought to lowest terms with one gcd per output term; a float field holds
float (re, im) pairs over the denominator 1.  Zero entries and empty terms
are dropped on both.  Every operation is written once, for both backends;
an exact operation works in plain integers and builds no `QQi`, and no
operation builds a `Poly`.  `Poly` is the type of phases given to the
constructors and of the read-back `terms` (and `phase_polys`), built on
first read; `eval_points`, `max_abs` and `to_float` read the packed form.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

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
    numerators,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi

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


# 1/2 and -i/2, built once: the float backend converts them without building a QQi
_HALF = QQi(1, 0, 2)
_MINUS_HALF_I = QQi(0, -1, 2)

# per blade, the blade map that moves its coefficient onto the unit blade
_COMPONENT_MAPS = tuple(tuple((int(m == mask), 0) for m in range(16)) for mask in range(16))


# ---- the term format -----------------------------------------------------------
#
# A field maps each phase to one term (den, entries): entries[key] = (re, im)
# means the coefficient (re + i*im)/den on blade key & 15 times the monomial
# whose exponent mu sits in bits 4 + 16*mu of the key.  Stored exponents stay
# below 2**15, so adding the keys of two monomials multiplies them without a
# carry and the top bit of each exponent flags an overflow.  The phase itself
# is its key: the sorted tuple of (monomial key bits, numerator, denominator)
# of its nonzero real coefficients.  On the exact backend the numerators are
# integers; on the float backend they are floats over the denominator 1, so
# every helper below serves both, and a float term sums in the order an exact
# one does.

_EXP_SHIFTS = (4, 20, 36, 52)
_EXP_LIMIT = 1 << 15
_EXP_HIGH = sum(1 << (shift + 15) for shift in _EXP_SHIFTS)
_MONOMIAL = -16  # the key bits above the blade


def pack_monomial(exps: Exps) -> int:
    """The key bits of a monomial, with the blade bits zero."""
    key = 0
    for shift, e in zip(_EXP_SHIFTS, exps):
        if not 0 <= e < _EXP_LIMIT:
            raise DomainError(f"monomial exponent {e} outside 0..{_EXP_LIMIT - 1}")
        key |= e << shift
    return key


def _exponents(key: int) -> Exps:
    return tuple(key >> shift & 0xFFFF for shift in _EXP_SHIFTS)


def complex_times(a, b):
    """a * b on complex arrays as Python multiplies complex numbers; a float
    b is b + 0j, so an infinite part of a meets 0.0 and gives NaN."""
    return complex_from_parts(a.real * b.real - a.imag * b.imag,
                              a.real * b.imag + a.imag * b.real)


def complex_from_parts(re, im):
    """The complex array with these parts, set rather than computed, so an
    infinite part or a -0.0 stays as it is."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _checked(entries: dict) -> dict:
    """The entries, refused if a monomial product overflowed an exponent."""
    if entries and functools.reduce(operator.or_, entries) & _EXP_HIGH:
        raise DomainError(f"a monomial exponent exceeds {_EXP_LIMIT - 1}")
    return entries


def scalar_parts(value, backend: str) -> tuple:
    """(re, im, den) of a scalar in the term format of the backend: float
    parts over 1, or Gaussian-integer numerators of a QQi, an int or a
    Fraction."""
    if backend == FLOAT:
        z = complex(value)
        return z.real, z.imag, 1
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    # a QQi comes back as itself; coerce refuses every other value
    c = scalars.coerce(value, EXACT)
    return c.a, c.b, c.d


def _numerator_form(mv: Multivector) -> tuple:
    """(den, re, im) of a multivector in the term format of its backend."""
    if mv.backend == EXACT:
        return numerators(mv)
    coeffs = [complex(c) for c in mv.coeffs]
    return 1, tuple(z.real for z in coeffs), tuple(z.imag for z in coeffs)


def phase_key(phase: Poly, backend: str) -> tuple:
    """The key of a real phase polynomial in a field of the backend."""
    out = []
    for exps, c in phase.terms.items():
        if backend == EXACT:
            c = Fraction(c)
            n, d = c.numerator, c.denominator
        else:
            n, d = float(c), 1
        out.append((pack_monomial(exps), n, d))
    return tuple(sorted(out))


def phase_poly(key: tuple) -> Poly:
    """The phase polynomial of a key: Fraction coefficients for integer
    numerators, float ones for float numerators."""
    return Poly({_exponents(mono): n if isinstance(n, float) else Fraction(n, d)
                 for mono, n, d in key})


def _phase_sum(a: tuple, b: tuple) -> tuple:
    """The key of the sum of the phases with keys a and b."""
    if not (a and b):
        return a or b
    acc = {mono: (n, d) for mono, n, d in a}
    for mono, n, d in b:
        if mono in acc:
            n0, d0 = acc[mono]
            n, d = n0 * d + n * d0, d0 * d
            if d != 1:
                g = math.gcd(n, d)
                n, d = n // g, d // g
        acc[mono] = (n, d)
    return tuple(sorted((mono, n, d) for mono, (n, d) in acc.items() if n))


def term_lowest(den: int, entries: dict) -> tuple | None:
    """(den, entries) without zero entries, divided by the gcd of den and
    every numerator; None when no entry is left."""
    live = entries
    if (0, 0) in entries.values():
        live = {k: v for k, v in entries.items() if v != (0, 0)}
    if not live:
        return None
    g = den if den == 1 else math.gcd(den, *itertools.chain.from_iterable(live.values()))
    if g == 1:
        return den, live
    return den // g, {k: (r // g, s // g) for k, (r, s) in live.items()}


def term_form(coeffs, backend: str) -> tuple:
    """(den, entries), not reduced, of 16 coefficient polynomials."""
    parts = []
    den = 1
    for blade, q in enumerate(coeffs):
        for exps, c in q.terms.items():
            re, im, d = scalar_parts(c, backend)
            parts.append((pack_monomial(exps) | blade, re, im, d))
            if d != 1:
                den = math.lcm(den, d)
    return den, {key: (re * (den // d), im * (den // d)) for key, re, im, d in parts}


def term_polys(den: int, entries: dict, backend: str) -> tuple:
    """The 16 coefficient polynomials of a term, with normalised QQi or
    complex coefficients, each listing its monomials in ascending key order
    whatever the history of the term."""
    polys = [{} for _ in range(16)]
    for key, (re, im) in sorted(entries.items()):
        polys[key & 15][_exponents(key)] = (QQi(re, im, den) if backend == EXACT
                                            else complex(re, im))
    return tuple(Poly(p) for p in polys)


def _negated(entries: dict) -> dict:
    return {k: (-r, -s) for k, (r, s) in entries.items()}


def _term_sum(da: int, ea: dict, db: int, eb: dict) -> tuple:
    """(den, entries) of a + b, not reduced."""
    if da == db:
        fa = fb = 1
    else:
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
    acc = dict(ea) if fa == 1 else {k: (r * fa, s * fa) for k, (r, s) in ea.items()}
    for k, (r, s) in eb.items():
        o = acc.get(k)
        acc[k] = (r * fb, s * fb) if o is None else (o[0] + r * fb, o[1] + s * fb)
    return da * fa, acc


def _collected(pieces) -> dict:
    """The terms of a sum of terms (phase key, den, entries), merged by phase
    in the order of first occurrence, each in lowest terms."""
    groups: dict[tuple, tuple] = {}
    for key, den, entries in pieces:
        if key in groups:
            groups[key] = _term_sum(*groups[key], den, entries)
        else:
            groups[key] = (den, entries)
    out = {}
    for key, (den, entries) in groups.items():
        form = term_lowest(den, entries)
        if form:
            out[key] = form
    return out


def _term_partial(phase: tuple, den: int, entries: dict, mu: int) -> tuple:
    """(den, entries) of d/dx^mu of one term, phase chain rule included.

    The power rule multiplies a coefficient by (e, 0) and the chain rule by
    i*c = (0, c), each written as the full complex product (r + i*s)(a + i*b),
    so float parts keep the signed zeros of Python's complex arithmetic."""
    shift = _EXP_SHIFTS[mu]
    step = 1 << shift
    # the phase derivative: (monomial, numerator, denominator) per term
    chain = [(mono - step, n * (mono >> shift & 0xFFFF), d)
             for mono, n, d in phase if mono >> shift & 0xFFFF]
    cden = math.lcm(*(d for _, _, d in chain)) if chain else 1
    acc = {}
    for k, (r, s) in entries.items():
        e = k >> shift & 0xFFFF
        if e:
            e *= cden
            acc[k - step] = (r * e - s * 0, r * 0 + s * e)
    for mono, n, d in chain:
        c = n * (cden // d)
        for k, (r, s) in entries.items():
            k += mono
            re = r * 0 - s * c
            im = r * c + s * 0
            o = acc.get(k)
            acc[k] = (re, im) if o is None else (o[0] + re, o[1] + im)
    return den * cden, _checked(acc) if chain else acc


def _blade_mapped(entries: dict, table) -> dict:
    """The entries under a blade map in the (sign, target) format of
    `exterior.STAR_TABLE`: each numerator pair moves, negated for sign -1,
    with no arithmetic, so float signed zeros are kept."""
    out = {}
    for k, (r, s) in entries.items():
        sign, target = table[k & 15]
        if sign:
            out[k & _MONOMIAL | target] = (r, s) if sign > 0 else (-r, -s)
    return out


def _term_slot_map(den: int, entries: dict, cols, cden: int) -> tuple:
    """(den, entries) of a blade-axis linear map applied to one term; cols[b]
    lists (target, sign, re, im), the image of blade b, sign times numerators
    over cden.  The sign is applied after the product, as in
    `BladeProduct.sparse`, so float results keep its signed zeros."""
    acc = {}
    for k, (r, s) in entries.items():
        base = k & _MONOMIAL
        for target, sign, cr, ci in cols[k & 15]:
            nk = base | target
            re = r * cr - s * ci
            im = r * ci + s * cr
            if sign < 0:
                re, im = -re, -im
            o = acc.get(nk)
            acc[nk] = (re, im) if o is None else (o[0] + re, o[1] + im)
    return den * cden, acc


def _poly_times_line(poly: dict, line: dict) -> dict:
    out = {}
    for ka, ca in poly.items():
        for kb, cb in line.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return _checked(out)


def _term_compose(den: int, entries: dict, lines, scale: int) -> tuple:
    """(den, entries) of one term after x_mu = lines[mu] / scale, where each
    line maps monomial key bits to coefficients."""
    expanded = {}
    for k in entries:
        mono = k & _MONOMIAL
        if mono not in expanded:
            poly = {0: 1}
            degree = 0
            for mu, e in enumerate(_exponents(mono)):
                for _ in range(e):
                    poly = _poly_times_line(poly, lines[mu])
                degree += e
            expanded[mono] = (degree, poly)
    top = max(degree for degree, _ in expanded.values())
    acc = {}
    for k, (r, s) in entries.items():
        degree, poly = expanded[k & _MONOMIAL]
        f = scale ** (top - degree)
        for mono, c in poly.items():
            c *= f
            nk = mono | (k & 15)
            o = acc.get(nk)
            acc[nk] = (r * c, s * c) if o is None else (o[0] + r * c, o[1] + s * c)
    return den * scale ** top, acc


def _phase_compose(key: tuple, lines, scale: int) -> tuple:
    """The key of a phase after x_mu = lines[mu] / scale, the phase taken
    as a term on the unit blade."""
    if not key:
        return key
    den = math.lcm(*(d for _, _, d in key))
    den, acc = _term_compose(den, {mono: (n * (den // d), 0) for mono, n, d in key},
                             lines, scale)
    out = []
    for mono, (n, _) in sorted(acc.items()):
        if n:
            d = den
            if d != 1:
                g = math.gcd(n, d)
                n, d = n // g, d // g
            out.append((mono, n, d))
    return tuple(out)


class AnalyticField:
    """Finite sum of blade-valued polynomial terms carrying polynomial phases.

    Treat instances as immutable; all operations return new fields.  Every
    field holds `_forms`, phase key -> (den, entries) in the term format of
    its backend, and each operation is written once, for both backends.
    `terms`, phase key -> (phase, 16 coefficient polynomials), is only the
    read-back, built on first read.
    """

    __slots__ = ("backend", "terms", "_forms")

    def __init__(self, backend: str,
                 terms: Iterable[tuple[Poly, Iterable[Poly]]] = ()):
        self.backend = backend
        pieces = []
        for phase, coeffs in terms:
            coeffs = list(coeffs)
            if len(coeffs) != 16:
                raise ValueError("a field term needs 16 coefficient polynomials")
            pieces.append((phase_key(phase, backend), *term_form(coeffs, backend)))
        self._forms = _collected(pieces)

    @classmethod
    def from_forms(cls, forms: dict, backend: str) -> "AnalyticField":
        """The field of terms already in the term format of the backend."""
        f = object.__new__(cls)
        f.backend = backend
        f._forms = forms
        return f

    def _with(self, forms: dict) -> "AnalyticField":
        return AnalyticField.from_forms(forms, self.backend)

    def __getattr__(self, name):
        # reached only for the unset `terms` slot: build the read-back once
        if name != "terms":
            raise AttributeError(f"'AnalyticField' object has no attribute {name!r}")
        terms = {}
        for key, (den, entries) in self._forms.items():
            phase = phase_poly(key)
            terms[phase.key()] = (phase, term_polys(den, entries, self.backend))
        self.terms = terms
        return terms

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, backend: str = FLOAT) -> "AnalyticField":
        return cls(backend)

    @classmethod
    def _of_multivector(cls, mv: Multivector, phase: Poly,
                        exps: Exps = _ZERO_EXPS) -> "AnalyticField":
        """mv times one monomial, on one phase."""
        den, re, im = _numerator_form(mv)
        mono = pack_monomial(exps)
        entries = {mono | m: (r, s) for m, (r, s) in enumerate(zip(re, im)) if r or s}
        return cls.from_forms({phase_key(phase, mv.backend): (den, entries)} if entries else {},
                              mv.backend)

    @classmethod
    def constant(cls, mv: Multivector) -> "AnalyticField":
        return cls._of_multivector(mv, Poly())

    @classmethod
    def monomial(cls, mv: Multivector, exps: Exps) -> "AnalyticField":
        return cls._of_multivector(mv, Poly(), exps)

    @classmethod
    def plane_wave(cls, mv: Multivector, wave) -> "AnalyticField":
        """mv * exp(i * sum_mu wave[mu] x^mu)."""
        entries = {tuple(int(i == mu) for i in range(4)): wave[mu]
                   for mu in range(4) if wave[mu]}
        return cls._of_multivector(mv, real_polynomial(entries, mv.backend))

    @classmethod
    def scalar_poly(cls, poly: Poly, backend: str) -> "AnalyticField":
        coeffs = [poly if m == 0 else Poly() for m in range(16)]
        return cls(backend, [(Poly(), coeffs)])

    # ---- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._forms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnalyticField):
            return NotImplemented
        return self.backend == other.backend and self._forms == other._forms

    def __hash__(self):
        raise TypeError("AnalyticField is not hashable")

    def grades(self) -> set[int]:
        out = set()
        for _, entries in self._forms.values():
            out.update(GRADE[k & 15] for k in entries)
        return out

    def _termwise(self, op) -> "AnalyticField":
        """The field with each term replaced by op(phase key, den, entries),
        a (den, entries) on the same phase, brought to lowest terms."""
        forms = {}
        for key, (den, entries) in self._forms.items():
            form = term_lowest(*op(key, den, entries))
            if form:
                forms[key] = form
        return self._with(forms)

    def _slot_mapped(self, cols, cden: int) -> "AnalyticField":
        """The field under a blade-axis linear map, in the column format of
        `_term_slot_map`."""
        return self._termwise(lambda _, den, entries: _term_slot_map(den, entries, cols, cden))

    def _map_blades(self, table, conjugate: bool = False) -> "AnalyticField":
        """Apply a blade map to every term, moving and negating numerators;
        with `conjugate`, also conjugate the coefficients and negate the
        phases."""
        field = self.conjugate() if conjugate else self
        return field._termwise(lambda _, den, entries: (den, _blade_mapped(entries, table)))

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
        parts = [[scalar_parts(rows[i][j], self.backend) for i in range(16)] for j in range(16)]
        cden = math.lcm(*(d for col in parts for _, _, d in col))
        return self._slot_mapped([[(i, 1, re * (cden // d), im * (cden // d))
                                   for i, (re, im, d) in enumerate(col) if re or im]
                                  for col in parts], cden)

    def phase_polys(self) -> list[Poly]:
        return [phase_poly(key) for key in self._forms]

    # ---- linear operations --------------------------------------------------

    def _check(self, other: "AnalyticField") -> None:
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"mixed scalar backends: {self.backend} vs {other.backend}")

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        self._check(other)
        return self._with(_collected(
            (key, *form) for key, form in [*self._forms.items(), *other._forms.items()]))

    def __sub__(self, other: "AnalyticField") -> "AnalyticField":
        return self + (-other)

    def __neg__(self) -> "AnalyticField":
        return self._with({key: (den, _negated(entries))
                           for key, (den, entries) in self._forms.items()})

    def scale(self, value) -> "AnalyticField":
        p, q, d = scalar_parts(value, self.backend)
        if not (p or q):
            return AnalyticField.zero(self.backend)
        return self._slot_mapped([[(b, 1, p, q)] for b in range(16)], d)

    # ---- involutions ---------------------------------------------------------

    def conjugate(self) -> "AnalyticField":
        """Complex conjugation: conjugate coefficients, negate phases."""
        return self._with({
            tuple((mono, -n, d) for mono, n, d in key):
                (den, {k: (r, -s) for k, (r, s) in entries.items()})
            for key, (den, entries) in self._forms.items()})

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
        return self._termwise(lambda key, den, entries: _term_partial(key, den, entries, mu))

    def multiply_phase(self, lam: Poly) -> "AnalyticField":
        """Multiply by exp(i * lam) for a real polynomial lam."""
        lam_key = phase_key(lam, self.backend)
        return self._with(_collected((_phase_sum(key, lam_key), den, entries)
                                     for key, (den, entries) in self._forms.items()))

    def compose_linear(self, matrix) -> "AnalyticField":
        """Substitute x = matrix . y in every polynomial and phase."""
        exact = self.backend == EXACT
        rmat = [[Fraction(v) if exact else float(v) for v in row] for row in matrix]
        scale = math.lcm(*(v.denominator for row in rmat for v in row)) if exact else 1
        lines = [{pack_monomial(tuple(int(i == nu) for i in range(4))):
                  int(v * scale) if exact else v for nu, v in enumerate(row) if v}
                 for row in rmat]
        return self._with(_collected(
            (_phase_compose(key, lines, scale), *_term_compose(den, entries, lines, scale))
            for key, (den, entries) in self._forms.items()))

    # ---- products ---------------------------------------------------------------

    def _blade_mul(self, other: "AnalyticField", kind: BladeProduct) -> "AnalyticField":
        self._check(other)
        return self._with(_collected(
            (_phase_sum(pa, pb), da * db, _checked(kind.sparse(ea, eb)))
            for pa, (da, ea) in self._forms.items()
            for pb, (db, eb) in other._forms.items()))

    def clifford(self, other: "AnalyticField") -> "AnalyticField":
        return self._blade_mul(other, CLIFFORD)

    def wedge(self, other: "AnalyticField") -> "AnalyticField":
        return self._blade_mul(other, WEDGE)

    def mul_const(self, mv: Multivector, side: str = "right",
                  product: BladeProduct = CLIFFORD) -> "AnalyticField":
        """Multiply by the constant mv, on the given side, under the given
        product: the field product with the constant field of mv, one
        `BladeProduct.sparse` per term, so its coefficients equal that
        product's bit for bit."""
        self._check(mv)
        den, re, im = _numerator_form(mv)
        const = {m: (r, s) for m, (r, s) in enumerate(zip(re, im)) if r or s}
        return self._termwise(lambda _, d, entries: (
            d * den, product.sparse(entries, const) if side == "right"
            else product.sparse(const, entries)))

    def scalar_part_of_mul(self, mv: Multivector) -> "AnalyticField":
        """The unit-blade part of the Clifford product self * mv, forming only
        the terms that land on the unit blade, in the order of mul_const."""
        self._check(mv)
        den, re, im = _numerator_form(mv)
        cols = [[] for _ in range(16)]
        for i, j, sign in CLIFFORD.scalar_terms:
            if re[j] or im[j]:
                cols[i].append((0, sign, re[j], im[j]))
        return self._slot_mapped(cols, den)

    # ---- evaluation ----------------------------------------------------------------

    def eval(self, x) -> Multivector:
        """Value at one point: the one-point case of `eval_points`."""
        return Multivector(self.eval_points([x])[:, 0].tolist(), FLOAT)

    def eval_points(self, points):
        """Values at a sequence of points, on the float backend: a complex
        array of shape (16, number of points), one column per point.  Per
        term, the phase factor is cmath.exp(1j * phase); each blade sums its
        monomials from 0j in ascending key order, each complex(re/den, im/den)
        times x[mu] ** e axis by axis, and adds that sum times the factor.
        Powers and exponentials are Python's, every product is written out
        on real parts, so each column has the bits of Python's complex
        arithmetic at that point, signed zeros, infinities and NaN included."""
        points = list(points)
        powers = {}

        def power(mu: int, e: int):
            if (mu, e) not in powers:
                powers[mu, e] = np.array([x[mu] ** e for x in points], dtype=float)
            return powers[mu, e]

        out = np.zeros((16, len(points)), dtype=complex)
        with np.errstate(all="ignore"):
            for key, (den, entries) in self._forms.items():
                phase = np.zeros(len(points))
                for mono, n, d in key:
                    v = n / d
                    for mu, shift in enumerate(_EXP_SHIFTS):
                        if mono >> shift & 0xFFFF:
                            v = v * power(mu, mono >> shift & 0xFFFF)
                    phase = phase + v
                factor = np.array([cmath.exp(1j * p) for p in phase.tolist()])
                keys = sorted(entries)
                vals = np.repeat([[complex(r / den, s / den)] for r, s in map(entries.get, keys)],
                                 len(points), axis=1)
                for mu, shift in enumerate(_EXP_SHIFTS):
                    for e in {k >> shift & 0xFFFF for k in keys} - {0}:
                        rows = [i for i, k in enumerate(keys) if k >> shift & 0xFFFF == e]
                        vals[rows] = complex_times(vals[rows], power(mu, e))
                # each blade sums its entries in key order; a blade with fewer
                # entries adds -0.0, which leaves its sum as it is
                by_blade = {}
                for i, k in enumerate(keys):
                    by_blade.setdefault(k & 15, []).append(i)
                blades = sorted(by_blade)
                vals = np.vstack([vals, np.full(len(points), complex(-0.0, -0.0))])
                sums = 0j
                for rows in itertools.zip_longest(*map(by_blade.get, blades), fillvalue=-1):
                    sums = sums + vals[list(rows)]
                out[blades] += complex_times(factor, sums)
        return out

    def max_abs(self) -> float:
        worst = 0.0
        for den, entries in self._forms.values():
            for r, s in entries.values():
                worst = scalars.nan_max(worst, scalars.modulus(complex(r / den, s / den)))
        return worst

    def to_float(self) -> "AnalyticField":
        if self.backend == FLOAT:
            return self
        # rounding can merge two phases, or send a coefficient to zero
        return AnalyticField.from_forms(_collected(
            (tuple((mono, n / d, 1) for mono, n, d in key if n / d), 1,
             {k: (r / den, s / den) for k, (r, s) in sorted(entries.items())})
            for key, (den, entries) in self._forms.items()), FLOAT)

    def __repr__(self):
        return (f"AnalyticField(backend={self.backend!r}, "
                f"terms={len(self._forms)}, grades={sorted(self.grades())})")


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
