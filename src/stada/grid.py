"""Periodic lattice backend: grid fields, sampling, grid I/O and stencils.

Grid operators are stencils: maps from lattice offsets to 16x16 blade
matrices, built for one lattice spacing.  A stencil answers the calls the
operator formulas of `stada.fields` make on a field, so those formulas
applied to `Stencil.identity(h)` build the lattice operators.  Composing
stencils multiplies matrices and adds offsets, so algebraic cancellations
(for instance the antisymmetry that kills the composed exterior
derivative) happen symbolically, before any data is touched: the composed
operator is the empty stencil and applying it returns exact zeros, not
rounding dust.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exterior import STAR_TABLE
from .fields import AnalyticField, d, laplace
from .kernel import EVERY_BLADE, BladeProduct
from .multivector import CLIFFORD, GRADE_MAPS, ODD_MAP, REVERSION_MAP, Multivector
from .scalars import DEFAULT_TOLERANCE, FLOAT

Offset = tuple[int, int, int, int]

_ZERO_OFFSET: Offset = (0, 0, 0, 0)


class AliasingWarning(UserWarning):
    """Sampling a field whose frequencies do not fit the periodic box."""


def _blade_matrix(kind: BladeProduct, mv: Multivector, side: str) -> np.ndarray:
    """16x16 matrix of multiplication by mv under the given product, with mv
    on the given side: column j is the image of blade j."""
    out = np.zeros((16, 16), dtype=complex)
    if side == "left":
        for i, j, sign, mask in kind.live_terms(mv.coeffs, EVERY_BLADE):
            out[mask, j] += sign * complex(mv.coeffs[i])
    else:
        for j, j2, sign, mask in kind.live_terms(EVERY_BLADE, mv.coeffs):
            out[mask, j] += sign * complex(mv.coeffs[j2])
    return out


# the Hodge star blade map as a matrix: column m holds its sign in row target
_STAR_M = np.array([[sign * (target == i) for sign, target in STAR_TABLE] for i in range(16)],
                   dtype=complex)

_BLADES = np.arange(16)


def _xor_diagonals(mat: np.ndarray) -> dict[int, np.ndarray]:
    """The live xor diagonals of a 16x16 blade matrix: {s: c} with
    c[i] = mat[i, i ^ s] and c.any(), so that mat = sum over s of diag(c) X_s,
    where X_s reads blade i ^ s into blade i.  Multiplying by one blade is one
    diagonal: blade j goes to +-(j ^ k)."""
    diagonals = {}
    for s in range(16):
        c = mat[_BLADES, _BLADES ^ s]
        if c.any():
            diagonals[s] = c
    return diagonals


def _times(c: complex, row: np.ndarray) -> np.ndarray:
    """c * row with each real product rounded before the sum, as einsum and
    scalar complex arithmetic round it.  numpy's vector complex multiply may
    fuse a product into the sum; that changes the last bit only when both
    parts of c are nonzero, so only then are the parts applied one by one."""
    if c.real and c.imag:
        return c.real * row + c.imag * (1j * row)
    return c * row


def _apply_blades(mat: np.ndarray, values: np.ndarray, out: np.ndarray,
                  shift: Offset = _ZERO_OFFSET) -> None:
    """out[i] += sum_j mat[i, j] values[j], with values read at site + shift.

    One blade row at a time, over the live xor diagonals of mat only: a
    one-blade multiplication or a difference entry costs one row product per
    blade, a dense matrix at most sixteen, and the only temporaries are
    single rows.  Zeros inside a live diagonal are multiplied, not skipped,
    so 0 * inf still gives NaN.  Each row sums its terms from the lowest
    source blade up and is added to out once, so finite results equal
    einsum's bit for bit.
    """
    # a zero matrix still multiplies its main diagonal, so a non-finite site
    # is not dropped from mul_const by zero
    diagonals = _xor_diagonals(mat) or {0: mat.diagonal()}
    axes = tuple(axis for axis in range(4) if shift[axis])
    # reading f(site + k e_axis) means rolling data backwards
    back = tuple(-shift[axis] for axis in axes)
    for i in range(16):
        (j, c), *rest = sorted((i ^ s, diag[i]) for s, diag in diagonals.items())
        acc = _times(c, values[j])
        for j, c in rest:
            acc += _times(c, values[j])
        out[i] += np.roll(acc, back, axes) if axes else acc


@dataclass
class GridField:
    """Form field sampled on a periodic n^4 lattice with spacing h.

    values has shape (16, n, n, n, n): blade axis first, then the four
    coordinate axes in order.
    """

    backend = FLOAT  # a class attribute, not a dataclass field

    n: int
    h: float
    values: np.ndarray

    @classmethod
    def zeros(cls, n: int, h: float) -> "GridField":
        return cls(n, h, np.zeros((16, n, n, n, n), dtype=complex))

    def _check(self, other: "GridField") -> None:
        if self.n != other.n or self.h != other.h:
            raise DomainError("grid shapes or spacings differ")

    def __add__(self, other: "GridField") -> "GridField":
        self._check(other)
        return GridField(self.n, self.h, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check(other)
        return GridField(self.n, self.h, self.values - other.values)

    def __neg__(self) -> "GridField":
        return GridField(self.n, self.h, -self.values)

    def scale(self, value) -> "GridField":
        return GridField(self.n, self.h, self.values * complex(value))

    def mul_const(self, mv: Multivector, side: str = "right") -> "GridField":
        out = np.zeros_like(self.values)
        _apply_blades(_blade_matrix(CLIFFORD, mv.to_float(), side), self.values, out)
        return GridField(self.n, self.h, out)

    def pointwise_product(self, other: "GridField") -> "GridField":
        self._check(other)
        out = np.zeros_like(self.values)
        live_a = [v.any() for v in self.values]
        live_b = [v.any() for v in other.values]
        for i, j, sign, mask in CLIFFORD.live_terms(live_a, live_b):
            out[mask] += sign * (self.values[i] * other.values[j])
        return GridField(self.n, self.h, out)

    def _map_blades(self, table, conjugate: bool = False) -> "GridField":
        """Apply a blade map site by site; with `conjugate`, conjugate the values."""
        src = self.values.conj() if conjugate else self.values
        out = np.zeros_like(self.values)
        for m, (sign, target) in enumerate(table):
            if sign:
                out[target] = src[m] if sign > 0 else -src[m]
        return GridField(self.n, self.h, out)

    def hodge_star(self) -> "GridField":
        return self._map_blades(STAR_TABLE)

    def star_involution(self) -> "GridField":
        return self._map_blades(REVERSION_MAP, conjugate=True)

    def component(self, mask: int) -> np.ndarray:
        return self.values[mask]

    def grade_part(self, k: int) -> "GridField":
        if not 0 <= k <= 4:
            raise DomainError(f"grade {k} outside 0..4")
        return self._map_blades(GRADE_MAPS[k])

    def odd_part(self) -> "GridField":
        return self._map_blades(ODD_MAP)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def is_zero(self) -> bool:
        return not self.values.any()

    def is_real(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """|Im| <= tol at every site and blade."""
        return not self.values.size or float(np.abs(self.values.imag).max()) <= tol

    def eval(self, site: Offset) -> Multivector:
        i0, i1, i2, i3 = site
        return Multivector([complex(self.values[m, i0, i1, i2, i3]) for m in range(16)],
                           FLOAT)

    # ---- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        flat = self.values.transpose(1, 2, 3, 4, 0).reshape(-1, 16)
        sites = [[[v.real, v.imag] for v in row] for row in flat]
        return {"kind": "grid_field", "n": self.n, "h": self.h, "basis": "e",
                "values": sites}

    def save(self, path: str) -> None:
        if path.endswith(".npz"):
            np.savez_compressed(path, n=self.n, h=self.h, values=self.values)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridField":
        n, h = _dump_geometry(data)
        try:
            flat = np.array([[complex(re, im) for re, im in row] for row in data["values"]])
        except (TypeError, ValueError, OverflowError):
            raise DomainError("grid values are a list of sites, each 16 [re, im] pairs") from None
        if flat.shape != (n ** 4, 16):
            raise DomainError("grid dump has the wrong number of sites")
        return cls(n, h, _dump_values(flat.T.reshape(16, n, n, n, n), n))

    @classmethod
    def load(cls, path: str) -> "GridField":
        if path.endswith(".npz"):
            try:
                with np.load(path) as archive:
                    data = dict(archive)
            except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
                raise DomainError(f"{path}: not an .npz archive ({exc})") from None
            n, h = _dump_geometry(data)
            return cls(n, h, _dump_values(data["values"], n))
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise DomainError(f"{path}: not JSON ({exc})") from None
        return cls.from_json_dict(data)


def _dump_geometry(data) -> tuple[int, float]:
    """The lattice size n >= 1 and the finite spacing h > 0 of a grid dump."""
    if not isinstance(data, dict) or not {"n", "h", "values"} <= data.keys():
        raise DomainError("a grid dump is an object with the keys n, h and values")
    n, h = np.asarray(data["n"]), np.asarray(data["h"])
    if n.shape or n.dtype.kind not in "iu" or n < 1:
        raise DomainError(f"a grid dump needs an integer n >= 1, got {data['n']!r}")
    if h.shape or h.dtype.kind not in "iuf" or not 0 < h < np.inf:
        raise DomainError(f"a grid dump needs a finite spacing h > 0, got {data['h']!r}")
    return int(n), float(h)


def _dump_values(values: np.ndarray, n: int) -> np.ndarray:
    """The blade-major values of a grid dump, checked for shape and finiteness."""
    if values.shape != (16, n, n, n, n) or values.dtype.kind not in "iufc":
        raise DomainError(f"grid values of shape {values.shape} do not fit n = {n}")
    values = values.astype(complex)
    if not np.isfinite(values).all():
        raise DomainError("grid values must be finite")
    return values


class Stencil:
    """Linear operator on the lattice of spacing h: finite map offset -> 16x16 matrix.

    It answers the field calls of the operator formulas -- `partial`,
    `mul_const`, `hodge_star`, sums, negation and `scale` -- by composing
    on the left.  Stencils of different spacings do not combine, and a
    stencil applies only to grids of its own spacing.
    """

    __slots__ = ("h", "entries")

    backend = FLOAT  # the operator formulas build their basis vectors on it

    def __init__(self, h: float, entries: dict[Offset, np.ndarray] | None = None):
        self.h = h
        self.entries = {off: mat for off, mat in (entries or {}).items() if mat.any()}

    @classmethod
    def identity(cls, h: float) -> "Stencil":
        return cls(h, {_ZERO_OFFSET: np.eye(16, dtype=complex)})

    def _check(self, other: "Stencil") -> None:
        if self.h != other.h:
            raise DomainError(f"stencil spacings differ: {self.h} vs {other.h}")

    def __add__(self, other: "Stencil") -> "Stencil":
        self._check(other)
        out = {off: mat.copy() for off, mat in self.entries.items()}
        for off, mat in other.entries.items():
            if off in out:
                out[off] = out[off] + mat
            else:
                out[off] = mat.copy()
        return Stencil(self.h, out)

    def __sub__(self, other: "Stencil") -> "Stencil":
        return self + other.scale(-1.0)

    def __neg__(self) -> "Stencil":
        return self.scale(-1.0)

    def scale(self, value) -> "Stencil":
        return Stencil(self.h, {off: mat * value for off, mat in self.entries.items()})

    def compose(self, other: "Stencil") -> "Stencil":
        """self after other."""
        self._check(other)
        out: dict[Offset, np.ndarray] = {}
        for o1, m1 in self.entries.items():
            for o2, m2 in other.entries.items():
                off = (o1[0] + o2[0], o1[1] + o2[1], o1[2] + o2[2], o1[3] + o2[3])
                prod = m1 @ m2
                if off in out:
                    out[off] = out[off] + prod
                else:
                    out[off] = prod
        return Stencil(self.h, out)

    def _left(self, mat: np.ndarray) -> "Stencil":
        """The constant blade matrix `mat` after self."""
        return Stencil(self.h, {off: mat @ m for off, m in self.entries.items()})

    def partial(self, mu: int) -> "Stencil":
        """The second-order central difference along axis mu, after self."""
        c = 1.0 / (2.0 * self.h)
        eye = np.eye(16, dtype=complex)
        step = tuple(int(i == mu) for i in range(4))
        back = tuple(-k for k in step)
        return Stencil(self.h, {step: eye * c, back: eye * (-c)}).compose(self)

    def mul_const(self, mv: Multivector, side: str = "right",
                  product: BladeProduct = CLIFFORD) -> "Stencil":
        return self._left(_blade_matrix(product, mv.to_float(), side))

    def hodge_star(self) -> "Stencil":
        return self._left(_STAR_M)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stencil):
            return NotImplemented
        if self.h != other.h or set(self.entries) != set(other.entries):
            return False
        return all(np.array_equal(self.entries[o], other.entries[o])
                   for o in self.entries)

    def isclose(self, other: "Stencil", tol: float = 1e-10) -> bool:
        self._check(other)
        scale = max([np.abs(m).max() for m in self.entries.values()], default=1.0)
        for off in set(self.entries) | set(other.entries):
            a = self.entries.get(off)
            b = other.entries.get(off)
            if a is None:
                a = np.zeros_like(b)
            if b is None:
                b = np.zeros_like(a)
            if np.abs(a - b).max() > tol * scale:
                return False
        return True

    def apply(self, field: GridField) -> GridField:
        """The stencil applied to a grid of its spacing: for each offset, its
        matrix acts on the blade axis of the field read at site + offset,
        through the blade kernel `_apply_blades` (one blade row at a time,
        over the live xor diagonals of the matrix)."""
        if field.h != self.h:
            raise DomainError(f"a stencil of spacing {self.h} cannot act on a grid "
                              f"of spacing {field.h}")
        out = np.zeros_like(field.values)
        for off, mat in self.entries.items():
            _apply_blades(mat, field.values, out, off)
        return GridField(field.n, field.h, out)


def d_stencil(h: float) -> Stencil:
    """The lattice exterior derivative of spacing h."""
    return d(Stencil.identity(h))


def laplace_stencil(h: float, route: str = "direct") -> Stencil:
    """The lattice second-order operator of spacing h, by the named route."""
    return laplace(Stencil.identity(h), route)


def central_difference(arr: np.ndarray, mu: int, h: float) -> np.ndarray:
    """Periodic central difference of a plain site array along one axis."""
    return (np.roll(arr, -1, axis=mu) - np.roll(arr, 1, axis=mu)) / (2.0 * h)


def _warn_aliasing(field: AnalyticField, n: int, h: float) -> None:
    box = n * h
    tau = 2.0 * np.pi
    for phase, coeffs in field.terms.values():
        if phase.nonlinear_part():
            warnings.warn("nonlinear phase cannot be periodic on the box",
                          AliasingWarning, stacklevel=3)
            continue
        for k in phase.linear_coefficients():
            kv = float(k)
            if kv and abs((kv * box / tau) - round(kv * box / tau)) > 1e-9:
                warnings.warn(
                    f"frequency {kv} times box {box} is not a multiple of 2*pi",
                    AliasingWarning, stacklevel=3)
                break
        if any(q.degree() > 0 for q in coeffs):
            warnings.warn("polynomial factors are not periodic on the box",
                          AliasingWarning, stacklevel=3)


def sample(field: AnalyticField, n: int, h: float) -> GridField:
    """Evaluate an analytic field on the periodic box [0, n*h)^4."""
    if n < 4:
        raise DomainError("grids need at least 4 points per axis")
    field = field.to_float()
    _warn_aliasing(field, n, h)
    axis = np.arange(n) * h
    coords = np.meshgrid(axis, axis, axis, axis, indexing="ij", sparse=True)
    out = np.zeros((16, n, n, n, n), dtype=complex)
    for phase, coeffs in field.terms.values():
        phase_arr = np.zeros((n, n, n, n))
        for exps, c in phase.terms.items():
            mono = float(c) * np.ones((1, 1, 1, 1))
            for mu in range(4):
                if exps[mu]:
                    mono = mono * coords[mu] ** exps[mu]
            phase_arr = phase_arr + mono
        factor = np.exp(1j * phase_arr)
        for m, q in enumerate(coeffs):
            if not q:
                continue
            acc = np.zeros((n, n, n, n), dtype=complex)
            for exps, c in q.terms.items():
                mono = complex(c) * np.ones((1, 1, 1, 1))
                for mu in range(4):
                    if exps[mu]:
                        mono = mono * coords[mu] ** exps[mu]
                acc = acc + mono
            out[m] += factor * acc
    return GridField(n, h, out)
