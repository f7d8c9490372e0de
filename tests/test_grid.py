"""Lattice backend: stencil algebra, sampling, serialization, convergence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stada import grid
from stada.equations import residual_ilk, residual_tensor
from stada.errors import DomainError, StadaError
from stada.exterior import STAR_TABLE, _wedge_sequence, hodge_star
from stada.fields import AnalyticField, d, delta, laplace, upsilon, upsilon_gradient
from stada.grid import (
    AliasingWarning,
    GridField,
    Stencil,
    central_difference,
    d_stencil,
    laplace_stencil,
    sample,
)
from stada.ideal import canonical_basis
from stada.multivector import (
    GRADE_MAPS,
    ODD_MAP,
    REVERSION_MAP,
    Multivector,
    basis_vector,
    blade_indices,
)
from stada.scalars import FLOAT


def random_grid(n=6, h=0.5, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(16, n, n, n, n)) + 1j * rng.normal(size=(16, n, n, n, n))
    return GridField(n, h, vals)


def test_stencil_nilpotency_is_symbolic():
    lattice = Stencil.identity(0.37)
    assert d(lattice).compose(d(lattice)).is_zero()
    assert delta(lattice).compose(delta(lattice)).is_zero()
    # the formula applied twice cancels as well
    assert d(d(lattice)).is_zero()
    assert delta(delta(lattice)).is_zero()


def test_composed_nilpotent_stencil_gives_exact_zero():
    f = random_grid()
    lattice = Stencil.identity(f.h)
    dd = d(lattice).compose(d(lattice))
    assert dd.apply(f).max_abs() == 0.0
    deldel = delta(lattice).compose(delta(lattice))
    assert deldel.apply(f).max_abs() == 0.0


def test_upsilon_stencils_identical():
    lattice = Stencil.identity(0.25)
    assert upsilon(lattice) == upsilon_gradient(lattice)


def test_laplace_stencils_close():
    lattice = Stencil.identity(0.25)
    base = laplace(lattice, "direct")
    for route in ("upsilon", "d_minus_delta", "de_rham"):
        assert base.isclose(laplace(lattice, route), 1e-12)


def test_derivative_of_constant_grid():
    f = GridField(4, 0.5, np.ones((16, 4, 4, 4, 4), dtype=complex))
    lattice = Stencil.identity(f.h)
    for mu in range(4):
        assert lattice.partial(mu).apply(f).max_abs() == 0.0
    assert d(lattice).apply(f).max_abs() == 0.0


def _wedge_matrix(mu: int) -> np.ndarray:
    """Left wedge by e_mu from the permutation-sign rule: column j is e_mu ^ e_j."""
    out = np.zeros((16, 16), dtype=complex)
    for j in range(16):
        if not j >> mu & 1:
            sign, target = _wedge_sequence((mu,) + tuple(blade_indices(j)))
            out[target, j] = sign
    return out


@pytest.mark.parametrize("h", [0.37, math.pi / 4])
def test_d_stencil_is_the_central_difference_of_the_wedge(h):
    entries = d_stencil(h).entries
    assert len(entries) == 8
    for mu in range(4):
        step = tuple(int(i == mu) for i in range(4))
        back = tuple(-k for k in step)
        assert np.array_equal(entries[step], _wedge_matrix(mu) / (2 * h))
        assert np.array_equal(entries[back], -_wedge_matrix(mu) / (2 * h))


def test_stencils_of_other_spacings_do_not_mix():
    f = random_grid(4, 0.5)
    with pytest.raises(DomainError):
        d_stencil(0.25).apply(f)
    with pytest.raises(DomainError):
        d_stencil(0.25) + d_stencil(0.5)
    with pytest.raises(DomainError):
        d_stencil(0.25).compose(d_stencil(0.5))
    with pytest.raises(DomainError):
        laplace_stencil(0.25).isclose(laplace_stencil(0.5))
    assert d_stencil(0.5).apply(f).max_abs() > 0


def test_grid_module_holds_no_operator_formula():
    # the formulas live in stada.fields; grid naming WEDGE or ETA would be a second copy
    import ast
    from pathlib import Path

    tree = ast.parse(Path(grid.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not {"WEDGE", "ETA"} & names


def test_no_einsum_in_the_package():
    # the blade kernel replaced einsum at both grid sites; keep the slow path out
    import ast
    from pathlib import Path

    for path in Path(grid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            assert name != "einsum", f"{path.name}:{node.lineno} uses einsum"


# ---- the blade kernel against a dense reference ------------------------------------

_EPS = np.finfo(float).eps
_ROWS = np.arange(16)


def _reference_apply(entries, values):
    """The dense route: shift the whole field, then contract the blade axis."""
    out = np.zeros_like(values)
    for off, mat in entries.items():
        shifted = values
        for axis, k in enumerate(off):
            if k:
                shifted = np.roll(shifted, -k, axis=1 + axis)
        out += np.einsum("ij,j...->i...", mat, shifted)
    return out


def _coefficients(rng, size):
    """Complex numbers that are zero, real, imaginary or both, mixed at random."""
    kind = rng.integers(0, 4, size=size)
    re, im = rng.normal(size=size), rng.normal(size=size)
    return np.select([kind == 0, kind == 1, kind == 2], [0j, re + 0j, 1j * im], re + 1j * im)


def _blade_matrix_of(kind, rng):
    """A random 16x16 blade matrix: one xor diagonal, at most one nonzero per row, or dense."""
    mat = np.zeros((16, 16), dtype=complex)
    if kind == "xor":
        mat[_ROWS, _ROWS ^ int(rng.integers(16))] = _coefficients(rng, 16)
    elif kind == "monomial":
        mat[_ROWS, rng.integers(0, 16, size=16)] = _coefficients(rng, 16)
    else:
        mat[:] = _coefficients(rng, (16, 16))
    return mat


def _assert_matches(got, want, dense, scale):
    if dense:
        assert np.abs(got - want).max() <= 16 * _EPS * scale
    else:
        assert got.tobytes() == want.tobytes()


_offsets = st.tuples(*[st.integers(-2, 2)] * 4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["xor", "monomial", "dense"]), _offsets, st.integers(0, 2 ** 32 - 1))
@example("xor", (0, 0, 0, 0), 1)
@example("monomial", (1, -2, 0, 2), 2)
@example("dense", (-1, 0, 2, 1), 3)
def test_stencil_apply_matches_dense_reference(kind, off, seed):
    rng = np.random.default_rng(seed)
    mat = _blade_matrix_of(kind, rng)
    f = random_grid(4, 0.5, seed=seed)
    got = Stencil(0.5, {off: mat}).apply(f).values
    want = _reference_apply({off: mat}, f.values)
    _assert_matches(got, want, kind == "dense", np.abs(mat).max() * np.abs(f.values).max())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["xor", "monomial", "dense"]), st.integers(0, 2 ** 32 - 1))
def test_xor_diagonals_rebuild_the_matrix(kind, seed):
    mat = _blade_matrix_of(kind, np.random.default_rng(seed))
    diagonals = grid._xor_diagonals(mat)
    rebuilt = np.zeros_like(mat)
    for s, c in diagonals.items():
        assert c.any()
        rebuilt[_ROWS, _ROWS ^ s] = c
    assert rebuilt.tobytes() == mat.tobytes()
    if kind == "xor":
        assert len(diagonals) <= 1


def _product_matrix(mv, side):
    """Column j holds the coefficients of mv e_j (left) or e_j mv (right)."""
    cols = [(mv * Multivector.basis(j, FLOAT)) if side == "left"
            else (Multivector.basis(j, FLOAT) * mv) for j in range(16)]
    return np.array([[complex(c) for c in col.coeffs] for col in cols]).T


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.sampled_from(["left", "right"]), st.integers(0, 2 ** 32 - 1))
def test_mul_const_matches_dense_reference(blades, side, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(16, dtype=complex)
    live = rng.choice(16, size=blades, replace=False)
    coeffs[live] = _coefficients(rng, blades)
    if not coeffs.any():
        coeffs[live[0]] = 1.5 - 0.25j
    mv = Multivector(list(coeffs), FLOAT)
    f = random_grid(4, 0.5, seed=seed)
    mat = _product_matrix(mv, side)
    got = f.mul_const(mv, side).values
    want = _reference_apply({(0, 0, 0, 0): mat}, f.values)
    _assert_matches(got, want, blades > 1, np.abs(mat).max() * np.abs(f.values).max())


_BAD_SITE = (1, 2, 3, 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("blade", range(16))
def test_non_finite_site_never_vanishes(blade, bad):
    # zeros inside a live diagonal are multiplied, so 0 * inf spreads as NaN
    h = 0.5
    f = GridField.zeros(4, h)
    f.values[(blade,) + _BAD_SITE] = bad
    lattice = Stencil.identity(h)
    basis = canonical_basis(FLOAT)
    outputs = [d_stencil(h).apply(f), delta(lattice).apply(f),
               upsilon_gradient(lattice).apply(f), laplace_stencil(h, "direct").apply(f)]
    outputs += [f.mul_const(mv, side)
                for mv in (basis.t, basis_vector(0, FLOAT), Multivector.zero(FLOAT))
                for side in ("left", "right")]
    for out in outputs:
        assert not np.isfinite(out.values).all()
    residuals = [lambda: residual_ilk(f, None, 1.0),
                 lambda: residual_tensor(f, None, 1.0, basis.gens.h, basis.gens.i2)]
    for residual in residuals:
        try:
            assert residual().verdict != "pass"
        except StadaError:
            pass  # refusing the state is not a pass either


def _grid_with_dead_rows(seed, dead, bad):
    """A random grid whose rows are dead ("none", "some" or "all" of them) and
    hold -0.0 in both parts; with `bad`, one site of a live row is inf or NaN."""
    rng = np.random.default_rng(seed)
    f = random_grid(4, 0.5, seed=seed)
    rows = {"none": [], "some": rng.choice(16, size=int(rng.integers(1, 16)), replace=False),
            "all": list(_ROWS)}[dead]
    f.values[rows] = complex(-0.0, -0.0)
    live = [m for m in range(16) if m not in set(rows)]
    if bad is not None and live:
        f.values[(int(rng.choice(live)),) + _BAD_SITE] = bad
    return f


def _without_skip(entries, values):
    """The blade kernel with every source row taken as live: no term dropped."""
    out = np.zeros_like(values)
    for off, mat in entries.items():
        grid._apply_blades(mat, values, out, [True] * 16, off)
    return out


_dead = st.sampled_from(["none", "some", "all"])
_bad = st.sampled_from([None, np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["xor", "monomial", "dense"]), _dead, _bad, _offsets,
       st.integers(0, 2 ** 32 - 1))
@example("xor", "some", None, (1, 0, -1, 0), 4)
@example("monomial", "some", np.nan, (0, 2, 0, 0), 5)
@example("xor", "all", None, (0, 0, 0, 0), 6)
def test_dead_rows_keep_the_bytes(kind, dead, bad, off, seed):
    # a dropped term is +-0 everywhere and out never holds -0.0, so skipping keeps every byte
    mat = _blade_matrix_of(kind, np.random.default_rng(seed))
    f = _grid_with_dead_rows(seed, dead, bad)
    got = Stencil(0.5, {off: mat}).apply(f).values
    assert got.tobytes() == _without_skip({off: mat}, f.values).tobytes()
    if bad is None and kind != "dense":
        # einsum also multiplies the zeros off the diagonals, so it matches finite fields only
        assert got.tobytes() == _reference_apply({off: mat}, f.values).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.sampled_from(["left", "right"]), _dead, _bad,
       st.integers(0, 2 ** 32 - 1))
def test_mul_const_on_dead_rows_keeps_the_bytes(blades, side, dead, bad, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(16, dtype=complex)
    live = rng.choice(16, size=blades, replace=False)
    coeffs[live] = _coefficients(rng, blades)
    mv = Multivector(list(coeffs), FLOAT)
    f = _grid_with_dead_rows(seed, dead, bad)
    got = f.mul_const(mv, side).values
    mat = grid._blade_matrix(grid.CLIFFORD, mv, side)
    assert got.tobytes() == _without_skip({(0, 0, 0, 0): mat}, f.values).tobytes()
    if bad is None and blades == 1:
        want = _reference_apply({(0, 0, 0, 0): _product_matrix(mv, side)}, f.values)
        assert got.tobytes() == want.tobytes()


def _scalar_row_only(seed=7):
    f = GridField.zeros(4, 0.5)
    f.values[0] = random_grid(4, 0.5, seed=seed).values[0]
    return f


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("blade", [0, 5, 15])
def test_infinite_constant_on_dead_rows_gives_nan(blade, side):
    # inf * 0 is NaN: a dead source row is skipped only under a finite coefficient
    f = _scalar_row_only()
    mv = Multivector([np.inf if m == blade else 0.0 for m in range(16)], FLOAT)
    got = f.mul_const(mv, side).values
    assert all(np.isnan(row).all() for row in got)
    mat = grid._blade_matrix(grid.CLIFFORD, mv, side)
    assert got.tobytes() == _without_skip({(0, 0, 0, 0): mat}, f.values).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("s", [1, 6, 15])
@pytest.mark.parametrize("off", [(0, 0, 0, 0), (1, 0, 0, -1)])
def test_infinite_stencil_coefficient_on_a_dead_row_gives_nan(s, off):
    # one xor diagonal reads the live scalar row into row s; row 3 ^ s reads dead row 3 under inf
    f = _scalar_row_only()
    mat = np.zeros((16, 16), dtype=complex)
    mat[_ROWS, _ROWS ^ s] = 0.5 - 0.25j
    mat[3 ^ s, 3] = np.inf
    got = Stencil(0.5, {off: mat}).apply(f).values
    assert np.isnan(got[3 ^ s]).all()
    assert np.isfinite(got[s]).all() and got[s].all()
    assert not np.delete(got, [s, 3 ^ s], axis=0).any()
    assert got.tobytes() == _without_skip({off: mat}, f.values).tobytes()


@pytest.mark.parametrize("k", [0, 1, 3, 16])
def test_upsilon_makes_one_row_product_per_live_row_and_entry(k, monkeypatch):
    # Υ has eight entries of one blade each: 8 k row products on k live rows, not 128
    calls = []
    times = grid._times
    monkeypatch.setattr(grid, "_times", lambda c, row: calls.append(c) or times(c, row))
    f = random_grid(4, 0.5, seed=k)
    f.values[np.random.default_rng(k).permutation(16)[k:]] = 0
    lattice = upsilon_gradient(Stencil.identity(f.h))
    assert len(lattice.entries) == 8
    lattice.apply(f)
    assert len(calls) == 8 * k


def test_sampling_matches_pointwise_eval():
    field = AnalyticField.plane_wave(
        Multivector.unit(FLOAT) + basis_vector(2, FLOAT), (1.0, 0.0, 0.0, 0.0))
    n, h = 4, math.pi / 2
    g = sample(field, n, h)
    for site in ((0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 3, 3)):
        x = tuple(h * s for s in site)
        assert (g.eval(site) - field.eval(x)).max_abs() < 1e-13


def test_sample_requires_minimum_points():
    with pytest.raises(DomainError):
        sample(AnalyticField.zero(FLOAT), 2, 0.1)


def test_aliasing_warnings():
    wave = AnalyticField.plane_wave(Multivector.unit(FLOAT), (0.37, 0, 0, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample(wave, 8, 0.5)
    assert any(issubclass(w.category, AliasingWarning) for w in caught)
    poly = AnalyticField.monomial(Multivector.unit(FLOAT), (1, 0, 0, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample(poly, 8, 0.5)
    assert any(issubclass(w.category, AliasingWarning) for w in caught)
    # a matched wave is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample(AnalyticField.plane_wave(Multivector.unit(FLOAT), (1.0, 0, 0, 0)),
               8, math.pi / 4)


def test_grid_upsilon_converges_at_second_order():
    n = 16
    h1 = math.pi / 4  # box 4*pi, frequency 1 fits both spacings
    wave = AnalyticField.plane_wave(Multivector.unit(FLOAT), (1.0, 0.0, 0.0, 0.0))
    ana = upsilon_gradient(wave)
    errs = []
    for h in (h1, h1 / 2):
        gf = sample(wave, n, h)
        ga = sample(ana, n, h)
        errs.append((upsilon_gradient(Stencil.identity(h)).apply(gf) - ga).max_abs())
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_grid_laplace_matches_analytic_within_truncation():
    n, h = 16, math.pi / 4
    wave = AnalyticField.plane_wave(Multivector.unit(FLOAT), (1.0, 0.0, 0.0, 0.0))
    gf = sample(wave, n, h)
    got = laplace(Stencil.identity(h)).apply(gf)
    want = sample(AnalyticField.plane_wave(
        Multivector.unit(FLOAT).scale(-1.0), (1.0, 0.0, 0.0, 0.0)), n, h)
    rel = (got - want).max_abs()
    # composing two central differences gives the 2h-wide second difference;
    # its truncation at h = pi/4 is 1 - (2 - 2cos(2h)) / (4h^2) ~ 0.19
    bound = abs(1.0 - (2.0 - 2.0 * math.cos(2 * h)) / (4 * h * h)) + 0.01
    assert rel < bound
    # and it shrinks at second order when both spacings stay periodic
    gf2 = sample(wave, n, h / 2)
    want2 = sample(AnalyticField.plane_wave(
        Multivector.unit(FLOAT).scale(-1.0), (1.0, 0.0, 0.0, 0.0)), n, h / 2)
    rel2 = (laplace(Stencil.identity(h / 2)).apply(gf2) - want2).max_abs()
    assert 3.2 <= rel / rel2 <= 4.8


def test_pointwise_product_matches_multivector_product():
    f = random_grid(4, 0.5, seed=1)
    g = random_grid(4, 0.5, seed=2)
    prod = f.pointwise_product(g)
    site = (1, 2, 3, 0)
    assert (prod.eval(site) - f.eval(site) * g.eval(site)).max_abs() < 1e-12


def test_const_mult():
    f = random_grid(4, 0.5, seed=3)
    c = Multivector.basis(0b0011, FLOAT).scale(0.5 + 0.25j)
    site = (0, 1, 2, 3)
    left = f.mul_const(c, side="left")
    right = f.mul_const(c, side="right")
    assert (left.eval(site) - c * f.eval(site)).max_abs() < 1e-12
    assert (right.eval(site) - f.eval(site) * c).max_abs() < 1e-12


# each blade map of a grid, with its reference on the multivector at a site
BLADE_MAPS = {
    **{f"grade{k}": (lambda f, k=k: f.grade_part(k), lambda u, k=k: u.grade_part(k))
       for k in range(5)},
    "odd": (GridField.odd_part, Multivector.odd_part),
    "star_involution": (GridField.star_involution, Multivector.star),
    "hodge_star": (GridField.hodge_star, hodge_star),
}


@pytest.mark.parametrize("op", list(BLADE_MAPS))
def test_blade_maps_match_multivector(op):
    grid_map, reference = BLADE_MAPS[op]
    f = random_grid(4, 0.5, seed=3)
    for site in [(0, 1, 2, 3), (3, 0, 0, 2), (2, 2, 1, 1)]:
        assert (grid_map(f).eval(site) - reference(f.eval(site))).max_abs() < 1e-13


def _map_blades_by_copy(values, table, conjugate):
    """A blade map built from a conjugated copy of the field and -src[m]."""
    src = values.conj() if conjugate else values
    out = np.zeros_like(values)
    for m, (sign, target) in enumerate(table):
        if sign:
            out[target] = src[m] if sign > 0 else -src[m]
    return out


_COPY_MAPS = {
    **{f"grade{k}": (lambda f, k=k: f.grade_part(k), GRADE_MAPS[k], False) for k in range(5)},
    "odd": (GridField.odd_part, ODD_MAP, False),
    "star_involution": (GridField.star_involution, REVERSION_MAP, True),
    "hodge_star": (GridField.hodge_star, STAR_TABLE, False),
}


@pytest.mark.parametrize("op", list(_COPY_MAPS))
def test_blade_maps_in_place_keep_the_bytes(op):
    grid_map, table, conjugate = _COPY_MAPS[op]
    f = random_grid(4, 0.5, seed=8)
    specials = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(np.inf, -0.0),
                complex(-np.inf, np.nan), complex(np.nan, -np.inf), complex(-np.nan, 1.0)]
    for m in range(16):
        for k, z in enumerate(specials):
            f.values[m, k % 4, k // 4, m % 4, 1] = z
    got = grid_map(f).values
    assert got.tobytes() == _map_blades_by_copy(f.values, table, conjugate).tobytes()


@pytest.mark.parametrize("k", [5, -1])
def test_grade_outside_range_rejected(k):
    with pytest.raises(DomainError):
        random_grid(4, 0.5).grade_part(k)


def test_central_difference_plain_arrays():
    n, h = 8, math.pi / 4
    x = np.arange(n) * h
    grid = np.sin(x)[:, None, None, None] * np.ones((1, n, n, n))
    got = central_difference(grid, 0, h)
    want = np.cos(x)[:, None, None, None] * np.ones((1, n, n, n))
    assert np.abs(got - want).max() < 0.11  # second-order at this h


def test_json_roundtrip(tmp_path):
    f = random_grid(4, 0.5, seed=4)
    path = tmp_path / "field.json"
    f.save(str(path))
    g = GridField.load(str(path))
    assert g.n == f.n and g.h == f.h
    assert np.abs(g.values - f.values).max() == 0.0


def test_npz_roundtrip(tmp_path):
    f = random_grid(4, 0.5, seed=5)
    path = tmp_path / "field.npz"
    f.save(str(path))
    g = GridField.load(str(path))
    assert np.array_equal(g.values, f.values)


def test_shape_mismatch_rejected():
    with pytest.raises(DomainError):
        random_grid(4, 0.5) + random_grid(4, 0.25)
