"""Lattice backend: stencil algebra, sampling, serialization, convergence."""

import math
import warnings

import numpy as np
import pytest

from stada import grid
from stada.errors import DomainError
from stada.exterior import _wedge_sequence, hodge_star
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
from stada.multivector import Multivector, basis_vector, blade_indices
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
