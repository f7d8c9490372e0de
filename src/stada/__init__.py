"""stada: spacetime algebra with a Dirac-equation verification harness.

A computational engine for the 16-dimensional Clifford/Grassmann bialgebra
of Minkowski space.  It implements the exterior calculus with the Hodge
star, the spin group with its Lorentz double cover, idempotents and left
ideals with the induced 4x4 matrix representation, and residual evaluators
that mechanically cross-check the matrix, algebraic-ideal, real-even
(Hestenes), exterior-calculus (tensor), and nonhomogeneous-form
(Ivanenko-Landau-Kahler) formulations of the Dirac equation against each
other, together with gauge and Lorentz invariance and the conserved
current.

`import stada` loads no submodule.  The first use of a public name, such as
`stada.canonical_basis`, imports the module that defines it (and what that
module imports) and keeps the name here, so later lookups are plain
attribute reads; `stada.<module>` imports a submodule the same way (PEP 562).
So `canonical_basis()` loads the algebra and ideal modules but not numpy,
`grid`, `equations` or `suites`, which load when something first uses them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "errors": (
        "BackendMismatchError", "ConsistencyError", "ConvergenceError", "DomainError",
        "InvalidGeneratorError", "InvalidSpinError", "ParseError", "StadaError",
    ),
    "scalars": ("DEFAULT_TOLERANCE", "EXACT", "FLOAT", "QQi"),
    "multivector": (
        "Multivector", "basis_vector", "clifford_product", "exterior_product",
        "format_multivector", "hermitian_conjugate", "inverse", "l5",
        "multivector_from_json", "multivector_to_json",
    ),
    "exterior": (
        "ExteriorForm", "METRIC_G", "clifford_product_via_table", "com_bracket",
        "hodge_star", "missing_case_audit",
    ),
    "spin": (
        "LorentzMatrix", "SpinElement", "lorentz_of", "random_rational_spin", "random_spin",
        "recover_spin", "recover_spin_candidates", "recover_spin_pair", "sandwich",
        "sandwich_inverse", "spin_from_bivector",
    ),
    "generators": (
        "SecondaryGenerators", "basis16_of", "canonical_generators", "make_secondary",
        "secondary_violations", "transported_generators",
    ),
    "ideal": (
        "Bispinor", "IdealBasis", "bispinor_from_ideal", "bispinor_to_json",
        "canonical_basis", "even_from_ideal", "gamma_of", "ideal_from_bispinor",
        "ideal_from_even", "idempotent_of", "matrix_to_json", "representation_change",
        "scalar_product",
    ),
    "fields": (
        "AnalyticField", "Poly", "d", "delta", "laplace", "real_polynomial", "upsilon",
        "upsilon_gradient",
    ),
    "grid": ("AliasingWarning", "GridField", "Stencil", "sample"),
    "equations": (
        "BispinorField", "CovarianceReport", "CurrentResult", "FieldConfig",
        "PlaneWaveSolution", "ResidualReport", "boosted_momentum", "covariance_check",
        "current", "gauge_transform", "lagrangian", "maxwell_residual", "plane_wave",
        "residual_dirac", "residual_hestenes", "residual_ideal", "residual_ilk",
        "residual_ilk_e5", "residual_ilk_even", "residual_tensor", "translate",
    ),
    "expr": ("eval_expr",),
    "suites": ("RunReport", "run_suite"),
    "names": ("EquationForm", "SUITE_NAMES"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# `__main__` is left out: importing it runs the command line
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "kernel", "linalg"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
