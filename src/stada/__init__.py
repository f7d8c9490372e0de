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
"""

__version__ = "0.1.0"

from .errors import (
    BackendMismatchError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    InvalidGeneratorError,
    InvalidSpinError,
    ParseError,
    StadaError,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, QQi
from .multivector import (
    Multivector,
    basis_vector,
    clifford_product,
    exterior_product,
    format_multivector,
    hermitian_conjugate,
    inverse,
    l5,
    multivector_from_json,
    multivector_to_json,
)
from .exterior import (
    ExteriorForm,
    METRIC_G,
    clifford_product_via_table,
    com_bracket,
    hodge_star,
    missing_case_audit,
)
from .spin import (
    LorentzMatrix,
    SpinElement,
    lorentz_of,
    random_rational_spin,
    random_spin,
    recover_spin,
    recover_spin_candidates,
    recover_spin_pair,
    sandwich,
    sandwich_inverse,
    spin_from_bivector,
)
from .generators import (
    SecondaryGenerators,
    basis16_of,
    canonical_generators,
    make_secondary,
    secondary_violations,
    transported_generators,
)
from .ideal import (
    Bispinor,
    IdealBasis,
    bispinor_from_ideal,
    bispinor_to_json,
    canonical_basis,
    even_from_ideal,
    gamma_of,
    ideal_from_bispinor,
    ideal_from_even,
    idempotent_of,
    matrix_to_json,
    representation_change,
    scalar_product,
)
from .fields import AnalyticField, Poly, d, delta, laplace, real_polynomial, upsilon, upsilon_gradient
from .grid import AliasingWarning, GridField, Stencil, sample
from .equations import (
    BispinorField,
    CovarianceReport,
    CurrentResult,
    EquationForm,
    FieldConfig,
    PlaneWaveSolution,
    ResidualReport,
    boosted_momentum,
    covariance_check,
    current,
    gauge_transform,
    lagrangian,
    maxwell_residual,
    plane_wave,
    residual_dirac,
    residual_hestenes,
    residual_ideal,
    residual_ilk,
    residual_ilk_e5,
    residual_ilk_even,
    residual_tensor,
    translate,
)
from .expr import eval_expr
from .suites import RunReport, SUITE_NAMES, run_suite
