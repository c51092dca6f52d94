"""Certified spectral-gap computations for Euclidean triangles.

The package computes the first two Dirichlet eigenvalues of a triangle with
an empirical error model, the scale-invariant gap xi = d^2 (lambda2 -
lambda1), and runs a certified sweep of the triangle moduli region showing
xi stays above the equilateral value 64 pi^2 / 9 away from the equilateral
point.  Supporting modules provide the closed-form equilateral spectrum and
eigenfunctions, quadrature verification of the integral tables behind the
local deformation analysis, and the deformation analysis itself.
"""

from .geometry import (
    EQUILATERAL_APEX,
    EXCLUSION_RADIUS,
    GAP_THRESHOLD,
    THIN_STRIP_HEIGHT,
    TauNu,
    Triangle,
    diameter,
    gap_function,
    in_sweep_region,
    tau_nu_to_apex,
)
from .eigensolver import ConvergenceError, Spectrum, gap_with_error, solve_triangle
from .lame import (
    LAMBDA1,
    LAMBDA2,
    LAMBDA3,
    distinct_spectrum,
    phi1,
    second_basis,
    third_eigenfunction,
)
from .deformation import (
    DeformationDirection,
    SecondEigenspaceCoeffs,
    gamma_bounds,
    minimize_I,
    preserves_diameter,
    slope_gap_I,
)
from .sweep import (
    CertifiedCell,
    CoverageReport,
    SweepPolicy,
    SweepResult,
    SweepState,
    SweepWindow,
    certification_radius,
    continuity_lower_bound,
    coverage_audit,
    resume_point,
    run_sweep,
    truncate_radius,
)
from .tables import verify_integral_tables

__version__ = "0.1.0"

__all__ = [
    "EQUILATERAL_APEX",
    "EXCLUSION_RADIUS",
    "GAP_THRESHOLD",
    "THIN_STRIP_HEIGHT",
    "TauNu",
    "Triangle",
    "diameter",
    "gap_function",
    "in_sweep_region",
    "tau_nu_to_apex",
    "ConvergenceError",
    "Spectrum",
    "gap_with_error",
    "solve_triangle",
    "LAMBDA1",
    "LAMBDA2",
    "LAMBDA3",
    "distinct_spectrum",
    "phi1",
    "second_basis",
    "third_eigenfunction",
    "DeformationDirection",
    "SecondEigenspaceCoeffs",
    "gamma_bounds",
    "minimize_I",
    "preserves_diameter",
    "slope_gap_I",
    "CertifiedCell",
    "CoverageReport",
    "SweepPolicy",
    "SweepResult",
    "SweepState",
    "SweepWindow",
    "certification_radius",
    "continuity_lower_bound",
    "coverage_audit",
    "resume_point",
    "run_sweep",
    "truncate_radius",
    "verify_integral_tables",
    "__version__",
]
