"""Linear deformation theory around a triangle apex.

Moving the apex (j, k) by t(a, b) is an affine map, equivalently a flat
Riemannian metric on the undeformed triangle.  The extreme eigenvalues of
the inverse metric sandwich every Dirichlet eigenvalue of the deformed
triangle, and expanding the associated Laplacian in t yields the
perturbation operators whose quadratic forms control the first-order
behavior of the gap.  Specialized to the equilateral triangle (k = sqrt3/2),
the first-order gap change along any diameter-preserving direction has an
explicit closed form.  Its minimum over second-eigenspace rotations is
closed form too, and its minimum over directions lies at an end of the
diameter-preserving cone; that minimum is strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import EQUILATERAL_APEX
from .lame import (
    LAMBDA1,
    TrigSum,
    equilateral_integral,
    phi1_trigsum,
    second_basis,
)

__all__ = [
    "DeformationDirection",
    "InverseMetric",
    "GammaBounds",
    "SecondEigenspaceCoeffs",
    "MinimizeIResult",
    "EQUILATERAL_HEIGHT",
    "deformation_matrix",
    "inverse_metric",
    "gamma_bounds",
    "gamma_spread_closed_form",
    "alpha_bound",
    "perturbation_operator_coeffs",
    "apply_operator",
    "lambda1_slope",
    "lambda1_slope_closed_form",
    "slope_gap_I",
    "slope_gap_I_quadrature",
    "slope_gap_branch_extremes",
    "minimize_I",
    "preserves_diameter",
]

EQUILATERAL_HEIGHT = EQUILATERAL_APEX[1]
_SQRT3 = math.sqrt(3.0)


def _normalize_unit_pair(pair, what: str) -> None:
    """Divide the norm out of the two fields of a frozen dataclass, which
    must form a unit vector to within 1e-6."""
    names = [f.name for f in fields(pair)]
    norm = math.hypot(*(getattr(pair, name) for name in names))
    if not 0.999999 <= norm <= 1.000001:
        raise ValueError(f"{what} must be a unit vector, |.|={norm}")
    for name in names:
        object.__setattr__(pair, name, getattr(pair, name) / norm)


@dataclass(frozen=True)
class DeformationDirection:
    """Unit direction (a, b) of apex motion."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _normalize_unit_pair(self, "direction")


@dataclass(frozen=True)
class InverseMetric:
    """Entries [[A, B], [B, D]] of the inverse deformation metric."""

    A: float
    B: float
    D: float

    def __post_init__(self) -> None:
        if self.A <= 0.0 or self.A * self.D - self.B * self.B <= 0.0:
            raise ValueError("inverse metric must be positive definite")


@dataclass(frozen=True)
class GammaBounds:
    """Sandwich factors: gamma_minus lam_i <= lam_i(t) <= gamma_plus lam_i."""

    gamma_minus: float
    gamma_plus: float

    @property
    def spread(self) -> float:
        return self.gamma_plus - self.gamma_minus


@dataclass(frozen=True)
class SecondEigenspaceCoeffs:
    """Unit coefficients of phi = alpha u + beta v in the second eigenspace."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _normalize_unit_pair(self, "coefficients")


def _check_no_collapse(k: float, direction: DeformationDirection, t: float) -> None:
    if not k > 0.0:
        raise ValueError("apex height k must be positive")
    if not t >= 0.0:
        raise ValueError("deformation magnitude t must be non-negative")
    if k + t * direction.b <= 0.0:
        raise ValueError(f"deformation collapses the triangle: k + t*b = {k + t * direction.b}")


def deformation_matrix(
    apex: tuple[float, float], direction: DeformationDirection, t: float
) -> np.ndarray:
    """Affine map sending the triangle with the given apex onto the deformed one."""
    k = apex[1]
    _check_no_collapse(k, direction, t)
    return np.array(
        [[1.0, t * direction.a / k], [0.0, 1.0 + t * direction.b / k]]
    )


def inverse_metric(k: float, direction: DeformationDirection, t: float) -> InverseMetric:
    _check_no_collapse(k, direction, t)
    a, b = direction.a, direction.b
    denom = (k + t * b) ** 2
    return InverseMetric(
        A=(k * k + 2.0 * b * k * t + t * t) / denom,
        B=-t * a * k / denom,
        D=k * k / denom,
    )


def gamma_bounds(k: float, direction: DeformationDirection, t: float) -> GammaBounds:
    g = inverse_metric(k, direction, t)
    half_trace = 0.5 * (g.A + g.D)
    half_disc = 0.5 * math.sqrt((g.A - g.D) ** 2 + 4.0 * g.B * g.B)
    return GammaBounds(
        gamma_minus=half_trace - half_disc, gamma_plus=half_trace + half_disc
    )


def _spread_per_t(k: float, direction: DeformationDirection, t: float) -> float:
    """(gamma_plus - gamma_minus) / t = sqrt(4k^2 + t^2 + 4bkt) / (k + tb)^2."""
    _check_no_collapse(k, direction, t)
    b = direction.b
    return math.sqrt(4.0 * k * k + t * t + 4.0 * b * k * t) / (k + t * b) ** 2


def gamma_spread_closed_form(
    k: float, direction: DeformationDirection, t: float
) -> float:
    """gamma_plus - gamma_minus = t sqrt(4k^2 + t^2 + 4bkt) / (k + tb)^2."""
    return t * _spread_per_t(k, direction, t)


def alpha_bound(direction: DeformationDirection, t: float) -> float:
    """Relative first-order bound at the equilateral triangle.

    |lam_i(t) - lam_i| <= t * alpha_bound * lam_i; the factor is the gamma
    spread per unit t at k = sqrt3/2, 4 sqrt(3 + 2 sqrt3 b t + t^2) /
    (sqrt3 + 2tb)^2, and stays below 2.32 for t <= 0.0004 regardless of
    direction.
    """
    return _spread_per_t(EQUILATERAL_HEIGHT, direction, t)


def perturbation_operator_coeffs(
    direction: DeformationDirection, t: float
) -> dict[str, dict[str, float]]:
    """Coefficients of L, L1, L2 on (dxx, dxy, dyy) at the equilateral base.

    The deformed Laplacian splits as Delta = Delta0 + t L = Delta0 + t L1
    + t^2 L2, an exact coefficient identity (not a truncation).
    """
    _check_no_collapse(EQUILATERAL_HEIGHT, direction, t)
    a, b = direction.a, direction.b
    denom = (_SQRT3 + 2.0 * t * b) ** 2
    pref_l = 3.0 / denom  # 1/(1 + 2tb/sqrt3)^2
    coeff_l = {
        "dxx": pref_l * 4.0 * t * a * a / 3.0,
        "dxy": pref_l * (-4.0 * a / _SQRT3),
        "dyy": pref_l * (-(4.0 * b / _SQRT3 + 4.0 * t * b * b / 3.0)),
    }
    pref1 = 4.0 * _SQRT3 / denom
    coeff_l1 = {"dxx": 0.0, "dxy": -a * pref1, "dyy": -b * pref1}
    pref2 = 4.0 / denom
    coeff_l2 = {"dxx": a * a * pref2, "dxy": 0.0, "dyy": -b * b * pref2}
    return {"L": coeff_l, "L1": coeff_l1, "L2": coeff_l2}


def apply_operator(coeffs: dict[str, float], f: TrigSum) -> TrigSum:
    """Second-order operator c_xx dxx + c_xy dxy + c_yy dyy applied to f."""
    fx = f.dx()
    fy = f.dy()
    return (
        fx.dx().scaled(coeffs["dxx"])
        + fx.dy().scaled(coeffs["dxy"])
        + fy.dy().scaled(coeffs["dyy"])
    )


def _first_order_form(f: TrigSum, direction: DeformationDirection) -> float:
    """int f (L1|_{t=0} f) over the equilateral triangle, by quadrature."""
    lf = apply_operator(perturbation_operator_coeffs(direction, 0.0)["L1"], f)
    return equilateral_integral(lambda x, y: f(x, y) * lf(x, y))


def lambda1_slope(direction: DeformationDirection) -> float:
    """First-order change of lambda1: -int phi1 (L1|_{t=0}) phi1 by quadrature."""
    return -_first_order_form(phi1_trigsum(), direction)


def lambda1_slope_closed_form(direction: DeformationDirection) -> float:
    """Equals -(2b/sqrt3) lambda1 (the cross-derivative integral vanishes)."""
    return -2.0 * direction.b * LAMBDA1 / _SQRT3


def _I_coefficients(g, h):
    """(A1, A2) with I = -A1 b + A2 a, for g and h as in ``slope_gap_I``."""
    return (
        (25600.0 * math.pi**2 + 59049.0 * g) / (1800.0 * _SQRT3),
        -(6561.0 / 200.0) * h,
    )


def slope_gap_I(
    coeffs: SecondEigenspaceCoeffs, direction: DeformationDirection
) -> float:
    """Closed form of I = -int phi L1 phi + int phi1 L1 phi1.

    I is the first-order gap slope along (a, b) when the second eigenvalue
    branch follows phi = alpha u + beta v.
    """
    a, b = direction.a, direction.b
    al, be = coeffs.alpha, coeffs.beta
    g = al * al - be * be + 2.0 * _SQRT3 * al * be
    h = be * be - al * al + 2.0 * al * be / _SQRT3
    a1, a2 = _I_coefficients(g, h)
    return -a1 * b + a2 * a


def slope_gap_I_quadrature(
    coeffs: SecondEigenspaceCoeffs, direction: DeformationDirection
) -> float:
    """I evaluated directly from its defining integrals."""
    u, v = second_basis()
    phi = u.scaled(coeffs.alpha) + v.scaled(coeffs.beta)
    return -_first_order_form(phi, direction) + _first_order_form(
        phi1_trigsum(), direction
    )


def preserves_diameter(direction: DeformationDirection) -> bool:
    """Directions that keep the deformed equilateral triangle's diameter at 1."""
    return direction.a >= -1e-12 and direction.a + _SQRT3 * direction.b <= 1e-12


def _branch_coefficients(a, b):
    """(C0, C1, C2) with I = C0 - C1 cos(psi) - C2 sin(psi), psi = 2s - pi/3,
    along the direction (a, b); a and b may be floats or arrays."""
    # I = -A1 b + A2 a is affine in (g, h) = (2 cos psi, (2/sqrt3) sin psi)
    a1_0, _ = _I_coefficients(0.0, 0.0)
    a1_1, a2_1 = _I_coefficients(1.0, 1.0)
    return -a1_0 * b, 2.0 * (a1_1 - a1_0) * b, -2.0 / _SQRT3 * a2_1 * a


def slope_gap_branch_extremes(
    direction: DeformationDirection,
) -> tuple[float, float]:
    """Range of I over all unit second-eigenspace coefficients, closed form.

    Writing (alpha, beta) = (cos s, sin s) and psi = 2s - pi/3 turns I into
    C0 - C1 cos(psi) - C2 sin(psi), so the extremes are C0 -+ sqrt(C1^2+C2^2).
    """
    c0, c1, c2 = _branch_coefficients(direction.a, direction.b)
    radius = math.hypot(c1, c2)
    return (c0 - radius, c0 + radius)


@dataclass(frozen=True)
class MinimizeIResult:
    value: float
    coeffs: SecondEigenspaceCoeffs
    direction: DeformationDirection
    angle_s: float

    @property
    def closed_form_minimum(self) -> float:
        return (25600.0 * math.pi**2 - 236196.0) / (3600.0 * _SQRT3)


def minimize_I(grid: int = 10000) -> MinimizeIResult:
    """Global minimum of I over unit (alpha, beta) and diameter-preserving (a, b).

    Scans ``grid`` directions a in [0, sqrt3/2], both ends included, with
    b = -sqrt(1 - a^2), and takes each direction's lower branch extreme
    C0 - sqrt(C1^2 + C2^2) in closed form; its eigenspace angle is
    s = (atan2(C2, C1) + pi/3)/2, reported mod pi (I is pi-periodic in s).
    The scan is exact: with b = -sqrt(1 - a^2), I(s, a) = A1(s) sqrt(1 - a^2)
    + A2(s) a, and A1(s) >= (25600 pi^2 - 118098)/(1800 sqrt3) = 43.16 > 0,
    so I is concave in a for every s, and so is its minimum over s; that
    minimum lies at an end of the interval, here a = sqrt3/2 with s = pi/2.
    It is strictly positive, which is what makes the equilateral triangle a
    strict local minimum.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2 to include both ends, got {grid}")
    a = np.linspace(0.0, EQUILATERAL_HEIGHT, grid)
    b = -np.sqrt(1.0 - a * a)
    c0, c1, c2 = _branch_coefficients(a, b)
    i = int(np.argmin(c0 - np.hypot(c1, c2)))
    c0, c1, c2 = float(c0[i]), float(c1[i]), float(c2[i])
    s = (0.5 * (math.atan2(c2, c1) + math.pi / 3.0)) % math.pi
    return MinimizeIResult(
        value=c0 - math.hypot(c1, c2),
        coeffs=SecondEigenspaceCoeffs(math.cos(s), math.sin(s)),
        direction=DeformationDirection(float(a[i]), float(b[i])),
        angle_s=s,
    )
