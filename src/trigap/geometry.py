"""Triangle moduli-space geometry.

Every triangle is normalized so that its longest side is the segment from
(0, 0) to (1, 0) and the remaining vertex (the apex) lies in the closed
region bounded by x^2 + y^2 <= 1, 1/2 <= x <= 1, y > 0.  In that chart the
base is a diameter, the equilateral triangle sits at the corner point
(1/2, sqrt(3)/2), and degenerate triangles live on the segment y -> 0.

All functions here are pure: no caching, no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Triangle",
    "TauNu",
    "EQUILATERAL_APEX",
    "GAP_THRESHOLD",
    "diameter",
    "gap_function",
    "in_sweep_region",
    "tau_nu_to_apex",
    "scale_to_unit_diameter",
]

#: Apex of the equilateral triangle with unit base.
EQUILATERAL_APEX = (0.5, math.sqrt(3.0) / 2.0)

#: Scale-invariant gap of the equilateral triangle, 64*pi^2/9; the global
#: minimum of d^2 (lambda_2 - lambda_1) over all triangles.
GAP_THRESHOLD = 64.0 * math.pi**2 / 9.0

#: Apex heights below this are left out of the sweep region.  The strip is
#: assumed to satisfy the bound: no thin-triangle estimate for it is
#: implemented or checked here (ROADMAP.md, the rest of the moduli region).
THIN_STRIP_HEIGHT = 0.005

#: Radius of the ball around the equilateral apex excluded from the sweep,
#: inside which the deformation estimate replaces numerics.
EXCLUSION_RADIUS = 4e-4


@dataclass(frozen=True)
class Triangle:
    """Triangle with vertices (0, 0), (1, 0) and (apex_x, apex_y).

    Parameters
    ----------
    apex_x, apex_y : float
        Coordinates of the apex; ``apex_y`` must be strictly positive
        (degenerate triangles are rejected).
    """

    apex_x: float
    apex_y: float

    def __post_init__(self) -> None:
        if not (self.apex_y > 0.0) or not math.isfinite(self.apex_y):
            raise ValueError(f"apex_y must be positive and finite, got {self.apex_y}")
        if not math.isfinite(self.apex_x):
            raise ValueError(f"apex_x must be finite, got {self.apex_x}")

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, 0.0), (1.0, 0.0), (self.apex_x, self.apex_y))


@dataclass(frozen=True)
class TauNu:
    """Alternative chart (tau, nu) over triangle shapes.

    tau in (0, 2) fixes the apex abscissa x = 1 - tau/2; nu in (0, 1] scales
    the apex height up to the unit circle: nu = 1 places the apex on
    x^2 + y^2 = 1, and (tau, nu) = (1, 1) is the equilateral triangle.
    """

    tau: float
    nu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < 2.0):
            raise ValueError(f"tau must lie in (0, 2), got {self.tau}")
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")


def diameter(triangle) -> float:
    """Longest side length of a ``Triangle`` or of a vertex triple."""
    v = triangle.vertices if isinstance(triangle, Triangle) else triangle
    return max(
        math.hypot(v[a][0] - v[b][0], v[a][1] - v[b][1])
        for a, b in ((0, 1), (1, 2), (2, 0))
    )


def gap_function(lambda1: float, lambda2: float, diam: float) -> float:
    """Scale-invariant spectral gap d^2 (lambda_2 - lambda_1).

    Rejects non-positive diameters and orderings with lambda_2 <= lambda_1,
    which cannot occur for a genuine Dirichlet spectrum.
    """
    if not (diam > 0.0):
        raise ValueError(f"diameter must be positive, got {diam}")
    if not (0.0 < lambda1 < lambda2):
        raise ValueError(
            f"need 0 < lambda1 < lambda2, got lambda1={lambda1}, lambda2={lambda2}"
        )
    return diam * diam * (lambda2 - lambda1)


def in_sweep_region(apex_x, apex_y, exclusion_radius: float = EXCLUSION_RADIUS):
    """Membership test for the certification sweep region.

    Closed inequalities, evaluated exactly in floating point (no epsilon
    fudging): x^2 + y^2 <= 1, 1/2 <= x <= 1, 0.005 <= y <= 1, and strict
    exclusion of the ball of ``exclusion_radius`` around the equilateral
    apex.  Takes floats or numpy arrays, which broadcast elementwise.
    """
    ex, ey = EQUILATERAL_APEX
    dx, dy = apex_x - ex, apex_y - ey
    return (
        (apex_x * apex_x + apex_y * apex_y <= 1.0)
        & (0.5 <= apex_x)
        & (apex_x <= 1.0)
        & (THIN_STRIP_HEIGHT <= apex_y)
        & (apex_y <= 1.0)
        & (dx * dx + dy * dy > exclusion_radius * exclusion_radius)
    )


def tau_nu_to_apex(coords: TauNu) -> tuple[float, float]:
    """Map (tau, nu) to apex coordinates.

    x = 1 - tau/2 and y = (nu/2) sqrt(4 - (2 - tau)^2); nu = 1 lands on the
    unit circle and (1, 1) maps to the equilateral apex.
    """
    tau, nu = coords.tau, coords.nu
    x = 1.0 - tau / 2.0
    s = 4.0 - (2.0 - tau) ** 2
    y = 0.5 * nu * math.sqrt(s)
    return (x, y)


def scale_to_unit_diameter(
    vertices: tuple[tuple[float, float], ...],
) -> tuple[tuple[tuple[float, float], ...], float]:
    """Scale an arbitrary vertex triple so its diameter is exactly 1.

    Returns the scaled vertices and the factor 1/d applied to them.  Useful
    for feeding general triangles to the scale-invariant gap.
    """
    if len(vertices) != 3:
        raise ValueError("expected exactly three vertices")
    d = diameter(vertices)
    if not (d > 0.0):
        raise ValueError("degenerate vertex set")
    f = 1.0 / d
    scaled = tuple((vx * f, vy * f) for vx, vy in vertices)
    return scaled, f
