"""Closed-form Dirichlet spectrum of the unit equilateral triangle.

The triangle has vertices (0, 0), (1, 0), (1/2, sqrt(3)/2).  Eigenvalues are
indexed by integer pairs (m, n) subject to

    m + n = 0 (mod 3),   m != 2n,   n != 2m,   m != -n,

with eigenvalue (16 pi^2 / 27)(m^2 + n^2 - mn).  Admissible pairs organize
into six-element orbits; each orbit carries one sine series and one cosine
series of plane waves, and the eigenspace dimension of a value equals
(number of admissible pairs with that value) / 6.

Eigenfunctions are represented as explicit trigonometric sums (`TrigSum`)
so that all derivatives used elsewhere are analytic, never numeric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import EQUILATERAL_APEX
from .quadrature import integrate

__all__ = [
    "LAMBDA1",
    "LAMBDA2",
    "LAMBDA3",
    "EQUILATERAL_VERTICES",
    "LamePair",
    "EquilateralEigenvalue",
    "TrigSum",
    "eigenvalue_of_pair",
    "distinct_spectrum",
    "orbit",
    "orbit_eigenfunction",
    "phi1",
    "phi1_trigsum",
    "phi1_product_constant",
    "second_basis",
    "third_eigenfunction",
    "third_eigenfunction_trigsum",
    "diagnose_third_eigenfunction",
    "laplacian_residual",
]

_SQRT3 = math.sqrt(3.0)

#: First three distinct Dirichlet eigenvalues of the unit equilateral triangle.
LAMBDA1 = 16.0 * math.pi**2 / 3.0
LAMBDA2 = 112.0 * math.pi**2 / 9.0
LAMBDA3 = 64.0 * math.pi**2 / 3.0

EQUILATERAL_VERTICES = ((0.0, 0.0), (1.0, 0.0), EQUILATERAL_APEX)

#: L2 normalization prefactors of the closed-form eigenfunctions.
_PHI_NORM = 2.0 * math.sqrt(2.0) / 3.0**0.75
_UV_NORM = 2.0 / 3.0**0.75


@dataclass(frozen=True)
class LamePair:
    """Admissible integer index pair (m, n)."""

    m: int
    n: int

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        if (m + n) % 3 != 0:
            raise ValueError(f"(m, n)=({m}, {n}): m + n must be divisible by 3")
        if not _admissible(m, n):
            raise ValueError(
                f"(m, n)=({m}, {n}) indexes a degenerate (identically zero) mode"
            )


@dataclass(frozen=True)
class EquilateralEigenvalue:
    """One distinct eigenvalue with its multiplicity and index pairs."""

    value: float
    multiplicity: int
    representative_pairs: tuple[LamePair, ...] = field(repr=False)


class TrigSum:
    """Finite sum  sum_j c_j * trig_j(kx_j x + ky_j y),  trig in {sin, cos}.

    Closed under partial differentiation, which keeps every derivative used
    in the integral tables analytic.
    """

    __slots__ = ("coef", "kx", "ky", "is_cos")

    def __init__(self, coef, kx, ky, is_cos) -> None:
        self.coef = np.asarray(coef, dtype=float)
        self.kx = np.asarray(kx, dtype=float)
        self.ky = np.asarray(ky, dtype=float)
        self.is_cos = np.asarray(is_cos, dtype=bool)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        phase = self.kx * x + self.ky * y
        vals = np.where(self.is_cos, np.cos(phase), np.sin(phase))
        return np.squeeze(np.sum(self.coef * vals, axis=-1))

    def _diff(self, wavenumbers: np.ndarray) -> "TrigSum":
        # d/dx sin -> +k cos ; d/dx cos -> -k sin
        coef = np.where(self.is_cos, -self.coef, self.coef) * wavenumbers
        return TrigSum(coef, self.kx, self.ky, ~self.is_cos)

    def dx(self) -> "TrigSum":
        return self._diff(self.kx)

    def dy(self) -> "TrigSum":
        return self._diff(self.ky)

    def scaled(self, c: float) -> "TrigSum":
        return TrigSum(self.coef * c, self.kx, self.ky, self.is_cos)

    def __add__(self, other: "TrigSum") -> "TrigSum":
        """The sum of two series, self's waves first."""
        return TrigSum(
            np.concatenate([self.coef, other.coef]),
            np.concatenate([self.kx, other.kx]),
            np.concatenate([self.ky, other.ky]),
            np.concatenate([self.is_cos, other.is_cos]),
        )


def eigenvalue_of_pair(pair: LamePair) -> float:
    """Eigenvalue (16 pi^2/27)(m^2 + n^2 - mn) of an admissible pair."""
    m, n = pair.m, pair.n
    return (16.0 * math.pi**2 / 27.0) * (m * m + n * n - m * n)


def _admissible(m: int, n: int) -> bool:
    return (m + n) % 3 == 0 and m != 2 * n and n != 2 * m and m != -n


def distinct_spectrum(count: int) -> list[EquilateralEigenvalue]:
    """First ``count`` distinct eigenvalues, ascending, with multiplicities.

    Enumerates admissible pairs over a growing box |m|, |n| <= B.  Since
    m^2 + n^2 - mn >= (m^2 + n^2)/2, every pair outside the box has quadratic
    value above B^2/2; enumeration stops once that floor exceeds the current
    count-th candidate, which certifies completeness.
    """
    if count < 1:
        raise ValueError("count must be positive")
    box = 8
    while True:
        values: dict[int, list[tuple[int, int]]] = {}
        for m in range(-box, box + 1):
            for n in range(-box, box + 1):
                if _admissible(m, n):
                    values.setdefault(m * m + n * n - m * n, []).append((m, n))
        qs = sorted(values)
        if len(qs) >= count and qs[count - 1] < box * box / 2.0:
            out = []
            for q in qs[:count]:
                pairs = tuple(LamePair(m, n) for m, n in sorted(values[q]))
                if len(pairs) % 6 != 0:
                    raise RuntimeError(
                        f"orbit structure violated at quadratic value {q}"
                    )
                out.append(
                    EquilateralEigenvalue(
                        value=eigenvalue_of_pair(pairs[0]),
                        multiplicity=len(pairs) // 6,
                        representative_pairs=pairs,
                    )
                )
            return out
        box *= 2


def orbit(m: int, n: int) -> list[tuple[int, int]]:
    """Six-element symmetry orbit of an admissible pair, in canonical order."""
    return [(-n, m - n), (-n, -m), (n - m, -m), (n - m, n), (m, n), (m, m - n)]


def orbit_eigenfunction(m: int, n: int, kind: str = "sin") -> TrigSum:
    """Raw (unnormalized) eigenfunction built from the orbit of (m, n).

    Each orbit member (M, N) contributes trig((2 pi/3)(a x + b y/sqrt(3)))
    with (a, b) = (N, N - 2M), and the six signs alternate -,+,-,+,-,+.
    All six waves share |k|^2 = (4 pi^2/27)(3 a^2 + b^2) =
    (16 pi^2/27)(M^2 + N^2 - MN), the eigenvalue of the orbit.
    """
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    LamePair(m, n)  # validate admissibility
    coef, kx, ky, is_cos = [], [], [], []
    for j, (M, N) in enumerate(orbit(m, n)):
        a, b = N, N - 2 * M
        coef.append(-1.0 if j % 2 == 0 else 1.0)
        kx.append(2.0 * math.pi * a / 3.0)
        ky.append(2.0 * math.pi * b / (3.0 * _SQRT3))
        is_cos.append(kind == "cos")
    return TrigSum(coef, kx, ky, is_cos)


def _three_wave_sine(k: float) -> TrigSum:
    """(2 sqrt2 / 3^(3/4)) [ sin(2k y/sqrt3) - sin(k (x + y/sqrt3))
                             + sin(k (x - y/sqrt3)) ], L2-normalized."""
    c = _PHI_NORM
    return TrigSum(
        coef=[c, -c, c],
        kx=[0.0, k, k],
        ky=[2.0 * k / _SQRT3, k / _SQRT3, -k / _SQRT3],
        is_cos=[False, False, False],
    )


def phi1_trigsum() -> TrigSum:
    """L2-normalized ground state as a trigonometric sum.

    phi1 = (2 sqrt2 / 3^(3/4)) [ sin(4 pi y/sqrt3) - sin(2 pi (x + y/sqrt3))
                                 + sin(2 pi (x - y/sqrt3)) ].
    """
    return _three_wave_sine(2.0 * math.pi)


def _sine_product(x, y, prefactor: float = 1.0):
    """The ground state's product form as printed,
    prefactor sin(2 pi y/sqrt3) sin(pi(x + y/sqrt3)) sin(pi(x - y/sqrt3)),
    multiplied left to right: callers that scale the product afterwards
    rather than pass a prefactor get different last bits."""
    return (
        prefactor
        * np.sin(2.0 * np.pi * y / _SQRT3)
        * np.sin(np.pi * (x + y / _SQRT3))
        * np.sin(np.pi * (x - y / _SQRT3))
    )


@functools.cache
def phi1_product_constant() -> float:
    """Constant relating the three-sine product form to the sum form.

    The product identity as printed drops a numeric factor; the constant is
    fixed by matching the sum form at the centroid.  (It comes out to 4.)
    """
    cx, cy = 0.5, _SQRT3 / 6.0
    return float(phi1_trigsum()(cx, cy) / _PHI_NORM / _sine_product(cx, cy))


def phi1(x, y, form: str = "sum"):
    """Ground-state eigenfunction (eigenvalue 16 pi^2/3), L2-normalized.

    ``form="sum"`` evaluates the three-wave sine sum; ``form="product"``
    evaluates the factored form sin(2 pi y/sqrt3) sin(pi(x + y/sqrt3))
    sin(pi(x - y/sqrt3)) times the numerically determined constant.
    """
    if form == "sum":
        return phi1_trigsum()(x, y)
    if form == "product":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _PHI_NORM * phi1_product_constant() * _sine_product(x, y)
    raise ValueError("form must be 'sum' or 'product'")


def second_basis() -> tuple[TrigSum, TrigSum]:
    """Orthonormal basis (u, v) of the two-dimensional second eigenspace.

    u is the cosine series and v the sine series of the orbit of (1, 5),
    both with prefactor 2/3^(3/4); eigenvalue 112 pi^2/9.
    """
    u = orbit_eigenfunction(1, 5, "cos").scaled(_UV_NORM)
    v = orbit_eigenfunction(1, 5, "sin").scaled(_UV_NORM)
    return u, v


def third_eigenfunction_trigsum() -> TrigSum:
    """Validated third eigenfunction (eigenvalue 64 pi^2/3), L2-normalized.

    Built from the orbit of (6, 6); the sine series folds to three waves,
    A = (2 sqrt2/3^(3/4)) [ sin(8 pi y/sqrt3) - sin(4 pi (x + y/sqrt3))
                            + sin(4 pi (x - y/sqrt3)) ].
    """
    return _three_wave_sine(4.0 * math.pi)


def _third_eigenfunction_printed() -> TrigSum:
    """The third eigenfunction exactly as printed in the source derivation.

    Kept verbatim (including a pi inside the last wavenumber) so the
    diagnostic can demonstrate that the printed formula is not an
    eigenfunction; see ``diagnose_third_eigenfunction``.
    """
    c = 2.0 * _UV_NORM
    f = 2.0 * math.pi / 3.0
    return TrigSum(
        coef=[c, -c, -c],
        kx=[6.0 * f, 6.0 * f, 0.0],
        ky=[4.0 * _SQRT3 * f, 2.0 * _SQRT3 * f, 2.0 * _SQRT3 * math.pi * f],
        is_cos=[False, False, False],
    )


def third_eigenfunction(x, y, form: str = "validated"):
    """Third eigenfunction A(x, y); eigenvalue 64 pi^2/3.

    ``form="validated"`` (default) evaluates the orbit-reconstructed form that
    passes the boundary and eigenvalue-residual checks.  ``form="printed"``
    evaluates the published closed form verbatim, which fails those checks;
    use ``diagnose_third_eigenfunction`` for the comparison.
    """
    if form == "validated":
        return third_eigenfunction_trigsum()(x, y)
    if form == "printed":
        return _third_eigenfunction_printed()(x, y)
    raise ValueError("form must be 'validated' or 'printed'")


def _five_point_laplacian(f, x, y, center: np.ndarray, h: float):
    """Five-point Laplacian of f at (x, y), where f takes the values center."""
    return (
        np.asarray(f(x + h, y))
        + np.asarray(f(x - h, y))
        + np.asarray(f(x, y + h))
        + np.asarray(f(x, y - h))
        - 4.0 * center
    ) / (h * h)


def laplacian_residual(f, eigenvalue: float) -> float:
    """Relative sup residual of Delta f + eigenvalue f on an interior grid.

    Five-point finite-difference Laplacian sampled on interior points of the
    equilateral triangle, relative to sup |f|.  The stencil is evaluated at
    spacing h = 1e-4 and at 2h, and the two are combined as
    (4 L_h - L_{2h})/3, cancelling the h^2 truncation term; a plain stencil
    at spacing 1e-4 bottoms out near 5e-5 relative for eigenvalues of size
    ~200 (truncation ~ lambda^2 h^2 / 12), which would mask the residual of
    a genuinely wrong candidate only barely larger.  The coarser auxiliary
    sample (rather than a finer one) keeps the 1/h^2 roundoff amplification
    at the level of h.
    """
    h = 1e-4
    pts = _interior_points(margin=4.0 * h)
    x, y = pts[:, 0], pts[:, 1]
    values = np.asarray(f(x, y))
    lap = _five_point_laplacian(f, x, y, values, h)
    lap_double = _five_point_laplacian(f, x, y, values, 2.0 * h)
    resid = (4.0 * lap - lap_double) / 3.0 + eigenvalue * values
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise ValueError("function vanishes on the sample grid")
    return float(np.max(np.abs(resid))) / scale


@dataclass(frozen=True)
class ThirdEigenfunctionDiagnostic:
    """Numerical comparison of the printed and reconstructed third forms."""

    printed_residual: float
    printed_boundary_max: float
    validated_residual: float
    validated_boundary_max: float

    @property
    def printed_formula_consistent(self) -> bool:
        return self.printed_residual < 1e-5 and self.printed_boundary_max < 1e-9


def diagnose_third_eigenfunction() -> ThirdEigenfunctionDiagnostic:
    """Residual and boundary diagnostics for both third-eigenfunction forms."""
    printed = _third_eigenfunction_printed()
    validated = third_eigenfunction_trigsum()
    return ThirdEigenfunctionDiagnostic(
        printed_residual=laplacian_residual(printed, LAMBDA3),
        printed_boundary_max=_boundary_max(printed),
        validated_residual=laplacian_residual(validated, LAMBDA3),
        validated_boundary_max=_boundary_max(validated),
    )


def _interior_points(margin: float = 1e-3, per_edge: int = 25) -> np.ndarray:
    """Barycentric interior sample grid of the equilateral triangle."""
    v = np.asarray(EQUILATERAL_VERTICES)
    pts = []
    for i in range(1, per_edge):
        for j in range(1, per_edge - i):
            a = i / per_edge
            b = j / per_edge
            c = 1.0 - a - b
            if min(a, b, c) * EQUILATERAL_APEX[1] <= margin:
                continue
            pts.append(a * v[0] + b * v[1] + c * v[2])
    return np.asarray(pts)


def _boundary_max(f, samples: int = 200) -> float:
    t = np.linspace(0.0, 1.0, samples)
    v = np.asarray(EQUILATERAL_VERTICES)
    edges = [(0, 1), (1, 2), (2, 0)]
    worst = 0.0
    for i, j in edges:
        pts = np.outer(1.0 - t, v[i]) + np.outer(t, v[j])
        worst = max(worst, float(np.max(np.abs(np.asarray(f(pts[:, 0], pts[:, 1]))))))
    return worst


def equilateral_integral(f, n: int = 6) -> float:
    """Integral of f over the unit equilateral triangle: n Gauss points per
    axis on each of 256 congruent cells."""
    return integrate(f, EQUILATERAL_VERTICES, n=n)
