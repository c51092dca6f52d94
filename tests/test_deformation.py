"""Tests for the linear deformation theory at the equilateral corner.

Oracles: independent quadrature of every closed form, a dense scan of the
eigenspace circle, a 2-D scan of I over eigenspace angles and
diameter-preserving directions, and a finite-difference slope from the
eigensolver.
"""

import math

import numpy as np
import pytest

from trigap.deformation import (
    EQUILATERAL_HEIGHT,
    DeformationDirection,
    SecondEigenspaceCoeffs,
    alpha_bound,
    apply_operator,
    deformation_matrix,
    gamma_bounds,
    gamma_spread_closed_form,
    inverse_metric,
    lambda1_slope,
    lambda1_slope_closed_form,
    minimize_I,
    perturbation_operator_coeffs,
    preserves_diameter,
    slope_gap_I,
    slope_gap_I_quadrature,
    slope_gap_branch_extremes,
)
from trigap.eigensolver import solve_triangle
from trigap.geometry import EQUILATERAL_APEX, Triangle
from trigap.lame import LAMBDA1

SQRT3 = math.sqrt(3.0)
WORST_DIRECTION = DeformationDirection(SQRT3 / 2.0, -0.5)
DOWN = DeformationDirection(0.0, -1.0)


def unit(a: float, b: float) -> DeformationDirection:
    n = math.hypot(a, b)
    return DeformationDirection(a / n, b / n)


def random_directions(count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    return [
        DeformationDirection(math.cos(t), math.sin(t))
        for t in rng.uniform(0.0, 2.0 * math.pi, count)
    ]


def test_direction_normalizes_and_validates():
    d = DeformationDirection(0.9999995, 0.0)
    assert d.a == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        DeformationDirection(0.5, 0.5)
    with pytest.raises(ValueError):
        SecondEigenspaceCoeffs(0.5, 0.5)


def test_deformation_matrix_doubles_height():
    # moving the apex straight up by the height doubles the triangle
    mat = deformation_matrix(EQUILATERAL_APEX, DeformationDirection(0.0, 1.0), SQRT3 / 2.0)
    assert np.allclose(mat, [[1.0, 0.0], [0.0, 2.0]], atol=1e-14)


def test_deformation_matrix_moves_apex_by_t():
    t = 0.01
    for d in random_directions(10):
        mat = np.asarray(deformation_matrix(EQUILATERAL_APEX, d, t))
        apex = np.asarray(EQUILATERAL_APEX)
        moved = mat @ apex
        assert np.allclose(moved, apex + t * np.asarray([d.a, d.b]), atol=1e-14)
        # base vertices stay fixed
        assert np.allclose(mat @ np.asarray([0.0, 0.0]), [0.0, 0.0])
        assert np.allclose(mat @ np.asarray([1.0, 0.0]), [1.0, 0.0])


def test_inverse_metric_against_direct_inverse():
    t = 0.02
    k = EQUILATERAL_HEIGHT
    for d in random_directions(10, seed=3):
        if k + t * d.b <= 0.05:
            continue
        mat = np.asarray(deformation_matrix(EQUILATERAL_APEX, d, t))
        # pull-back of the Dirichlet form under x -> M x uses inv(M^T M)
        direct = np.linalg.inv(mat.T @ mat)
        m = inverse_metric(k, d, t)
        assert np.allclose(
            [[m.A, m.B], [m.B, m.D]], direct, rtol=1e-12, atol=1e-12
        )


def test_gamma_bounds_are_inverse_metric_eigenvalues():
    k = EQUILATERAL_HEIGHT
    for d, t in [(DOWN, 4e-4), (WORST_DIRECTION, 4e-4), (unit(0.5, -0.5), 1e-3)]:
        g = gamma_bounds(k, d, t)
        m = inverse_metric(k, d, t)
        w = np.linalg.eigvalsh(np.asarray([[m.A, m.B], [m.B, m.D]]))
        assert g.gamma_minus == pytest.approx(float(w[0]), rel=1e-12)
        assert g.gamma_plus == pytest.approx(float(w[1]), rel=1e-12)
        assert g.spread == pytest.approx(gamma_spread_closed_form(k, d, t), rel=1e-9)
        assert g.gamma_minus <= 1.0 <= g.gamma_plus + 1e-12


def test_gamma_spread_shrinks_linearly():
    s1 = gamma_spread_closed_form(EQUILATERAL_HEIGHT, DOWN, 1e-3)
    s2 = gamma_spread_closed_form(EQUILATERAL_HEIGHT, DOWN, 5e-4)
    assert s1 / s2 == pytest.approx(2.0, rel=1e-3)


def test_alpha_bound_small_t():
    # at the working radius the eigenvalue variation factor is about 2.31
    val = alpha_bound(DOWN, 4e-4)
    assert val == pytest.approx(2.311, abs=2e-3)
    assert val <= 2.32
    # limit t -> 0 is 4/sqrt(3)
    assert alpha_bound(DOWN, 1e-12) == pytest.approx(4.0 / SQRT3, rel=1e-9)


def test_operator_is_linear_in_t_split():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(1e-6, 5e-2)
        d = DeformationDirection(math.cos(theta), math.sin(theta))
        coeffs = perturbation_operator_coeffs(d, t)
        for key in ("dxx", "dxy", "dyy"):
            full = coeffs["L"].get(key, 0.0)
            split = coeffs["L1"].get(key, 0.0) + t * coeffs["L2"].get(key, 0.0)
            assert full == pytest.approx(split, abs=1e-14)


def test_operator_t_zero_limit_is_first_order_part():
    # at t = 0 the generator reduces to its first-order part exactly
    coeffs = perturbation_operator_coeffs(DOWN, 0.0)
    for key in ("dxx", "dxy", "dyy"):
        assert coeffs["L"].get(key, 0.0) == pytest.approx(
            coeffs["L1"].get(key, 0.0), abs=1e-15
        )
    # straight-down motion has no mixed term and a pure d_yy generator
    assert coeffs["L1"].get("dxy", 0.0) == 0.0
    assert coeffs["L1"]["dyy"] == pytest.approx(4.0 / SQRT3, rel=1e-14)


def test_lambda1_slope_matches_closed_form():
    for d in [DOWN, WORST_DIRECTION, unit(0.6, -0.8), unit(1.0, 0.0)]:
        quad = lambda1_slope(d)
        closed = lambda1_slope_closed_form(d)
        assert quad == pytest.approx(closed, abs=1e-10)


def test_lambda1_slope_closed_form_value():
    # -2 b lambda1 / sqrt(3): pure downward motion stiffens the triangle
    assert lambda1_slope_closed_form(DOWN) == pytest.approx(
        2.0 * LAMBDA1 / SQRT3, rel=1e-14
    )


def test_lambda1_slope_against_eigensolver():
    # central finite difference of the first eigenvalue along the direction
    t = 2e-3
    ex, ey = EQUILATERAL_APEX
    for d in (DOWN, WORST_DIRECTION):
        plus = solve_triangle(Triangle(ex + t * d.a, ey + t * d.b), 7, k=1).values[0]
        minus = solve_triangle(Triangle(ex - t * d.a, ey - t * d.b), 7, k=1).values[0]
        fd = (plus - minus) / (2.0 * t)
        assert fd == pytest.approx(lambda1_slope_closed_form(d), abs=0.35)


def test_slope_gap_I_closed_matches_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = rng.uniform(0.0, 2.0 * math.pi)
        coeffs = SecondEigenspaceCoeffs(math.cos(theta), math.sin(theta))
        d = DeformationDirection(math.cos(s), math.sin(s))
        assert slope_gap_I(coeffs, d) == pytest.approx(
            slope_gap_I_quadrature(coeffs, d), abs=1e-8
        )


def test_branch_extremes_match_dense_scan():
    grid = np.linspace(0.0, 2.0 * math.pi, 4001)
    for d in (DOWN, WORST_DIRECTION, unit(0.3, -0.7)):
        lo, hi = slope_gap_branch_extremes(d)
        vals = [
            slope_gap_I(SecondEigenspaceCoeffs(math.cos(t), math.sin(t)), d)
            for t in grid
        ]
        # a 4001-point scan localizes the extremes to O(grid step squared)
        assert lo == pytest.approx(min(vals), abs=1e-4)
        assert hi == pytest.approx(max(vals), abs=1e-4)
        assert lo <= min(vals) + 1e-12
        assert hi >= max(vals) - 1e-12
        assert lo > 0.0


def test_minimize_I_closed_form_and_argmin():
    result = minimize_I(grid=2000)
    exact = (25600.0 * math.pi**2 - 236196.0) / (3600.0 * SQRT3)
    assert result.value == pytest.approx(exact, abs=1e-10)
    assert result.closed_form_minimum == pytest.approx(exact, rel=1e-15)
    assert result.coeffs.alpha == pytest.approx(0.0, abs=1e-6)
    assert result.coeffs.beta == pytest.approx(1.0, abs=1e-6)
    assert result.direction.a == pytest.approx(SQRT3 / 2.0, abs=1e-6)
    assert result.direction.b == pytest.approx(-0.5, abs=1e-6)


def test_minimize_I_matches_a_2d_scan_of_I():
    # the library scans directions only, which is exact because I is concave
    # in a for every eigenspace angle; a brute-force scan of I itself over
    # both variables checks that argument
    minimum = minimize_I().value
    angles = np.arange(180) * math.pi / 180.0
    heights = np.linspace(0.0, SQRT3 / 2.0, 181)
    samples = [
        slope_gap_I(
            SecondEigenspaceCoeffs(math.cos(s), math.sin(s)),
            DeformationDirection(a, -math.sqrt(1.0 - a * a)),
        )
        for s in angles
        for a in heights
    ]
    assert min(samples) >= minimum - 1e-12
    assert min(samples) == pytest.approx(minimum, abs=1e-3)


def test_minimize_I_needs_both_ends_of_the_cone():
    assert minimize_I(grid=2).value == minimize_I().value
    with pytest.raises(ValueError):
        minimize_I(grid=1)


def test_minimize_I_positive_everywhere_on_grid():
    # strict positivity is the local-minimum statement
    assert minimize_I(grid=500).value > 2.6


def test_minimum_attained_on_diameter_cone_boundary():
    # the argmin direction sits on the boundary ray a + sqrt(3) b = 0
    result = minimize_I(grid=2000)
    assert result.direction.a + SQRT3 * result.direction.b == pytest.approx(
        0.0, abs=1e-6
    )


def test_preserves_diameter_cone():
    assert preserves_diameter(DOWN)
    assert preserves_diameter(WORST_DIRECTION)
    assert not preserves_diameter(DeformationDirection(1.0, 0.0))
    assert not preserves_diameter(DeformationDirection(0.0, 1.0))
    assert not preserves_diameter(unit(-0.3, -0.7))


def test_seed_direction_branch_minimum():
    # along straight-down motion the slowest gap growth is well above zero
    lo, _ = slope_gap_branch_extremes(DOWN)
    assert lo == pytest.approx(43.16, abs=0.01)


def test_worst_direction_branch_minimum_is_global():
    lo, _ = slope_gap_branch_extremes(WORST_DIRECTION)
    exact = (25600.0 * math.pi**2 - 236196.0) / (3600.0 * SQRT3)
    assert lo == pytest.approx(exact, abs=1e-9)
