"""Tests for the normalized-triangle chart, diameter, and region predicate."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trigap.geometry import (
    EQUILATERAL_APEX,
    GAP_THRESHOLD,
    TauNu,
    Triangle,
    diameter,
    gap_function,
    in_sweep_region,
    scale_to_unit_diameter,
    tau_nu_to_apex,
)

SQRT3 = math.sqrt(3.0)


def test_constants():
    assert EQUILATERAL_APEX == (0.5, SQRT3 / 2.0)
    assert GAP_THRESHOLD == pytest.approx(64.0 * math.pi**2 / 9.0, rel=0, abs=0)
    # frozen decimal for quick eyeballing of logs
    assert GAP_THRESHOLD == pytest.approx(70.18385351885766, abs=1e-13)


def test_triangle_vertices():
    tri = Triangle(0.3, 0.7)
    assert tri.vertices == ((0.0, 0.0), (1.0, 0.0), (0.3, 0.7))


@pytest.mark.parametrize("bad_y", [0.0, -1.0, math.inf, math.nan])
def test_triangle_rejects_degenerate_height(bad_y):
    with pytest.raises(ValueError):
        Triangle(0.5, bad_y)


def test_diameter_known_shapes():
    assert diameter(Triangle(*EQUILATERAL_APEX)) == pytest.approx(1.0, abs=1e-15)
    assert diameter(Triangle(0.5, 0.005)) == 1.0
    assert diameter(Triangle(1.0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-15)


@given(
    x=st.floats(-2.0, 3.0, allow_nan=False),
    y=st.floats(1e-6, 3.0, allow_nan=False),
)
def test_diameter_is_longest_side(x, y):
    tri = Triangle(x, y)
    sides = (1.0, math.hypot(x, y), math.hypot(x - 1.0, y))
    assert diameter(tri) == max(sides)


@given(
    x=st.floats(0.5, 1.0),
    y=st.floats(1e-6, 1.0),
    order=st.permutations([0, 1, 2]),
)
def test_diameter_is_one_function_of_the_vertices(x, y, order):
    tri = Triangle(x, y)
    permuted = tuple(tri.vertices[k] for k in order)
    assert diameter(tri) == diameter(tri.vertices) == diameter(permuted)


def test_diameter_is_one_inside_sweep_region():
    # x >= 1/2 and x^2 + y^2 <= 1 force both slanted sides below 1
    for x, y in [(0.5, 0.005), (0.5, 0.8), (0.7, 0.7), (0.99, 0.1), (0.6, 0.79)]:
        assert in_sweep_region(x, y)
        assert diameter(Triangle(x, y)) == 1.0


def test_gap_function_value_and_validation():
    assert gap_function(1.0, 3.0, 2.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        gap_function(3.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gap_function(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gap_function(1.0, 2.0, 0.0)


@given(
    lam1=st.floats(0.1, 100.0),
    gap=st.floats(0.1, 100.0),
    scale=st.floats(0.1, 10.0),
)
def test_gap_function_scale_invariant(lam1, gap, scale):
    # eigenvalues scale as 1/s^2 while the diameter scales as s
    lam2 = lam1 + gap
    base = gap_function(lam1, lam2, 1.0)
    scaled = gap_function(lam1 / scale**2, lam2 / scale**2, scale)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_in_sweep_region_boundaries():
    assert in_sweep_region(0.5, 0.5)
    assert in_sweep_region(0.5, 0.005)
    assert not in_sweep_region(0.5, 0.004)  # below the thin strip floor
    assert not in_sweep_region(0.49, 0.5)  # left of the symmetry line
    assert not in_sweep_region(0.8, 0.7)  # outside the unit disc
    assert not in_sweep_region(1.01, 0.1)  # right of x = 1
    assert in_sweep_region(0.8, 0.59)


def test_in_sweep_region_excludes_equilateral_ball():
    ex, ey = EQUILATERAL_APEX
    assert not in_sweep_region(ex, ey)
    assert not in_sweep_region(ex, ey - 3.0e-4)  # inside the radius 4e-4 ball
    assert in_sweep_region(ex, ey - 5.25e-4)
    # diagonal offset just outside the ball, still inside the disc
    assert in_sweep_region(ex + 4.0e-4, ey - 4.0e-4)


@pytest.mark.parametrize("radius", [0.0, 4e-4, 1e-3])
def test_in_sweep_region_on_arrays_matches_scalar_calls(radius):
    ex, ey = EQUILATERAL_APEX
    # a grid through x = 1/2, x = 1, the thin strip, the unit circle and
    # the exclusion ball, with the boundary values themselves on it
    xs = np.concatenate([np.linspace(0.45, 1.05, 61), [0.5, 1.0, ex + 3e-4, 0.6]])
    ys = np.concatenate(
        [np.linspace(0.0, 1.05, 106), [0.004, 0.005, ey - 4e-4, ey - 9e-4, 0.8]]
    )
    ys = np.concatenate([ys, ey + np.linspace(-1.2e-3, 1.2e-3, 25)])
    mask = in_sweep_region(xs[None, :], ys[:, None], radius)
    assert mask.shape == (ys.size, xs.size)
    expected = [[in_sweep_region(float(x), float(y), radius) for x in xs] for y in ys]
    assert mask.tolist() == expected
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("tau,nu", [(0.0, 0.5), (2.0, 0.5), (1.0, 0.0), (1.0, 1.1)])
def test_tau_nu_validation(tau, nu):
    with pytest.raises(ValueError):
        TauNu(tau, nu)


def test_tau_nu_equilateral_is_one_one():
    x, y = tau_nu_to_apex(TauNu(1.0, 1.0))
    assert abs(x - 0.5) <= 1e-15
    assert abs(y - SQRT3 / 2.0) <= 1e-15


@given(tau=st.floats(0.01, 1.99), nu=st.floats(0.01, 1.0))
def test_tau_nu_image_is_valid_triangle(tau, nu):
    x, y = tau_nu_to_apex(TauNu(tau, nu))
    assert y > 0.0
    Triangle(x, y)


def test_scale_to_unit_diameter():
    verts = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    scaled, factor = scale_to_unit_diameter(verts)
    assert factor == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    longest = max(
        math.dist(scaled[i], scaled[j]) for i in range(3) for j in range(i + 1, 3)
    )
    assert longest == pytest.approx(1.0, abs=1e-15)
