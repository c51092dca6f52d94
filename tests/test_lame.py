"""Tests for the explicit equilateral-triangle spectrum and eigenfunctions.

Oracle for the spectrum: a brute-force enumeration over index pairs
|m|, |n| <= 30 of the admissible lattice (m + n divisible by 3, m != 2n,
n != 2m, m != -n), with eigenvalue (16 pi^2 / 27)(m^2 + n^2 - mn).  The
first five distinct levels and their orbit counts are frozen below.
"""

import math
from collections import Counter

import numpy as np
import pytest

from trigap.lame import (
    EQUILATERAL_VERTICES,
    LAMBDA1,
    LAMBDA2,
    LAMBDA3,
    LamePair,
    diagnose_third_eigenfunction,
    distinct_spectrum,
    eigenvalue_of_pair,
    laplacian_residual,
    orbit,
    orbit_eigenfunction,
    phi1,
    phi1_product_constant,
    phi1_trigsum,
    second_basis,
    third_eigenfunction,
    third_eigenfunction_trigsum,
)
from trigap.quadrature import integrate

# brute-force oracle output, frozen: (m^2 + n^2 - mn, pair count)
FIRST_FIVE_LEVELS = [(9, 6), (21, 12), (36, 6), (39, 12), (57, 12)]


def admissible(m: int, n: int) -> bool:
    return (m + n) % 3 == 0 and m != 2 * n and n != 2 * m and m != -n


def brute_force_levels(bound: int = 30, count: int = 5):
    quads = Counter()
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if admissible(m, n):
                quads[m * m + n * n - m * n] += 1
    levels = sorted(quads.items())
    # pair counts are only complete while q <= bound^2-ish; five is safe
    return levels[:count]


def test_brute_force_oracle_matches_frozen_table():
    assert brute_force_levels() == FIRST_FIVE_LEVELS


def test_lambda_constants():
    assert LAMBDA1 == pytest.approx(16.0 * math.pi**2 / 3.0, rel=1e-15)
    assert LAMBDA2 == pytest.approx(112.0 * math.pi**2 / 9.0, rel=1e-15)
    assert LAMBDA3 == pytest.approx(64.0 * math.pi**2 / 3.0, rel=1e-15)
    # frozen decimals
    assert LAMBDA1 == pytest.approx(52.637890139143245, abs=1e-12)
    assert LAMBDA2 == pytest.approx(122.8217436580009, abs=1e-12)
    assert LAMBDA3 == pytest.approx(210.55156055657298, abs=1e-12)


def test_distinct_spectrum_against_oracle():
    levels = distinct_spectrum(5)
    assert len(levels) == 5
    for level, (q, pairs) in zip(levels, FIRST_FIVE_LEVELS):
        assert level.value == pytest.approx(16.0 * math.pi**2 * q / 27.0, rel=1e-14)
        assert level.multiplicity == pairs // 6
        assert len(level.representative_pairs) == pairs
        for p in level.representative_pairs:
            assert admissible(p.m, p.n)
            assert p.m * p.m + p.n * p.n - p.m * p.n == q
    values = [lv.value for lv in levels]
    assert values == sorted(values)


def test_multiplicities_one_two_one_two_two():
    mults = [lv.multiplicity for lv in distinct_spectrum(5)]
    assert mults == [1, 2, 1, 2, 2]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (4, 2), (3, -3), (1, 2)])
def test_eigenvalue_of_pair_rejects_inadmissible(m, n):
    with pytest.raises(ValueError):
        eigenvalue_of_pair(LamePair(m, n))


def test_eigenvalue_of_pair_values():
    assert eigenvalue_of_pair(LamePair(3, 0)) == pytest.approx(LAMBDA1, rel=1e-15)
    assert eigenvalue_of_pair(LamePair(1, 5)) == pytest.approx(LAMBDA2, rel=1e-15)
    assert eigenvalue_of_pair(LamePair(6, 0)) == pytest.approx(LAMBDA3, rel=1e-15)


def test_orbit_structure():
    members = orbit(1, 5)
    assert len(members) == 6
    assert (1, 5) in members
    for m, n in members:
        assert admissible(m, n)
        assert m * m + n * n - m * n == 21


def _boundary_points(per_edge: int = 40):
    (ax, ay), (bx, by), (cx, cy) = EQUILATERAL_VERTICES
    t = np.linspace(0.0, 1.0, per_edge)
    xs, ys = [], []
    for (px, py), (qx, qy) in (
        ((ax, ay), (bx, by)),
        ((bx, by), (cx, cy)),
        ((cx, cy), (ax, ay)),
    ):
        xs.append(px + (qx - px) * t)
        ys.append(py + (qy - py) * t)
    return np.concatenate(xs), np.concatenate(ys)


def _interior_grid(k: int = 25):
    pts = []
    for i in range(1, k):
        for j in range(1, k - i):
            u, v = i / k, j / k
            # barycentric sample of the equilateral triangle
            x = u + 0.5 * v
            y = (math.sqrt(3.0) / 2.0) * v
            pts.append((x, y))
    arr = np.asarray(pts)
    return arr[:, 0], arr[:, 1]


def test_phi1_vanishes_on_boundary():
    bx, by = _boundary_points()
    assert float(np.max(np.abs(phi1(bx, by)))) < 1e-12


def test_phi1_positive_inside():
    ix, iy = _interior_grid()
    assert float(np.min(phi1(ix, iy))) > 0.0


def test_phi1_normalized():
    val = integrate(lambda x, y: phi1(x, y) ** 2, EQUILATERAL_VERTICES, n=6, subdivision=4)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_phi1_product_and_sum_forms_agree():
    ix, iy = _interior_grid()
    sum_form = phi1(ix, iy, form="sum")
    product_form = phi1(ix, iy, form="product")
    assert float(np.max(np.abs(sum_form - product_form))) < 1e-12
    assert phi1_product_constant() == pytest.approx(4.0, rel=1e-12)


def test_phi1_eigenfunction_residual():
    assert laplacian_residual(phi1_trigsum(), LAMBDA1) < 1e-12


def test_second_basis_residuals_and_boundary():
    u, v = second_basis()
    bx, by = _boundary_points()
    for f in (u, v):
        assert float(np.max(np.abs(f(bx, by)))) < 1e-12
        assert laplacian_residual(f, LAMBDA2) < 1e-12


def test_second_basis_orthonormal():
    u, v = second_basis()
    uu = integrate(lambda x, y: u(x, y) ** 2, EQUILATERAL_VERTICES, n=6, subdivision=4)
    vv = integrate(lambda x, y: v(x, y) ** 2, EQUILATERAL_VERTICES, n=6, subdivision=4)
    uv = integrate(lambda x, y: u(x, y) * v(x, y), EQUILATERAL_VERTICES, n=6, subdivision=4)
    assert uu == pytest.approx(1.0, rel=1e-12)
    assert vv == pytest.approx(1.0, rel=1e-12)
    assert abs(uv) < 1e-12


def test_third_eigenfunction_residual_and_boundary():
    bx, by = _boundary_points()
    assert float(np.max(np.abs(third_eigenfunction(bx, by)))) < 1e-12
    assert laplacian_residual(third_eigenfunction_trigsum(), LAMBDA3) < 1e-12


def test_printed_third_formula_is_not_an_eigenfunction():
    diag = diagnose_third_eigenfunction()
    assert not diag.printed_formula_consistent
    # the validated replacement is a genuine eigenfunction
    assert diag.validated_residual < 1e-12
    assert diag.validated_boundary_max < 1e-9
    # and the printed formula misses by a wide, unambiguous margin
    assert diag.printed_residual > 1.0


def test_trigsum_derivatives_match_finite_differences():
    f = phi1_trigsum()
    x = np.asarray([0.41, 0.52, 0.63])
    y = np.asarray([0.22, 0.40, 0.17])
    h = 1e-6
    fx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    fy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    assert np.allclose(f.dx()(x, y), fx, atol=1e-6)
    assert np.allclose(f.dy()(x, y), fy, atol=1e-6)


def test_trigsum_sum_adds_values_and_derivatives():
    p = phi1_trigsum()
    u = second_basis()[0].scaled(0.5)
    total = p + u
    # self's waves come first
    for attr in ("coef", "kx", "ky", "is_cos"):
        assert np.array_equal(
            getattr(total, attr), np.concatenate([getattr(p, attr), getattr(u, attr)])
        )
    x = np.asarray([0.41, 0.52, 0.63])
    y = np.asarray([0.22, 0.40, 0.17])
    for whole, left, right in [
        (total, p, u),
        (total.dx(), p.dx(), u.dx()),
        (total.dy(), p.dy(), u.dy()),
    ]:
        assert np.allclose(whole(x, y), left(x, y) + right(x, y), rtol=1e-13, atol=1e-12)


def test_trigsum_third_matches_callable():
    f = third_eigenfunction_trigsum()
    ix, iy = _interior_grid(10)
    assert np.allclose(f(ix, iy), third_eigenfunction(ix, iy), atol=1e-14)


def test_distinct_spectrum_validates_count():
    with pytest.raises(ValueError):
        distinct_spectrum(0)


def test_orbit_eigenfunction_is_eigenfunction_for_each_level():
    # one representative per level; residual certifies the orbit recipe
    for (m, n), lam in [
        ((3, 0), LAMBDA1),
        ((1, 5), LAMBDA2),
        ((6, 0), LAMBDA3),
    ]:
        for kind in ("cos", "sin"):
            f = orbit_eigenfunction(m, n, kind=kind)
            vals = np.abs(f(*_interior_grid(12)))
            if float(np.max(vals)) < 1e-12:
                continue  # the symmetric member collapses to zero
            assert laplacian_residual(f, lam) < 1e-12
