"""Finite element eigensolver tests.

Independent oracles: exact Dirichlet spectra for the right isosceles,
equilateral and 30-60-90 triangles, a hand-assembled level-2 stiffness and
mass matrix for the unit right triangle, an element-by-element reference
assembly, and cold-started solves for the warm-started refinement ladder.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import eigsh

from trigap import eigensolver
from trigap.eigensolver import (
    MAX_LEVEL,
    RATE_WINDOW,
    TAIL_SAFETY,
    ConvergenceError,
    EigenPairs,
    Spectrum,
    assemble,
    build_mesh,
    gap_with_error,
    prolongate,
    smallest_eigenpairs,
    solve_triangle,
)
from trigap.geometry import EQUILATERAL_APEX, Triangle
from trigap.lame import LAMBDA1, LAMBDA2
from trigap.sweep import SweepPolicy, gap_grid

UNIT_RIGHT = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def lattice(mesh):
    """Every node of the mesh's lattice, its elements and its boundary flags.

    Node (i, j) sits at corners[0] + (i e1 + j e2) / n, numbered row by row
    (i outer, j inner); the up element (i,j), (i+1,j), (i,j+1) and the down
    element (i+1,j), (i+1,j+1), (i,j+1) are both positively oriented.  This
    is the unstructured view the element-by-element reference works on.
    """
    n = mesh.n
    i_of = np.repeat(np.arange(n + 1), np.arange(n + 1, 0, -1))
    offsets = np.concatenate(([0], np.cumsum(np.arange(n + 1, 0, -1))))
    j_of = np.arange(i_of.size) - offsets[i_of]
    v0, v1, v2 = mesh.corners
    vertices = v0 + np.outer(i_of, (v1 - v0) / n) + np.outer(j_of, (v2 - v0) / n)

    def idx(i, j):
        return offsets[i] + j

    up, down = i_of + j_of <= n - 1, i_of + j_of <= n - 2
    ui, uj, di, dj = i_of[up], j_of[up], i_of[down], j_of[down]
    elements = np.vstack(
        [
            np.column_stack([idx(ui, uj), idx(ui + 1, uj), idx(ui, uj + 1)]),
            np.column_stack([idx(di + 1, dj), idx(di + 1, dj + 1), idx(di, dj + 1)]),
        ]
    )
    boundary = (i_of == 0) | (j_of == 0) | (i_of + j_of == n)
    return vertices, elements, boundary


def test_mesh_counts_by_level():
    for level in (0, 1, 2, 3, 4):
        n = 2**level
        mesh = build_mesh(UNIT_RIGHT, level)
        vertices, elements, boundary = lattice(mesh)
        assert vertices.shape[0] == (n + 1) * (n + 2) // 2
        assert elements.shape[0] == n * n
        assert int(np.count_nonzero(boundary)) == 3 * n
        assert mesh.level == level
        if level >= 2:
            unknowns = assemble(mesh).stiffness.shape[0]
            assert unknowns == int(np.count_nonzero(~boundary))


def test_mesh_elements_positively_oriented_and_cover():
    mesh = build_mesh(UNIT_RIGHT, 3)
    v, e, _ = lattice(mesh)
    a = v[e[:, 0]]
    b = v[e[:, 1]]
    c = v[e[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    assert np.all(cross > 0.0)
    assert float(np.sum(0.5 * cross)) == pytest.approx(0.5, rel=1e-14)


def test_level2_interior_matrices_match_hand_assembly():
    mesh = build_mesh(UNIT_RIGHT, 2)
    system = assemble(mesh)
    vertices, _, boundary = lattice(mesh)
    coords = [tuple(np.round(vertices[i], 6)) for i in np.flatnonzero(~boundary)]
    order = {c: k for k, c in enumerate(coords)}
    assert set(coords) == {(0.25, 0.25), (0.25, 0.5), (0.5, 0.25)}
    p0, p1, p2 = order[(0.25, 0.25)], order[(0.25, 0.5)], order[(0.5, 0.25)]

    K = system.stiffness.toarray()
    M = system.mass.toarray()
    K_expected = np.zeros((3, 3))
    K_expected[p0, p0] = K_expected[p1, p1] = K_expected[p2, p2] = 4.0
    K_expected[p0, p1] = K_expected[p1, p0] = -1.0
    K_expected[p0, p2] = K_expected[p2, p0] = -1.0
    # the two midpoints of the hypotenuse-parallel edge are not coupled
    assert np.allclose(K, K_expected, atol=1e-14)
    M_expected = np.full((3, 3), 1.0 / 192.0)
    np.fill_diagonal(M_expected, 6.0 / 192.0)
    assert np.allclose(M, M_expected, atol=1e-16)


def test_mass_total_equals_area():
    # partition of unity: the unrestricted mass matrix sums to the area
    for apex in [(0.5, math.sqrt(3.0) / 2.0), (0.3, 0.7), (0.9, 0.1)]:
        _, _, mass_total = _elementwise_assembly(build_mesh(Triangle(*apex), 3))
        assert mass_total == pytest.approx(0.5 * apex[1], rel=1e-13)


def test_eigenvalues_decrease_under_nested_refinement():
    # conforming P1 on nested meshes: Rayleigh quotients can only improve
    prev = None
    for level in (3, 4, 5, 6):
        lam = solve_triangle(Triangle(0.0, 1.0), level).values
        if prev is not None:
            assert lam[0] < prev[0]
            assert lam[1] < prev[1]
        prev = lam


def test_right_isosceles_converges_to_half_square_spectrum():
    exact = (5.0 * math.pi**2, 10.0 * math.pi**2)
    coarse = solve_triangle(Triangle(0.0, 1.0), 6).values
    fine = solve_triangle(Triangle(0.0, 1.0), 7).values
    for i in (0, 1):
        extrap = fine[i] + (fine[i] - coarse[i]) / 3.0
        assert extrap == pytest.approx(exact[i], rel=2e-4)
        assert fine[i] > exact[i]  # upper bounds


def test_equilateral_converges_to_closed_form():
    tri = Triangle(*EQUILATERAL_APEX)
    coarse = solve_triangle(tri, 6).values
    fine = solve_triangle(tri, 7).values
    for i, exact in enumerate((LAMBDA1, LAMBDA2)):
        extrap = fine[i] + (fine[i] - coarse[i]) / 3.0
        assert extrap == pytest.approx(exact, rel=2e-4)


def test_observed_convergence_rate_is_second_order():
    tri = Triangle(*EQUILATERAL_APEX)
    lams = [solve_triangle(tri, lvl).values[0] for lvl in (4, 5, 6, 7)]
    err = [lam - LAMBDA1 for lam in lams]
    ratios = [err[i] / err[i + 1] for i in range(3)]
    for r in ratios:
        assert 3.5 <= r <= 4.5


def test_domain_monotonicity():
    # same base, higher apex contains the lower triangle
    inner = solve_triangle(Triangle(0.5, 0.8), 6).values
    outer = solve_triangle(Triangle(0.5, 0.9), 6).values
    assert inner[0] > outer[0]
    assert inner[1] > outer[1]


def test_scaling_covariance():
    # shrinking the domain by 1/2 multiplies eigenvalues by 4
    base = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))
    small = tuple((0.5 * x, 0.5 * y) for x, y in base)
    lam = smallest_eigenpairs(assemble(build_mesh(base, 5)), k=2).values
    lam_small = smallest_eigenpairs(assemble(build_mesh(small, 5)), k=2).values
    for a, b in zip(lam, lam_small):
        assert b == pytest.approx(4.0 * a, rel=1e-11)


def test_shift_breakdown_falls_back_to_unshifted(monkeypatch):
    # a smallest angle of 11.3 degrees: the factor of K - shift*M preconditions
    system = assemble(build_mesh(Triangle(0.5, 0.1), 4))
    unshifted = smallest_eigenpairs(system, k=2)
    shift = 0.5 * unshifted.values[0]
    shifted = smallest_eigenpairs(system, k=2, shift=shift)
    for a, b in zip(shifted.values, unshifted.values):
        assert a == pytest.approx(b, rel=1e-10)

    real_splu = eigensolver.splu
    stiffness = system.stiffness.tocsc()
    refused = []

    def splu_failing_when_shifted(op, **kwargs):
        if (op != stiffness).nnz:
            refused.append(op)
            raise RuntimeError("Factor is exactly singular")
        return real_splu(op, **kwargs)

    monkeypatch.setattr(eigensolver, "splu", splu_failing_when_shifted)
    fallback = smallest_eigenpairs(system, k=2, shift=shift)
    assert len(refused) == 1
    assert fallback.values == unshifted.values
    assert np.array_equal(fallback.block, unshifted.block)
    assert fallback.iterations == unshifted.iterations

    calls = []

    def splu_failing(op, **kwargs):
        calls.append(op)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(eigensolver, "splu", splu_failing)
    with pytest.raises(RuntimeError, match="singular"):
        smallest_eigenpairs(system, k=2, shift=0.0)
    assert len(calls) == 1


def test_eigenvector_vanishes_on_boundary_dofs():
    mesh = build_mesh(UNIT_RIGHT, 4)
    system = assemble(mesh)
    pairs = smallest_eigenpairs(system, k=1)
    vec = pairs.block[:, 0]
    # interior-only unknowns: the vector has exactly one entry per interior node
    _, _, boundary = lattice(mesh)
    assert vec.shape[0] == int(np.count_nonzero(~boundary))
    assert np.all(np.isfinite(vec))


def test_solve_triangle_validates_level():
    with pytest.raises(ValueError):
        solve_triangle(Triangle(0.5, 0.5), 0)
    with pytest.raises(ValueError):
        solve_triangle(Triangle(0.5, 0.5), MAX_LEVEL + 1)


def test_gap_with_error_reports_converged_spectrum():
    spectrum = gap_with_error(Triangle(0.5, 0.6), 0.5)
    assert spectrum.accuracy_met
    assert spectrum.xi_error <= 0.5
    assert spectrum.levels[-1] <= MAX_LEVEL
    assert spectrum.diameter == 1.0
    assert spectrum.xi == pytest.approx(
        spectrum.diameter**2 * (spectrum.lambda2 - spectrum.lambda1), rel=1e-12
    )
    assert spectrum.xi > 64.0 * math.pi**2 / 9.0


def test_gap_with_error_right_isosceles_brackets_exact():
    spectrum = gap_with_error(Triangle(0.0, 1.0), 1e-2)
    exact_xi = 2.0 * 5.0 * math.pi**2  # d^2 (lambda2 - lambda1) with d = sqrt(2)
    assert spectrum.accuracy_met
    assert abs(spectrum.xi - exact_xi) <= 2.0 * spectrum.xi_error
    for lam, err, exact in zip(
        spectrum.eigenvalues,
        spectrum.error_bounds,
        (5.0 * math.pi**2, 10.0 * math.pi**2),
    ):
        assert abs(lam - exact) <= 4.0 * err


def test_gap_with_error_validates_inputs():
    with pytest.raises(ValueError):
        gap_with_error(Triangle(0.5, 0.5), 0.0)
    with pytest.raises(ValueError):
        gap_with_error(Triangle(0.5, 0.5), 1.0, max_level=4)
    # a cap above the memory guard is refused, not clamped
    with pytest.raises(ValueError, match="max_level"):
        gap_with_error(Triangle(0.5, 0.5), 1.0, max_level=MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="^degenerate triangle, area"):
        gap_with_error(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), 1.0)


@pytest.mark.parametrize(
    "make_request",
    [
        lambda: gap_with_error(Triangle(0.5, 0.6), math.nan),
        lambda: SweepPolicy(initial_accuracy=math.nan),
        lambda: gap_grid(2, 2, accuracy=math.nan),
        lambda: gap_with_error(Triangle(0.5, 0.6), math.inf),
        lambda: SweepPolicy(initial_accuracy=math.inf),
        lambda: gap_grid(2, 2, accuracy=math.inf),
    ],
    ids=[
        "gap_with_error",
        "sweep_policy",
        "gap_grid",
        "gap_with_error-inf",
        "sweep_policy-inf",
        "gap_grid-inf",
    ],
)
def test_nan_target_is_rejected_before_any_solve(make_request, monkeypatch):
    # one check of a solve request serves the solver, the sweep and the grid;
    # an infinite target would stop every ladder at its first level, with no bar
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_triangle called for a rejected request")

    monkeypatch.setattr(eigensolver, "solve_triangle", no_solve)
    with pytest.raises(ValueError, match="^target accuracy must be positive and finite$"):
        make_request()


def test_thin_triangle_flags_unmet_accuracy_at_low_cap():
    # rate gating: four coarse solves of a thin triangle give no trusted bar
    spectrum = gap_with_error(Triangle(0.5, 0.02), 1e-6, max_level=7)
    assert spectrum.error_bounds == (math.inf, math.inf)
    assert spectrum.xi_error == math.inf
    assert not spectrum.accuracy_met
    assert spectrum.eigenvalues[0] > 0.0
    assert spectrum.xi > 0.0


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(
            eigenvalues=(2.0, 1.0),  # misordered
            error_bounds=(1e-3, 1e-3),
            levels=(5, 6),
            diameter=1.0,
            xi=1.0,
            xi_error=1e-3,
            accuracy_met=True,
        )


def _synthetic_ladder(ratios):
    """Level values f_4..f_8 of two eigenvalues whose Richardson values
    R_5..R_8 step by 0.1, then by 0.1 / rho_7, then by that / rho_8, for
    ratios[i] = (rho_7, rho_8) of eigenvalue i."""
    columns = []
    for base, (rho7, rho8) in zip((50.0, 120.0), ratios):
        steps = [0.1, 0.1 / rho7, 0.1 / rho7 / rho8]
        r = [base - sum(steps[:k]) for k in range(4)]
        f = [base + 1.0]
        for value in r:  # R = f + (f - c) / 3, so f = (3 R + c) / 4
            f.append((3.0 * value + f[-1]) / 4.0)
        columns.append(f)
    return {level: pair for level, pair in zip(range(4, 9), zip(*columns))}


@pytest.mark.parametrize(
    "ratios, tail",
    [
        (((16.0, 16.0), (16.0, 16.0)), True),
        (((13.0, 16.0), (16.0, 13.0)), True),
        (((7.9, 7.9), (7.9, 7.9)), False),
        (((10.0, 16.0), (10.0, 16.0)), False),
        (((16.0, 16.0), (16.0, 4.0)), False),
    ],
    ids=["16-16", "within-window", "below-8", "disagree", "one-eigenvalue"],
)
def test_tail_bar_replaces_the_richardson_bar_only_past_its_gate(ratios, tail, monkeypatch):
    values = _synthetic_ladder(ratios)

    def solve(verts, level, k=2, shift=0.0, start=None):
        return EigenPairs(values[level], block=np.zeros((1, 5)), iterations=0)

    monkeypatch.setattr(eigensolver, "solve_triangle", solve)
    monkeypatch.setattr(eigensolver, "prolongate", lambda block, level: None)
    # four Richardson values exist first at level 8
    assert gap_with_error(Triangle(0.5, 0.6), 1e-12, max_level=7).tail_ratios is None
    spectrum = gap_with_error(Triangle(0.5, 0.6), 1e-12, max_level=8)
    assert spectrum.levels == (7, 8)
    for i, (lam, err) in enumerate(zip(spectrum.eigenvalues, spectrum.error_bounds)):
        f7, f8 = values[7][i], values[8][i]
        assert lam == pytest.approx(f8 + (f8 - f7) / 3.0, rel=1e-14)
        rho7, rho8 = ratios[i]
        if tail:
            last = 0.1 / rho7 / rho8
            assert err == pytest.approx(TAIL_SAFETY * last / (rho8 - 1.0), rel=1e-9)
            assert spectrum.tail_ratios[i] == pytest.approx((rho7, rho8), rel=1e-9)
        else:
            assert err == pytest.approx(2.0 * abs(f8 - f7) / 3.0, rel=1e-12)
    if not tail:
        assert spectrum.tail_ratios is None
    assert spectrum.xi_error == pytest.approx(sum(spectrum.error_bounds), rel=1e-15)


def _elementwise_assembly(mesh):
    """Reference P1 assembly: per-element local matrices summed over all
    nodes, then restricted to the interior; also the unrestricted mass sum."""
    vertices, elements, boundary = lattice(mesh)
    pts = vertices[elements]
    b = pts[:, [1, 2, 0], 1] - pts[:, [2, 0, 1], 1]
    c = pts[:, [2, 0, 1], 0] - pts[:, [1, 2, 0], 0]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    m_local = area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    nv = vertices.shape[0]
    interior = np.flatnonzero(~boundary)
    k = coo_matrix((k_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    m = coo_matrix((m_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return k[interior][:, interior], m[interior][:, interior], float(m.sum())


@pytest.mark.parametrize(
    "vertices",
    [
        ((0.0, 0.0), (1.0, 0.0), (0.3, 0.7)),
        ((0.0, 0.0), (0.2, 0.9), (1.0, 0.0)),  # clockwise
        ((1.5, -0.5), (0.0, 0.1), (2.5, 0.4)),  # obtuse
    ],
)
def test_stencil_assembly_matches_elementwise_reference(vertices):
    mesh = build_mesh(vertices, 4)
    system = assemble(mesh)
    k_ref, m_ref, mass_total_ref = _elementwise_assembly(mesh)
    scale_k = abs(k_ref).max()
    scale_m = abs(m_ref).max()
    assert abs(system.stiffness - k_ref).max() <= 1e-12 * scale_k
    assert abs(system.mass - m_ref).max() <= 1e-12 * scale_m
    (ax, ay), (bx, by), (cx, cy) = vertices
    area = 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    assert mass_total_ref == pytest.approx(area, rel=1e-12)


def _all_at_once_assembly(n, values):
    """CSR data, indices and indptr of the n x 7 broadcast build: all seven
    stencil neighbours of every interior node at once, masked to the
    interior, each entry carrying its offset's value from ``values``."""
    offsets = np.array([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)])
    i_of = np.repeat(np.arange(1, n - 1), np.arange(n - 2, 0, -1))

    def number(i, j):
        return (i - 1) * (n - 1) - (i - 1) * i // 2 + j - 1

    j_of = np.arange(i_of.size) - number(i_of, 1) + 1
    ni, nj = i_of[:, None] + offsets[:, 0], j_of[:, None] + offsets[:, 1]
    present = (ni >= 1) & (nj >= 1) & (ni + nj <= n - 1)
    indices = number(ni[present], nj[present]).astype(np.int32)
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1)))).astype(np.int32)
    data = [np.broadcast_to(v, present.shape)[present] for v in values]
    return data, indices, indptr


@pytest.mark.parametrize("level", range(3, 10))
def test_assembly_bytes_match_the_all_at_once_build(level):
    # the stencil is built one offset at a time; its arrays must not differ
    # by a bit from the broadcast build, which held n x 7 temporaries
    system = assemble(build_mesh(((0.0, 0.0), (1.0, 0.0), (0.3, 0.7)), level))
    n = 2**level
    k, m = system.stiffness, system.mass
    # node (2, 2) is interior row n - 1 and has all seven neighbours
    row = slice(k.indptr[n - 1], k.indptr[n])
    (k_data, m_data), indices, indptr = _all_at_once_assembly(n, (k.data[row], m.data[row]))
    for got, want in [
        (k.data, k_data),
        (m.data, m_data),
        (k.indices, indices),
        (k.indptr, indptr),
        (m.indices, indices),
        (m.indptr, indptr),
    ]:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_prolongation_is_the_nested_space_embedding():
    # P1 spaces on nested lattices: K_coarse = P^T K_fine P and likewise M
    tri = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.7))
    coarse, fine = assemble(build_mesh(tri, 3)), assemble(build_mesh(tri, 4))
    p = prolongate(np.eye(coarse.stiffness.shape[0]), 3)
    assert p.shape == (fine.stiffness.shape[0], coarse.stiffness.shape[0])
    for c, f in ((coarse.stiffness, fine.stiffness), (coarse.mass, fine.mass)):
        galerkin = p.T @ (f @ p)
        assert np.allclose(galerkin, c.toarray(), rtol=0.0, atol=1e-12 * abs(c).max())


@pytest.mark.parametrize("apex", [EQUILATERAL_APEX, (0.5, 0.8647)])
def test_warm_started_ladder_matches_cold_solves(apex, monkeypatch):
    def ladder():
        solved = []
        solve = eigensolver.solve_triangle

        def recording(*args, **kwargs):
            solved.append((args[1], solve(*args, **kwargs)))
            return solved[-1][1]

        with monkeypatch.context() as m:
            m.setattr(eigensolver, "solve_triangle", recording)
            spectrum = gap_with_error(Triangle(*apex), 1e-12, max_level=7)
        return spectrum, solved

    spectrum, warm = ladder()
    # with no prolongation every level starts from seeded noise
    monkeypatch.setattr(eigensolver, "prolongate", lambda block, level: None)
    cold_spectrum, cold = ladder()

    assert spectrum.solves == tuple(
        (level, s.block.shape[0], s.iterations) for level, s in warm
    )
    assert [level for level, _ in warm] == [level for level, _ in cold] == [4, 5, 6, 7]
    for (level, w), (_, c) in zip(warm, cold):
        assert w.values == pytest.approx(c.values, rel=1e-11, abs=0.0)
        if level >= 6:
            assert w.iterations < c.iterations
    assert spectrum.levels == cold_spectrum.levels
    assert spectrum.xi == pytest.approx(cold_spectrum.xi, rel=1e-11)


def test_thin_gate_ignores_how_vertices_are_given():
    tri = Triangle(0.5, 0.04)
    v = np.array(tri.vertices)
    c, s = math.cos(0.7), math.sin(0.7)
    moved = v @ np.array([[c, s], [-s, c]]) + (2.0, -1.0)
    variants = [tri, tri.vertices, moved, v[[2, 0, 1]]]
    results = [gap_with_error(x, 1e4, max_level=7) for x in variants]
    # the rate gate leaves a thin triangle's coarse levels with no bar
    assert not results[0].accuracy_met
    assert results[0].levels == (6, 7)
    for r in results[1:]:
        assert r.accuracy_met == results[0].accuracy_met
        assert r.error_bounds == results[0].error_bounds
        assert r.levels == results[0].levels
        assert r.xi == pytest.approx(results[0].xi, rel=1e-8)


def _record_levels(monkeypatch):
    """The level values of every ``solve_triangle`` call, as they run."""
    history = []
    solve = eigensolver.solve_triangle

    def recording(*args, **kwargs):
        solved = solve(*args, **kwargs)
        history.append(solved.values)
        return solved

    monkeypatch.setattr(eigensolver, "solve_triangle", recording)
    return history


def _raw_rates(levels):
    """Each eigenvalue's ratio of its last two level differences."""
    return [(a - b) / (b - c) for a, b, c in zip(*levels[-3:])]


def test_thin_ladder_stops_at_the_first_level_past_its_rate_gate(monkeypatch):
    history = _record_levels(monkeypatch)
    spectrum = gap_with_error(Triangle(0.5, 0.05), 1e3, max_level=9)
    assert spectrum.levels == (8, 9)
    assert all(math.isfinite(e) for e in spectrum.error_bounds)
    assert spectrum.accuracy_met
    assert _raw_rates(history) == pytest.approx([3.06, 3.05], abs=0.01)
    # level 8's rates lay outside the window, so its bar was infinite
    lo, hi = RATE_WINDOW
    assert not all(lo <= r <= hi for r in _raw_rates(history[:-1]))


def test_rate_gate_holds_back_a_slow_ladder_above_height_0_05(monkeypatch):
    # apex height 0.06 converges as slowly as the thin shapes: its raw rates
    # enter RATE_WINDOW only at level 8, so the first bar is at levels (7, 8)
    history = _record_levels(monkeypatch)
    spectrum = gap_with_error(Triangle(0.5, 0.06), 1e6)
    assert spectrum.levels == (7, 8)
    assert all(math.isfinite(e) for e in spectrum.error_bounds)
    assert spectrum.accuracy_met
    assert _raw_rates(history) == pytest.approx([2.72, 2.72], abs=0.02)
    lo, hi = RATE_WINDOW
    assert not all(lo <= r <= hi for r in _raw_rates(history[:-1]))


def _geometric_ladder(ratio):
    """Level values f_4..f_7 of two eigenvalues near (50, 131) whose level
    differences start at 1e-3 and shrink ``ratio``-fold per level."""
    tails = {level: 1e-3 * ratio ** (5 - level) / (ratio - 1.0) for level in range(4, 8)}
    return {level: (50.0 + tail, 131.0 + tail) for level, tail in tails.items()}


@pytest.mark.parametrize(
    "apex, ratio, levels",
    [((0.5, 0.04), 1.7, None), ((0.5, 0.04), 4.0, (5, 6)), ((0.5, 0.6), 1.7, None)],
    ids=["thin-slow", "thin-second-order", "not-thin-slow"],
)
def test_thin_rate_gate_leaves_no_bar(apex, ratio, levels, monkeypatch):
    # the rate gate reads every ladder, whatever the shape
    values = _geometric_ladder(ratio)

    def solve(verts, level, k=2, shift=0.0, start=None):
        return EigenPairs(values[level], block=np.zeros((1, 5)), iterations=0)

    monkeypatch.setattr(eigensolver, "solve_triangle", solve)
    monkeypatch.setattr(eigensolver, "prolongate", lambda block, level: None)
    spectrum = gap_with_error(Triangle(*apex), 0.25, max_level=7)
    if levels is None:
        # the rates stay at 1.7 up to the cap: no level has a trusted bar
        assert spectrum.levels == (6, 7)
        assert spectrum.error_bounds == (math.inf, math.inf)
        assert spectrum.xi_error == math.inf
        assert not spectrum.accuracy_met
    else:
        # three levels are needed for the rates
        assert spectrum.levels == levels
        coarse, fine = values[levels[0]], values[levels[1]]
        assert spectrum.error_bounds == pytest.approx(
            [2.0 * (c - f) / 3.0 for c, f in zip(coarse, fine)], rel=1e-9
        )
        assert spectrum.accuracy_met


_CLOSED_FORM = {
    "equilateral": (EQUILATERAL_APEX, (LAMBDA1, LAMBDA2)),
    "30-60-90": ((0.75, math.sqrt(3.0) / 4.0), (112 * math.pi**2 / 9, 208 * math.pi**2 / 9)),
    "right isosceles": ((0.0, 1.0), (5.0 * math.pi**2, 10.0 * math.pi**2)),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM))
@settings(max_examples=2, deadline=None, derandomize=True)
@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    scale=st.floats(0.25, 4.0),
    order=st.permutations([0, 1, 2]),
)
def test_error_bounds_enclose_closed_form_spectra(name, angle, shift, scale, order):
    apex, exact = _CLOSED_FORM[name]
    c, s = math.cos(angle), math.sin(angle)
    base = np.array(Triangle(*apex).vertices)[order]
    vertices = scale * base @ np.array([[c, s], [-s, c]]) + shift
    exact = tuple(lam / scale**2 for lam in exact)
    for cap in range(5, 10):
        spectrum = gap_with_error(vertices, 1e-12, max_level=cap)
        assert spectrum.levels == (cap - 1, cap)
        # two levels give no rates, so cap 5 has no bar
        assert (spectrum.xi_error == math.inf) == (cap == 5)
        # levels 8 and 9 are bounded by the observed tail
        assert (spectrum.tail_ratios is not None) == (cap >= 8)
        for lam, err, ref in zip(spectrum.eigenvalues, spectrum.error_bounds, exact):
            assert abs(lam - ref) <= err
        exact_xi = spectrum.diameter**2 * (exact[1] - exact[0])
        assert abs(spectrum.xi - exact_xi) <= spectrum.xi_error


def _warm_system(apex, level=9):
    """One level of a triangle, the start its ladder gives it (the Ritz
    block of the level below, prolongated) and a shift below its first
    eigenvalue."""
    tri = Triangle(*apex)
    below = smallest_eigenpairs(assemble(build_mesh(tri, level - 1)), k=2)
    shift = 0.99 * below.values[0]
    return assemble(build_mesh(tri, level)), prolongate(below.block, level - 1), shift


def _shift_invert_reference(system, shift):
    """The two smallest eigenvalues by ARPACK in shift-invert mode."""
    values = eigsh(system.stiffness, k=2, M=system.mass, sigma=shift, return_eigenvectors=False)
    return tuple(sorted(values))


def _record_multigrid_levels(monkeypatch):
    """The levels at which a non-empty V-cycle hierarchy is built, as it runs."""
    built = []
    hierarchy = eigensolver._hierarchy

    def recording(a, level, bottom):
        grids, factor = hierarchy(a, level, bottom)
        if grids:
            built.append(level)
        return grids, factor

    monkeypatch.setattr(eigensolver, "_hierarchy", recording)
    return built


@pytest.mark.parametrize(
    "apex, level",
    # smallest angles of 60 and 45 degrees, and 27.5 just above
    # MULTIGRID_MIN_ANGLE, where Jacobi smoothing is weakest
    [((0.5, 0.8647), 9), ((0.3, 0.7), 9), ((0.5, 0.2603), 8)],
    ids=["60-degrees-level-9", "45-degrees-level-9", "27.5-degrees-level-8"],
)
def test_multigrid_path_matches_the_shift_invert_reference(apex, level, monkeypatch):
    system, start, shift = _warm_system(apex, level)
    entered = _record_multigrid_levels(monkeypatch)
    pairs = smallest_eigenpairs(system, k=2, shift=shift, start=start)
    assert entered == [level]
    assert pairs.values == pytest.approx(_shift_invert_reference(system, shift), rel=1e-10, abs=0.0)
    block = pairs.block
    assert block.shape == start.shape
    gram = block.T @ (system.mass @ block)
    assert np.allclose(gram, np.eye(block.shape[1]), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "apex, level",
    # a smallest angle of 11.3 degrees, where Jacobi smoothing would take
    # more steps than the factor, at a low level and at a multigrid one
    [((0.5, 0.1), 6), ((0.5, 0.1), 9)],
    ids=["flat-level-6", "flat-level-9"],
)
def test_factor_levels_precondition_with_the_full_shifted_factor(apex, level, monkeypatch):
    system, start, shift = _warm_system(apex, level)
    factored = []
    factor = eigensolver._factor
    monkeypatch.setattr(eigensolver, "_factor", lambda op: factored.append(op) or factor(op))
    v_cycle = eigensolver._v_cycle

    def unsmoothed(grids, bottom, r):
        assert grids == [], "V-cycle smoothing on a factor level"
        return v_cycle(grids, bottom, r)

    monkeypatch.setattr(eigensolver, "_v_cycle", unsmoothed)
    smallest_eigenpairs(system, k=2, shift=shift, start=start)
    (op,) = factored
    assert abs(op - (system.stiffness - shift * system.mass)).max() == 0.0


def test_poorly_shaped_triangle_keeps_the_direct_path(monkeypatch):
    system, start, shift = _warm_system((0.5, 0.1))
    entered = _record_multigrid_levels(monkeypatch)
    pairs = smallest_eigenpairs(system, k=2, shift=shift, start=start)
    assert entered == []
    assert pairs.values == pytest.approx(_shift_invert_reference(system, shift), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "degrees, multigrid", [(27.5, True), (26.5, False)], ids=["27.5-degrees", "26.5-degrees"]
)
def test_the_smallest_angle_alone_chooses_the_v_cycle_at_level_6(degrees, multigrid, monkeypatch):
    system, start, shift = _warm_system((0.5, 0.5 * math.tan(math.radians(degrees))), level=6)
    entered = _record_multigrid_levels(monkeypatch)
    smallest_eigenpairs(system, k=2, shift=shift, start=start)
    assert entered == ([6] if multigrid else [])


def test_smallest_angle_is_read_from_the_stiffness():
    for apex, degrees in [
        (EQUILATERAL_APEX, 60.0),
        ((0.0, 1.0), 45.0),
        ((0.75, math.sqrt(3.0) / 4.0), 30.0),
        ((0.5, 0.1), math.degrees(math.atan(0.2))),
    ]:
        stiffness = assemble(build_mesh(Triangle(*apex), 3)).stiffness
        assert eigensolver._smallest_angle(stiffness) == pytest.approx(degrees, rel=1e-12)


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM))
def test_error_bounds_enclose_closed_form_spectra_on_the_multigrid_levels(name, monkeypatch):
    # cap 9: levels (8, 9); every closed-form shape has its smallest angle
    # at or above 30 degrees, so every level above the V-cycle's bottom
    # level 5 is preconditioned by it
    apex, exact = _CLOSED_FORM[name]
    c, s = math.cos(0.4), math.sin(0.4)
    vertices = 1.5 * np.array(Triangle(*apex).vertices)[[1, 2, 0]] @ np.array(
        [[c, s], [-s, c]]
    ) + (0.3, -1.1)
    exact = tuple(lam / 1.5**2 for lam in exact)
    entered = _record_multigrid_levels(monkeypatch)
    spectrum = gap_with_error(vertices, 1e-12, max_level=9)
    assert entered == [6, 7, 8, 9]
    assert spectrum.levels == (8, 9)
    for lam, err, ref in zip(spectrum.eigenvalues, spectrum.error_bounds, exact):
        assert abs(lam - ref) <= err
    exact_xi = spectrum.diameter**2 * (exact[1] - exact[0])
    assert abs(spectrum.xi - exact_xi) <= spectrum.xi_error


def test_each_prolongation_is_built_once_over_a_level_9_ladder():
    # the ladder interpolates from levels 4..8; the V-cycle of each level
    # L in 6..9 reuses those of levels 5..L-1 for its Galerkin hierarchy,
    # 1 + 2 + 3 + 4 lookups
    eigensolver._prolongation.cache_clear()
    spectrum = gap_with_error(Triangle(0.5, 0.8647), 1e-12, max_level=9)
    assert spectrum.levels == (8, 9)
    info = eigensolver._prolongation.cache_info()
    assert info.misses == 5
    assert info.hits == 10


def test_multigrid_path_factorizes_only_the_bottom_level(monkeypatch):
    system, start, shift = _warm_system((0.5, 0.8647))
    shapes = []
    factor = eigensolver._factor
    monkeypatch.setattr(eigensolver, "_factor", lambda op: shapes.append(op.shape) or factor(op))
    smallest_eigenpairs(system, k=2, shift=shift, start=start)
    n = 2 ** (eigensolver.MIN_LEVEL + 1)
    assert shapes == [((n - 1) * (n - 2) // 2,) * 2]


def test_multigrid_working_set_stays_within_eight_blocks():
    # a block is one n x (k+3) float64 array; a LOBPCG step needs six of
    # them at once and the coarse hierarchy about one more, while keeping
    # K v, M v and the search block across a step takes about thirteen
    system, start, _ = _warm_system((0.5, 0.8647))
    block = system.stiffness.shape[0] * 5 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        smallest_eigenpairs(system, k=2, start=start)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * block


def _levels_solved(monkeypatch):
    """The level of every ``solve_triangle`` call, as they run."""
    levels = []
    solve = eigensolver.solve_triangle

    def counted(*args, **kwargs):
        levels.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_triangle", counted)
    return levels


@pytest.mark.parametrize(
    "apex, cap",
    [((0.5, 0.7), None), ((0.5, 0.8647), 8), ((0.5, 0.06), 7)],
    ids=["sweep-tighten", "corridor", "infinite-bar"],
)
def test_a_scoped_round_continues_the_ladder_of_the_round_before(apex, cap, monkeypatch):
    levels = _levels_solved(monkeypatch)
    fresh = gap_with_error(Triangle(*apex), 1e-5, max_level=cap)
    fresh_levels = levels[:]
    levels.clear()
    with eigensolver.ladder_scope():
        coarse = gap_with_error(Triangle(*apex), 0.25, max_level=cap)
        first = levels[:]
        continued = gap_with_error(Triangle(*apex), 1e-5, max_level=cap)
    # every level is solved once, and the result is the fresh ladder's
    assert first + levels[len(first):] == fresh_levels == list(range(4, fresh.levels[1] + 1))
    assert continued == fresh
    assert continued.solves == fresh.solves
    assert continued.tail_ratios == fresh.tail_ratios
    if cap == 7:
        # no bar at the cap: the second round has nothing left to solve
        assert coarse.xi_error == continued.xi_error == math.inf
        assert levels == first
    else:
        assert levels[len(first):] == [8]


def test_a_round_at_a_reached_cap_solves_nothing_and_reads_the_new_target(monkeypatch):
    triangle = Triangle(0.5, 0.7)
    levels = _levels_solved(monkeypatch)
    with eigensolver.ladder_scope():
        met = gap_with_error(triangle, 1e-5, max_level=8)
        solved = len(levels)
        missed = gap_with_error(triangle, 1e-7, max_level=8)
        assert len(levels) == solved
    assert met.levels == missed.levels == (7, 8)
    assert met.accuracy_met and not missed.accuracy_met
    assert missed == gap_with_error(triangle, 1e-7, max_level=8)


@pytest.mark.parametrize(
    "second",
    [((0.5, 0.7), 0.25, 8), ((0.5, 0.7), 1e-7, 7), ((0.5, 0.71), 1e-5, 8)],
    ids=["looser-target", "lower-cap", "other-vertices"],
)
def test_a_scoped_call_its_ladder_cannot_serve_starts_afresh(second, monkeypatch):
    apex, target, cap = second
    levels = _levels_solved(monkeypatch)
    with eigensolver.ladder_scope():
        gap_with_error(Triangle(0.5, 0.7), 1e-5, max_level=8)
        levels.clear()
        spectrum = gap_with_error(Triangle(*apex), target, max_level=cap)
    assert levels == list(range(4, spectrum.levels[1] + 1))
    assert spectrum == gap_with_error(Triangle(*apex), target, max_level=cap)


def test_calls_outside_a_scope_each_start_at_the_lowest_level(monkeypatch):
    triangle = Triangle(0.5, 0.7)
    levels = _levels_solved(monkeypatch)
    gap_with_error(triangle, 0.25)
    assert levels == [4, 5, 6, 7]
    levels.clear()
    gap_with_error(triangle, 1e-5)
    assert levels == [4, 5, 6, 7, 8]


def test_a_scope_keeps_nothing_once_it_exits(monkeypatch):
    blocks = []
    solve = eigensolver.solve_triangle

    def tracked(*args, **kwargs):
        solved = solve(*args, **kwargs)
        blocks.append(weakref.ref(solved.block))
        return solved

    monkeypatch.setattr(eigensolver, "solve_triangle", tracked)
    with eigensolver.ladder_scope():
        gap_with_error(Triangle(0.5, 0.7), 0.25)
        gc.collect()
        # the top block waits for the next round
        assert blocks[-1]() is not None
    gc.collect()
    assert [ref() for ref in blocks] == [None] * len(blocks)
    assert eigensolver._SCOPE.get() is None


def test_a_round_that_raises_leaves_no_ladder_to_continue(monkeypatch):
    levels = _levels_solved(monkeypatch)
    counted = eigensolver.solve_triangle

    def failing_at_8(*args, **kwargs):
        if args[1] == 8:
            raise ConvergenceError("level 8")
        return counted(*args, **kwargs)

    with eigensolver.ladder_scope():
        gap_with_error(Triangle(0.5, 0.7), 0.25)
        monkeypatch.setattr(eigensolver, "solve_triangle", failing_at_8)
        with pytest.raises(ConvergenceError):
            gap_with_error(Triangle(0.5, 0.7), 1e-5)
        monkeypatch.setattr(eigensolver, "solve_triangle", counted)
        levels.clear()
        gap_with_error(Triangle(0.5, 0.7), 1e-5)
    assert levels == [4, 5, 6, 7, 8]
