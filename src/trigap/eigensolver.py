"""Piecewise-linear finite elements for triangle Dirichlet eigenvalues.

Uniform midpoint refinement of a triangle produces elements similar to the
parent, so local stiffness and mass matrices are exact closed forms and the
discrete eigenvalues converge at second order from above.  Two consecutive
refinement levels feed a Richardson extrapolation R, bounded by the
observed tail of the R sequence once it converges at a steady rate and by
the coarse/fine gap before that, where the raw convergence rate shows
second order; elsewhere the bound is infinite.  Each level's iteration
starts from the converged block of the level below, interpolated onto the
finer lattice.  Within a ``ladder_scope``, later calls for the same triangle
continue its ladder from the last level reached instead of restarting it.

The error bound is empirical (an asymptotic estimate with a safety factor),
not a mathematically rigorous enclosure; every result carries it as such.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .geometry import Triangle, diameter, gap_function

__all__ = [
    "Mesh",
    "AssembledSystem",
    "EigenPairs",
    "Spectrum",
    "ConvergenceError",
    "build_mesh",
    "assemble",
    "smallest_eigenpairs",
    "solve_triangle",
    "prolongate",
    "gap_with_error",
    "ladder_scope",
    "MAX_LEVEL",
    "DEFAULT_MAX_LEVEL",
]

#: Hard refinement cap (memory guard): 4**12 elements.
MAX_LEVEL = 12

#: ``gap_with_error``'s level cap when none is given.
DEFAULT_MAX_LEVEL = 10

_DEGENERATE_AREA = 1e-14

#: Acceptable observed convergence-rate window around the theoretical 4.
RATE_WINDOW = (2.5, 6.0)

#: Safety factor of the observed tail bar (see ``gap_with_error``).  The
#: true error of R is 0.93-1.06 raw tails on the closed-form shapes at
#: levels 8 and 9, and needs up to 0.79 of this bar on the window's
#: reference table (tests/data/reference_spectra.json).
TAIL_SAFETY = 2.0

#: The tail bar's gate: each eigenvalue's last two ratios are at least
#: TAIL_MIN_RATIO, and the larger is at most TAIL_RATIO_SPREAD times the
#: smaller.
TAIL_MIN_RATIO = 8.0
TAIL_RATIO_SPREAD = 1.25

#: Coarsest refinement level of the ladder in ``gap_with_error``.
MIN_LEVEL = 4

#: Relative residual |K v - lambda M v| / |K v| every returned eigenpair meets.
RESIDUAL_TOL = 1e-10

#: Iteration cap of LOBPCG.
MAX_ITERATIONS = 10000

#: Smallest angle, in degrees, from which a triangle is preconditioned by the
#: V-cycle on K at every level, and below which by the factor of K - shift*M:
#: the V-cycle's Jacobi smoothing weakens as elements flatten, and below this
#: angle it is no faster than the factor (ROADMAP.md has the tables).
MULTIGRID_MIN_ANGLE = 27.0

#: Damped Jacobi smoothing of the V-cycle: weight and sweeps on each side.
JACOBI_WEIGHT = 2.0 / 3.0
JACOBI_SWEEPS = 2

#: Relative Gram eigenvalue below which a LOBPCG search direction is dropped.
DEPENDENCE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Eigensolver failed to meet its residual tolerance within the cap."""


@dataclass(frozen=True)
class Mesh:
    """Uniform midpoint subdivision of a triangle, as a barycentric lattice.

    Level L cuts each edge into n = 2**L segments.  Lattice node (i, j),
    i, j >= 0, i + j <= n, sits at corners[0] + (i e1 + j e2) / n, where
    e1, e2 run from corners[0] to the other two corners; nodes are numbered
    row by row (i outer, j inner).  The n**2 elements are translates of the
    up element (i,j), (i+1,j), (i,j+1) and of its point reflection, the down
    element (i+1,j), (i+1,j+1), (i,j+1), so one local matrix serves all.
    ``corners`` is positively oriented.
    """

    corners: np.ndarray
    level: int

    @property
    def n(self) -> int:
        return 2**self.level


def _interior_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the interior lattice nodes, in lattice numbering order."""
    i_of = np.repeat(np.arange(1, n - 1), np.arange(n - 2, 0, -1))
    return i_of, np.arange(i_of.size) - _interior_offset(i_of, n) + 1


def _interior_offset(i: np.ndarray, n: int) -> np.ndarray:
    """Interior number of node (i, 1): rows 1..i-1 hold n-2, n-3, ... nodes."""
    return (i - 1) * (n - 1) - (i - 1) * i // 2


@dataclass(frozen=True)
class AssembledSystem:
    """P1 stiffness and mass on the interior (Dirichlet) nodes, in their
    lattice numbering order."""

    stiffness: csr_matrix
    mass: csr_matrix


@dataclass(frozen=True)
class Spectrum:
    """Extrapolated eigenvalues with empirical error bounds.

    Each error bound is its eigenvalue's observed tail bar when both
    eigenvalues passed the tail gate, and ``tail_ratios`` then holds the
    ratios (rho_{L-1}, rho_L) per eigenvalue that the gate read; otherwise
    it is the Richardson bar, and ``tail_ratios`` is None (see
    ``gap_with_error``).  Both bounds are infinite when the ladder's raw
    rates lie outside RATE_WINDOW: it has no bar it trusts.  xi is
    diameter**2 * (lambda2 - lambda1); xi_error folds both eigenvalue error
    estimates through the same scaling.  ``accuracy_met`` is xi_error <=
    target.  ``solves`` records (level, unknowns, iterations) for every
    level solved.
    """

    eigenvalues: tuple[float, float]
    error_bounds: tuple[float, float]
    levels: tuple[int, int]
    diameter: float
    xi: float
    xi_error: float
    accuracy_met: bool
    solves: tuple[tuple[int, int, int], ...] = ()
    tail_ratios: tuple[tuple[float, float], tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        l1, l2 = self.eigenvalues
        if not l1 < l2:
            raise ValueError(f"first eigenvalue must be simple: {l1} >= {l2}")
        if min(self.error_bounds) <= 0.0:
            raise ValueError("error bounds must be positive")

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0]

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[1]


@dataclass(frozen=True)
class EigenPairs:
    """One level's solve: the k requested eigenvalues, ascending, and how
    they were found.

    ``block`` holds every converged Ritz vector of the iteration as columns,
    M-orthonormal, the k eigenvectors first (``block[:, :k]``); it is the
    start for the next level through ``prolongate``, and its row count is
    the level's number of unknowns.  ``iterations`` counts the LOBPCG
    steps taken, on every level alike.
    """

    values: tuple[float, ...]
    block: np.ndarray
    iterations: int


def _as_vertices(triangle) -> np.ndarray:
    if isinstance(triangle, Triangle):
        v = np.asarray(triangle.vertices, dtype=float)
    else:
        v = np.asarray(triangle, dtype=float)
    if v.shape != (3, 2):
        raise ValueError(f"expected three 2D vertices, got shape {v.shape}")
    return v


def build_mesh(triangle, level: int) -> Mesh:
    """Subdivide a triangle into 4**level congruence classes of itself.

    Positive orientation is enforced by swapping two vertices if the input
    is clockwise; a degenerate triangle is rejected.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    v = _as_vertices(triangle)
    e1, e2 = v[1] - v[0], v[2] - v[0]
    signed = 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])
    if abs(signed) < _DEGENERATE_AREA:
        raise ValueError(f"degenerate triangle, area {abs(signed):.3e}")
    if signed < 0.0:
        v = v[[0, 2, 1]]
    return Mesh(corners=v, level=level)


def assemble(mesh: Mesh) -> AssembledSystem:
    """Closed-form P1 assembly on the interior nodes, from the 7-point stencil.

    Every interior node meets three up and three down elements, so its row
    couples it to the six lattice neighbours (i±1, j), (i, j±1), (i+1, j-1)
    and (i-1, j+1).  Each edge is shared by one up and one down element, in
    which it plays the same role, so an off-diagonal entry is twice the up
    element's local entry; the diagonal is the sum of all three roles, twice.
    Boundary nodes carry the Dirichlet condition and are left out.
    """
    n = mesh.n
    if n < 3:
        raise ValueError("mesh has no interior vertices; refine further")
    v0, v1, v2 = mesh.corners
    pts = np.array([[0.0, 0.0], (v1 - v0) / n, (v2 - v0) / n])
    # Edge-opposite gradient coefficients: grad(lambda_k) = (b_k, c_k)/(2A).
    b = pts[[1, 2, 0], 1] - pts[[2, 0, 1], 1]
    c = pts[[2, 0, 1], 0] - pts[[1, 2, 0], 0]
    element_area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    k_up = (np.outer(b, b) + np.outer(c, c)) / (4.0 * element_area)
    m_up = element_area * (np.ones((3, 3)) + np.eye(3)) / 12.0

    # (di, dj, stiffness, mass) in ascending column order within a row; the
    # up element's edges run along e1 (vertices 0-1), e2 (0-2) and e2 - e1 (1-2)
    k_e1, k_e2, k_e3 = 2.0 * k_up[0, 1], 2.0 * k_up[0, 2], 2.0 * k_up[1, 2]
    m_edge = 2.0 * m_up[0, 1]
    stencil = (
        (-1, 0, k_e1, m_edge),
        (-1, 1, k_e3, m_edge),
        (0, -1, k_e2, m_edge),
        (0, 0, 2.0 * np.trace(k_up), 6.0 * m_up[0, 0]),
        (0, 1, k_e2, m_edge),
        (1, -1, k_e3, m_edge),
        (1, 0, k_e1, m_edge),
    )
    # one stencil entry at a time, so no temporary is wider than a column
    ii, jj = _interior_nodes(n)
    present = [(ii + di >= 1) & (jj + dj >= 1) & (ii + jj + di + dj < n) for di, dj, *_ in stencil]
    indptr = np.concatenate(([0], np.cumsum(np.sum(present, axis=0)))).astype(np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    k_data, m_data = np.empty(indptr[-1]), np.empty(indptr[-1])
    slot = indptr[:-1].copy()
    for (di, dj, k_val, m_val), here in zip(stencil, present):
        at = slot[here]
        indices[at] = _interior_offset(ii[here] + di, n) + jj[here] + dj - 1
        k_data[at], m_data[at] = k_val, m_val
        slot += here
    shape = (ii.size, ii.size)
    return AssembledSystem(
        stiffness=csr_matrix((k_data, indices, indptr), shape=shape),
        mass=csr_matrix((m_data, indices, indptr), shape=shape),
    )


@lru_cache(maxsize=None)
def _prolongation(level: int) -> csr_matrix:
    """``_interpolation(level)``, built once per process and shared, read-only,
    by every solve and thread.  The kept copy is made once the build's
    temporaries are freed, so it does not hold the heap above them."""
    return _interpolation(level).copy()


def _interpolation(level: int) -> csr_matrix:
    """P1 interpolation of interior-node vectors from ``level`` to ``level + 1``.

    Coarse node (i, j) becomes fine node (2i, 2j); every other fine node is
    the midpoint of a coarse edge and takes the mean of its two ends, which
    are zero on the boundary.  The coarse space is nested in the fine one, so
    M-inner products between the columns are kept, and the coarse stiffness
    and mass are the Galerkin products P^T K P and P^T M P of the fine ones.
    """
    n = 2**level
    fi, fj = _interior_nodes(2 * n)
    oi, oj = fi % 2, fj % 2
    # the two ends of the coarse edge (one node, twice, when both are even);
    # the diagonal midpoint joins (i, j+1) and (i+1, j)
    both = oi & oj
    ends_i = np.stack([(fi - oi) // 2, (fi + oi) // 2])
    ends_j = np.stack([(fj - oj) // 2 + both, (fj + oj) // 2 - both])
    rows = np.broadcast_to(np.arange(fi.size), ends_i.shape)
    inside = (ends_i >= 1) & (ends_j >= 1) & (ends_i + ends_j <= n - 1)
    cols = _interior_offset(ends_i[inside], n) + ends_j[inside] - 1
    shape = (fi.size, (n - 1) * (n - 2) // 2)
    return coo_matrix((np.full(cols.size, 0.5), (rows[inside], cols)), shape=shape).tocsr()


def prolongate(block: np.ndarray, level: int) -> np.ndarray:
    """Interpolate the columns of ``block`` from ``level`` to ``level + 1``."""
    return _prolongation(level) @ block


def smallest_eigenpairs(
    system: AssembledSystem,
    k: int,
    shift: float = 0.0,
    start: np.ndarray | None = None,
) -> EigenPairs:
    """k smallest eigenpairs of K v = lambda M v, by block LOBPCG on k+3 vectors.

    The preconditioner follows from the triangle's shape alone.  A triangle
    whose smallest angle is at least ``MULTIGRID_MIN_ANGLE`` uses a multigrid
    V-cycle on K down to level MIN_LEVEL + 1 at every level; it ignores the
    shift, and at or below that level it is one solve with the factor of K.
    A flatter triangle uses the factor of K - shift*M at every level.
    Vectors are returned M-orthonormal.  The iteration starts from the
    columns of ``start`` (at most k+3 are used), filled up with seeded
    noise, so the result is a deterministic function of the system and the
    start.  Raises ConvergenceError if the residual tolerance is not met
    within the iteration cap; never returns a silently unconverged answer.

    A shift strictly below the first eigenvalue keeps the factorization
    positive definite and sharpens the factor when the low spectrum is
    clustered (flat triangles).  Any breakdown under a nonzero shift falls
    back to the factor of K itself.
    """
    n = system.stiffness.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if start is not None and start.shape[0] != n:
        raise ValueError(f"start block has {start.shape[0]} rows, system has {n}")
    level = bottom = _lattice_level(n)
    kk = system.stiffness
    if _smallest_angle(kk) >= MULTIGRID_MIN_ANGLE:
        bottom, shift = MIN_LEVEL + 1, 0.0
    try:
        op = kk if shift == 0.0 else (kk - shift * system.mass).tocsr()
        return _lobpcg(system, k, start, *_hierarchy(op, level, bottom))
    except (ConvergenceError, np.linalg.LinAlgError, RuntimeError):
        if shift == 0.0:
            raise
        return _lobpcg(system, k, start, *_hierarchy(kk, level, bottom))


def _lattice_level(unknowns: int) -> int:
    """Level whose lattice has ``unknowns`` = (n-1)(n-2)/2 interior nodes."""
    n = round((3.0 + math.sqrt(1.0 + 8.0 * unknowns)) / 2.0)
    return n.bit_length() - 1


def _smallest_angle(stiffness: csr_matrix) -> float:
    """Smallest angle of the triangle, in degrees, read from its stiffness.

    An edge's off-diagonal entry is -cot of the angle opposite it, so the
    most negative entry belongs to the smallest angle.
    """
    return math.degrees(math.atan2(1.0, -float(stiffness.data.min())))


def _factor(op: csr_matrix):
    return splu(
        op.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _start_block(start: np.ndarray | None, n: int, width: int) -> np.ndarray:
    """The first ``width`` columns of ``start`` (a view), filled up with seeded noise."""
    used = 0 if start is None else min(start.shape[1], width)
    if used == width:
        return start[:, :width]
    v = np.random.default_rng(0).standard_normal((n, width - used))
    return np.hstack([start[:, :used], v]) if used else v


def _rayleigh_ritz(system: AssembledSystem, w: np.ndarray):
    """M-orthonormalize the columns of w and rotate them onto Ritz vectors:
    the Ritz values and the Ritz block."""
    kk, mm = system.stiffness, system.mass
    chol = np.linalg.cholesky(w.T @ (mm @ w))
    w = solve_triangular(chol, w.T, lower=True).T
    h = w.T @ (kk @ w)
    h = 0.5 * (h + h.T)
    theta, s = np.linalg.eigh(h)
    return theta, w @ s


def _residual(system: AssembledSystem, v: np.ndarray, theta: np.ndarray, k: int):
    """K v - M v theta, v^T K v, M v, and whether the first k columns meet
    RESIDUAL_TOL."""
    mv = system.mass @ v
    resid = system.stiffness @ v
    vkv = v.T @ resid
    bound = RESIDUAL_TOL * np.linalg.norm(resid[:, :k], axis=0)
    resid -= mv * theta
    met = bool(np.all(np.linalg.norm(resid[:, :k], axis=0) <= bound))
    return resid, vkv, mv, met


def _v_cycle(grids: list, bottom, r: np.ndarray) -> np.ndarray:
    """One multigrid V-cycle for A x = r, from a zero start.

    ``grids`` runs from the finest level down, each entry the level's
    operator, its damped inverse diagonal and the prolongation from the
    level below; ``bottom`` is the factor of the coarsest operator, which
    is A itself when there are no grids.  Jacobi sweeps before and after
    the coarse correction keep the cycle symmetric.
    """
    if not grids:
        return bottom.solve(r)
    (a, jacobi, p), coarser = grids[0], grids[1:]

    def residual(x: np.ndarray) -> np.ndarray:
        out = a @ x
        return np.subtract(r, out, out=out)

    def smooth(x: np.ndarray) -> None:
        step = residual(x)
        x += np.multiply(step, jacobi, out=step)

    x = jacobi * r
    for _ in range(JACOBI_SWEEPS - 1):
        smooth(x)
    x += p @ _v_cycle(coarser, bottom, p.T @ residual(x))
    for _ in range(JACOBI_SWEEPS):
        smooth(x)
    return x


def _hierarchy(a: csr_matrix, level: int, bottom: int):
    """``_v_cycle``'s grids for operator ``a`` from ``level`` down to ``bottom``,
    with Galerkin coarse operators P^T A P, and the factor of the bottom one."""
    grids = []
    for coarse in range(level - 1, bottom - 1, -1):
        p = _prolongation(coarse)
        grids.append((a, (JACOBI_WEIGHT / a.diagonal())[:, None], p))
        a = (p.T @ (a @ p)).tocsr()
    return grids, _factor(a)


def _lobpcg(system: AssembledSystem, k: int, start, grids: list, bottom) -> EigenPairs:
    """Block LOBPCG (Knyazev 2001) preconditioned by the V-cycle of ``grids``.

    Each step searches the span of the Ritz block, its preconditioned
    residuals and the previous step's direction.  The basis is M-orthonormal
    only to rounding, so a block that passes is orthonormalized and checked
    again.
    """
    n = system.stiffness.shape[0]
    theta, v = _rayleigh_ritz(system, _start_block(start, n, min(k + 3, n)))
    direction = v[:, :0]
    for iteration in range(MAX_ITERATIONS + 1):
        step = _lobpcg_step(system, grids, bottom, v, theta, direction, k)
        if step is not None:
            theta, v, direction = step
            continue
        theta, v = _rayleigh_ritz(system, v)
        if _residual(system, v[:, :k], theta[:k], k)[3]:
            return EigenPairs(tuple(theta[:k].tolist()), block=v, iterations=iteration)
    raise ConvergenceError(
        f"residual tolerance {RESIDUAL_TOL} not reached in {MAX_ITERATIONS} iterations"
    )


def _lobpcg_step(system: AssembledSystem, grids: list, bottom, v, theta, direction, k: int):
    """The next Ritz values, block and direction (the old direction changes in
    place), or None when v's first k columns pass; at most six blocks live."""
    y, vkv, mv, met = _residual(system, v, theta, k)
    if met:
        return None
    y = _v_cycle(grids, bottom, y)
    y = _m_orthogonal_stack(mv, v, y, direction)
    del mv  # at most six blocks live
    gram = y.T @ (system.mass @ y)
    scale = 1.0 / np.sqrt(np.diag(gram))
    mu, u = np.linalg.eigh(gram * np.outer(scale, scale))
    keep = mu > DEPENDENCE_TOL * mu[-1]
    y = y @ (scale[:, None] * u[:, keep] / np.sqrt(mu[keep]))
    width = v.shape[1]
    ritz, c = _ritz_coefficients(v, vkv, y, system.stiffness @ y)
    direction = y @ c[width:, :width]
    v = v @ c[:width, :width]
    v += direction
    return ritz[:width], v, direction


def _m_orthogonal_stack(mv: np.ndarray, v: np.ndarray, *blocks: np.ndarray) -> np.ndarray:
    """The blocks side by side, each M-orthogonalized in place against v,
    given M v."""
    for _ in range(2):
        for y in blocks:
            y -= v @ (mv.T @ y)
    return np.hstack(blocks)


def _ritz_coefficients(v: np.ndarray, vkv: np.ndarray, y: np.ndarray, ky: np.ndarray):
    """Eigenpairs of K projected on the M-orthonormal basis [v, y]."""
    vky = v.T @ ky
    h = np.block([[vkv, vky], [vky.T, y.T @ ky]])
    return np.linalg.eigh(0.5 * (h + h.T))


def solve_triangle(
    triangle,
    level: int,
    k: int = 2,
    shift: float = 0.0,
    start: np.ndarray | None = None,
) -> EigenPairs:
    """Discrete k smallest Dirichlet eigenpairs at one refinement level.

    ``start`` is an initial block on this level's interior nodes, usually
    the previous level's block through ``prolongate``.
    """
    system = assemble(build_mesh(triangle, level))
    return smallest_eigenpairs(system, k, shift=shift, start=start)


def _richardson(coarse: float, fine: float) -> tuple[float, float]:
    # Second-order convergence: the remaining fine-level error is one third
    # of the observed level difference, so R = fine + (fine - coarse)/3.  The
    # bar 2|fine - R| is twice the error of the un-extrapolated fine value,
    # orders of magnitude above the error of R itself.  It bounds R until
    # the tail bar of ``_tail_bars`` takes over, and it sets the shift.
    extrapolated = fine + (fine - coarse) / 3.0
    err = max(2.0 * abs(fine - extrapolated), 1e-15)
    return extrapolated, err


def _tail_bars(extrapolated: list[tuple[float, float]]):
    """Each eigenvalue's observed tail bar and its ratios (rho_{L-1}, rho_L),
    from the last four Richardson pairs, or None unless both eigenvalues
    pass the gate (TAIL_MIN_RATIO, TAIL_RATIO_SPREAD)."""
    if len(extrapolated) < 4:
        return None
    bars, ratios = [], []
    for r in zip(*extrapolated[-4:]):
        d = [b - a for a, b in zip(r, r[1:])]
        if d[1] == 0.0 or d[2] == 0.0:
            return None
        pair = (d[0] / d[1], d[1] / d[2])
        if not (min(pair) >= TAIL_MIN_RATIO and max(pair) <= TAIL_RATIO_SPREAD * min(pair)):
            return None
        bars.append(TAIL_SAFETY * abs(d[2]) / (pair[1] - 1.0))
        ratios.append(pair)
    return tuple(bars), tuple(ratios)


def _check_request(target: float, max_level: int | None) -> None:
    """Reject a target (NaN and inf too) or a level cap that no solve could serve."""
    if not 0.0 < target < math.inf:
        raise ValueError("target accuracy must be positive and finite")
    if max_level is not None and not MIN_LEVEL < max_level <= MAX_LEVEL:
        raise ValueError(f"max_level must lie in [{MIN_LEVEL + 1}, {MAX_LEVEL}]")


def gap_with_error(triangle, target: float, max_level: int | None = None) -> Spectrum:
    """Eigenvalue pair and gap with an empirical error bound at most ``target``.

    Refines until the error estimate on xi meets the target or the level cap
    (DEFAULT_MAX_LEVEL when ``max_level`` is None) is reached.  A bar exists
    only where both eigenvalues' raw rates, the ratios of their last two
    level differences, lie in RATE_WINDOW, so from level MIN_LEVEL + 2 on;
    elsewhere the ladder is not in the regime the estimate assumes, and both
    bars are infinite.
    Each level L from MIN_LEVEL + 1 on gives each eigenvalue a Richardson
    value R_L.  Its bar is the observed tail TAIL_SAFETY * |R_L - R_{L-1}| /
    (rho_L - 1), with rho_L = (R_{L-1} - R_{L-2}) / (R_L - R_{L-1}), when
    both eigenvalues' last two ratios pass the tail gate (TAIL_MIN_RATIO,
    TAIL_RATIO_SPREAD; ``tail_ratios``), so from level MIN_LEVEL + 4 on,
    and the Richardson bar 2|f_L - R_L| of the fine level's value otherwise.
    ``accuracy_met`` is xi_error <= target; when False, the cap came first,
    and the sweep certifies from xi - xi_error when that clears its digit
    rule.  Of the shape only the diameter is read here, so the result does
    not depend on how the vertices are given.

    Called alone, the ladder starts at level MIN_LEVEL.  Inside a
    ``ladder_scope``, a call for the same vertices as the call before, at a
    target no looser and a cap no lower than the level that call reached,
    continues that call's ladder and solves only the levels above it; the
    result is the one a fresh ladder gives, since a level's solve depends
    only on the vertices, the level, the shift and the block below.
    """
    _check_request(target, max_level)
    verts = _as_vertices(triangle)
    cap = DEFAULT_MAX_LEVEL if max_level is None else max_level
    slot = _SCOPE.get()
    if slot and slot[0].continues(verts, target, cap):
        ladder = slot[0]
    else:
        ladder = _Ladder(verts.copy(), diameter(verts))
        if slot is not None:
            slot[:] = [ladder]
    try:
        return ladder.climb(target, cap)
    except BaseException:
        # a ladder cut off mid-level is never continued
        if slot is not None:
            slot.clear()
        raise


@dataclass(eq=False)
class _Ladder:
    """``gap_with_error``'s refinement state for one triangle: the level
    values and Richardson pairs so far, the solve records, the next level
    with its shift and the Ritz block below it, and the last spectrum with
    the target it was read against."""

    vertices: np.ndarray
    diameter: float
    target: float = math.inf
    level: int = MIN_LEVEL
    history: list[tuple[float, float]] = field(default_factory=list)
    extrapolated: list[tuple[float, float]] = field(default_factory=list)
    solves: list[tuple[int, int, int]] = field(default_factory=list)
    shift: float = 0.0
    block: np.ndarray | None = None
    spectrum: Spectrum | None = None

    def continues(self, vertices: np.ndarray, target: float, cap: int) -> bool:
        """Whether a call for these vertices, target and cap would pass
        every level below ``self.level`` as this ladder did: none met a
        looser target, and the cap reaches the top one."""
        same = self.vertices.tobytes() == vertices.tobytes()
        return same and target <= self.target and cap >= self.level - 1

    def climb(self, target: float, cap: int) -> Spectrum:
        """Solve the levels up to ``cap`` until xi_error <= target; the last
        spectrum, its ``accuracy_met`` read against ``target``."""
        self.target = target
        if self.spectrum is not None:
            self.spectrum = replace(self.spectrum, accuracy_met=self.spectrum.xi_error <= target)
        while self.level <= cap and (self.spectrum is None or not self.spectrum.accuracy_met):
            self._solve_level()
        assert self.spectrum is not None
        return self.spectrum

    def _solve_level(self) -> None:
        """Solve ``self.level`` and move up one level."""
        level = self.level
        # only the Ritz block crosses levels: the coarse mesh, system and
        # factor are gone before this level assembles
        start = None if self.block is None else prolongate(self.block, level - 1)
        solved = solve_triangle(self.vertices, level, k=2, shift=self.shift, start=start)
        self.level += 1
        self.block = solved.block
        self.history.append(solved.values)
        self.solves.append((level, self.block.shape[0], solved.iterations))
        if len(self.history) < 2:
            return
        (l1, e1), (l2, e2) = map(_richardson, self.history[-2], self.history[-1])
        # seed the next level's factorization just below the first eigenvalue;
        # the 4x error margin keeps K - shift*M positive definite
        self.shift = max(0.0, min(l1 - 4.0 * e1, 0.99 * l1))
        self.extrapolated.append((l1, l2))
        (e1, e2), tail_ratios = _tail_bars(self.extrapolated) or ((e1, e2), None)
        if not _rates_trusted(self.history):
            e1 = e2 = math.inf
        d = self.diameter
        xi_error = d * d * (e1 + e2)
        self.spectrum = Spectrum(
            eigenvalues=(l1, l2),
            error_bounds=(e1, e2),
            levels=(level - 1, level),
            diameter=d,
            xi=gap_function(l1, l2, d),
            xi_error=xi_error,
            accuracy_met=xi_error <= self.target,
            solves=tuple(self.solves),
            tail_ratios=tail_ratios,
        )


#: The innermost ``ladder_scope``'s slot, holding at most its one ladder;
#: None outside any scope.
_SCOPE: ContextVar[list[_Ladder] | None] = ContextVar("trigap_ladder_scope", default=None)


@contextmanager
def ladder_scope() -> Iterator[None]:
    """Let ``gap_with_error`` calls for one triangle continue a single ladder.

    Within the scope, each call continues the ladder of the call before it
    when ``gap_with_error`` allows, and otherwise starts a fresh ladder that
    replaces it; only the newest ladder is kept.  The scope lives in a
    ContextVar, so every thread has its own and needs no lock, and the
    ladder is dropped when the scope exits.
    """
    slot: list[_Ladder] = []
    token = _SCOPE.set(slot)
    try:
        yield
    finally:
        _SCOPE.reset(token)
        slot.clear()


def _rates_trusted(history: list[tuple[float, float]]) -> bool:
    """Whether each eigenvalue's raw rate, the ratio of its last two level
    differences, lies in RATE_WINDOW (every bar's gate); three levels are needed."""
    if len(history) < 3:
        return False
    lo, hi = RATE_WINDOW
    for coarse, middle, fine in zip(*history[-3:]):
        d_prev, d_last = coarse - middle, middle - fine
        if not (d_last > 0.0 and lo <= d_prev / d_last <= hi):
            return False
    return True
