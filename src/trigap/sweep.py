"""Certified sweep of the triangle moduli region.

The sweep walks the apex chart row by row from below.  At each grid apex it
computes the first two Dirichlet eigenvalues, turns the certified gap margin
into a radius within which an eigenvalue continuity estimate keeps the gap
above the equilateral threshold, truncates that radius to a single decimal
digit, and advances by exactly the truncated radius.  Row seeds (the first
cell of each row) set the height of the next row.  The sweep region excludes
a small ball around the equilateral apex, where the gap margin vanishes and
no positive radius exists; that ball is handled by the deformation module.

Certification is conservative: radii are computed from (xi - err) and
(A + err), so they remain valid under the solver's error estimate.  The
digit-accuracy rule requires the radius itself to be trustworthy at the
truncated decimal place: the spread between the optimistic and conservative
radii must not exceed half a unit of the 10^-(n+1) place, and cells re-solve
at tighter eigenvalue targets until it does not.

A separate coverage audit re-checks, on a fine lattice, that the emitted
balls together with the analytically handled sets (thin strip, exclusion
ball, complement of the region) leave no point of the window uncovered.
"""

from __future__ import annotations

import ctypes
import importlib
import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .eigensolver import ConvergenceError, Spectrum, gap_with_error, _check_request
from .geometry import (
    EXCLUSION_RADIUS,
    GAP_THRESHOLD,
    THIN_STRIP_HEIGHT,
    TauNu,
    Triangle,
    in_sweep_region,
    tau_nu_to_apex,
)

__all__ = [
    "CONTINUITY_FACTOR",
    "CSV_COLUMNS",
    "SweepFailure",
    "SweepWindow",
    "SweepPolicy",
    "CertifiedCell",
    "SweepState",
    "SweepResult",
    "CoverageReport",
    "GridPoint",
    "continuity_lower_bound",
    "certification_radius",
    "truncate_radius",
    "run_sweep",
    "resume_point",
    "coverage_audit",
    "gap_grid",
    "format_value",
    "csv_row",
    "format_cell_row",
    "cells_to_csv",
]

#: Constant in the continuity estimate: moving the apex (x, y) by distance t
#: changes each of the first two eigenvalues by a factor within
#: 1 +- 2.4 t / y^2, hence xi(x*, y*) >= xi - (2.4 t / y^2)(lambda1 + lambda2).
CONTINUITY_FACTOR = 2.4

#: Column order of the certified-cell CSV.
CSV_COLUMNS = (
    "j",
    "i",
    "x",
    "y",
    "lambda1",
    "lambda2",
    "xi",
    "A_sum",
    "t_prime",
    "n",
    "d",
    "t_radius",
    "err",
    "accuracy_met",
)

Solver = Callable[[Triangle, float, "int | None"], Spectrum]

#: An extension module linked to each OpenBLAS that numpy and scipy load,
#: and the suffix of that build's thread-count symbols: numpy's serves
#: ``@``, ``cholesky`` and ``eigh``; scipy's serves ``solve_triangular`` and
#: SuperLU.
_OPENBLAS_LINKS = (
    ("numpy.linalg._umath_linalg", "64_"),
    ("scipy.sparse.linalg._dsolve._superlu", ""),
)


class SweepFailure(Exception):
    """Certification cannot proceed at a specific grid cell.

    reason is one of "margin" (gap not certifiably above the threshold),
    "accuracy" (the digit rule could not be met at any allowed solver
    accuracy), or "radius" (no positive truncatable radius).
    """

    def __init__(
        self,
        reason: str,
        message: str = "",
        *,
        j: int | None = None,
        i: int | None = None,
        x: float | None = None,
        y: float | None = None,
        xi: float | None = None,
        err: float | None = None,
    ) -> None:
        self.reason = reason
        self.j = j
        self.i = i
        self.x = x
        self.y = y
        self.xi = xi
        self.err = err
        detail = message or reason
        if j is not None:
            detail += f" at cell j={j}, i={i}, apex=({x!r}, {y!r})"
            if xi is not None:
                detail += f", xi={xi!r}, err={err!r}"
        super().__init__(detail)


@dataclass(frozen=True)
class SweepWindow:
    """Axis-aligned window of apex coordinates to certify."""

    x0: float = 0.5
    x1: float = 1.0
    y0: float = THIN_STRIP_HEIGHT
    y1: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.x0 < self.x1 <= 1.0:
            raise ValueError(f"need 0.5 <= x0 < x1 <= 1, got [{self.x0}, {self.x1}]")
        if not THIN_STRIP_HEIGHT <= self.y0 < self.y1 <= 1.0:
            raise ValueError(
                f"need {THIN_STRIP_HEIGHT} <= y0 < y1 <= 1, got [{self.y0}, {self.y1}]"
            )
        if self.x0 * self.x0 + self.y0 * self.y0 > 1.0:
            raise ValueError("window start lies outside the unit disc")


@dataclass(frozen=True)
class SweepPolicy:
    """Accuracy and exclusion settings for a sweep run."""

    initial_accuracy: float = 0.25
    exclusion_radius: float = EXCLUSION_RADIUS
    max_accuracy_rounds: int = 3
    max_level: int | None = None

    def __post_init__(self) -> None:
        _check_request(self.initial_accuracy, self.max_level)
        if not self.exclusion_radius >= 0.0:
            raise ValueError("exclusion_radius must be non-negative")
        if self.max_accuracy_rounds < 0:
            raise ValueError("max_accuracy_rounds must be non-negative")


@dataclass(frozen=True)
class CertifiedCell:
    """One certified grid apex and its radius.

    The truncation invariant t_radius <= t_prime < t_radius + 10^-n is
    checked exactly in rational arithmetic (the clamped case t_prime >= 1
    is exempt; its radius is capped at 0.9 by fiat).
    """

    j: int
    i: int
    x: float
    y: float
    lambda1: float
    lambda2: float
    xi: float
    A_sum: float
    t_prime: float
    n_digits: int
    d_digit: int
    t_radius: float
    err: float
    accuracy_met: bool

    def __post_init__(self) -> None:
        if not self.xi > GAP_THRESHOLD:
            raise ValueError(
                f"cell gap {self.xi} does not exceed the threshold {GAP_THRESHOLD}"
            )
        if not self.t_radius > 0.0:
            raise ValueError("certified radius must be positive")
        if not (1 <= self.d_digit <= 9 and self.n_digits >= 1):
            raise ValueError(
                f"invalid truncation digits n={self.n_digits}, d={self.d_digit}"
            )
        if self.t_prime < 1.0:
            low = Fraction(self.d_digit, 10**self.n_digits)
            high = Fraction(self.d_digit + 1, 10**self.n_digits)
            if not low <= Fraction(self.t_prime) < high:
                raise ValueError(
                    f"truncation broken: t_radius={self.t_radius}, "
                    f"t_prime={self.t_prime}, n={self.n_digits}"
                )


#: CertifiedCell's fields, one per CSV column and in CSV_COLUMNS order.
_CELL_FIELDS = tuple(
    f for _, f in zip(CSV_COLUMNS, fields(CertifiedCell), strict=True)
)


@dataclass(frozen=True)
class SweepState:
    """Position of a sweep at a row boundary: row j starts at height y,
    after cells_emitted cells.  A value: the walk replaces it row by row."""

    j: int = 0
    y: float = THIN_STRIP_HEIGHT
    cells_emitted: int = 0


@dataclass(frozen=True)
class SweepResult:
    """Cells certified by one run_sweep call plus the final state."""

    cells: tuple[CertifiedCell, ...]
    state: SweepState
    reason: str  # "complete" | "budget" | "failed"
    failure: SweepFailure | None = None


def continuity_lower_bound(xi: float, A_sum: float, y: float, t: float) -> float:
    """Guaranteed gap at any apex within distance t of (x, y)."""
    if not y > 0.0:
        raise ValueError("apex height y must be positive")
    if not t >= 0.0:
        raise ValueError("perturbation distance t must be non-negative")
    return xi - (CONTINUITY_FACTOR * t / (y * y)) * A_sum


def certification_radius(xi: float, A_sum: float, y: float) -> float:
    """Largest t with continuity_lower_bound(xi, A, y, t) at the threshold."""
    if not y > 0.0:
        raise ValueError("apex height y must be positive")
    if not A_sum > 0.0:
        raise ValueError("eigenvalue sum must be positive")
    margin = xi - GAP_THRESHOLD
    if margin <= 0.0:
        raise SweepFailure(
            "margin", f"gap {xi} does not exceed the threshold {GAP_THRESHOLD}"
        )
    return margin * y * y / (CONTINUITY_FACTOR * A_sum)


def truncate_radius(t_prime: float) -> tuple[int, int, float]:
    """Truncate a raw radius to its leading decimal digit.

    Returns (n, d, t_radius) with t_radius = d * 10^-n, where n is the
    smallest exponent whose digit in the decimal expansion of t_prime is
    positive.  Computed in exact rational arithmetic so that
    d/10^n <= t_prime < (d+1)/10^n holds as real numbers.  Radii of 1 or
    larger clamp to 0.9 (n=1, d=9); non-positive radii fail.
    """
    if not math.isfinite(t_prime) or t_prime <= 0.0:
        raise SweepFailure("radius", f"no positive certification radius: {t_prime}")
    if t_prime >= 1.0:
        return (1, 9, 0.9)
    scaled = Fraction(t_prime)
    n = 0
    while scaled < 1:
        scaled *= 10
        n += 1
        if n > 330:
            raise SweepFailure(
                "radius", f"radius {t_prime} below representable truncation range"
            )
    d = int(scaled)
    t_radius = d * 10.0 ** (-n)
    if t_radius <= 0.0:
        raise SweepFailure("radius", f"radius {t_prime} underflows truncation")
    return (n, d, t_radius)


def _certify_cell(
    j: int,
    i: int,
    x: float,
    y: float,
    policy: SweepPolicy,
    solver: Solver,
) -> CertifiedCell:
    """Solve, derive the radius, and tighten accuracy until the digit rule holds."""
    target = policy.initial_accuracy
    for _ in range(policy.max_accuracy_rounds + 1):
        spectrum = solver(Triangle(x, y), target, policy.max_level)
        err = spectrum.xi_error
        lam1, lam2 = spectrum.eigenvalues
        xi = spectrum.xi
        a_sum = lam1 + lam2
        if xi - err > GAP_THRESHOLD:
            t_cons = certification_radius(xi - err, a_sum + err, y)
            t_opt = certification_radius(xi, a_sum, y)
            n, d, t_radius = truncate_radius(t_cons)
            tolerance = 0.5 * 10.0 ** (-(n + 1))
            spread = t_opt - t_cons
            if spread <= tolerance:
                return CertifiedCell(
                    j=j,
                    i=i,
                    x=x,
                    y=y,
                    lambda1=lam1,
                    lambda2=lam2,
                    xi=xi,
                    A_sum=a_sum,
                    t_prime=t_cons,
                    n_digits=n,
                    d_digit=d,
                    t_radius=t_radius,
                    err=err,
                    accuracy_met=True,
                )
            next_target = max(err * (tolerance / spread) * 0.5, 1e-13)
        else:
            margin = xi - GAP_THRESHOLD
            if margin <= 0.0:
                break
            next_target = max(margin / 4.0, 1e-13)
        if not spectrum.accuracy_met or next_target >= target:
            break
        target = next_target
    # the loop runs at least once, so xi and err are those of the last round
    if not xi - 2.0 * err > GAP_THRESHOLD:
        reason, message = "margin", "gap margin not certifiable"
    else:
        reason, message = "accuracy", "digit-rule accuracy not met"
    raise SweepFailure(reason, message, j=j, i=i, x=x, y=y, xi=xi, err=err)


def _advance(pos: float, t: float, limit: float) -> float:
    """Advance by the certified radius, clamped to the window edge.

    Discs spaced a full radius apart only overlap to 0.866 t between
    centers, so a window edge that falls inside the final step would be
    left with uncovered scallops; landing one extra cell (or row) exactly
    on the edge closes them.  Positions already at or past the edge
    advance normally and fail the range check, ending the row or sweep.
    """
    nxt = pos + t
    if nxt > limit and pos < limit:
        return limit
    return nxt


def _row_above(y: float, seed: CertifiedCell, window: SweepWindow) -> float:
    """Height of the row above the row at y whose first cell is seed: one
    seed radius up, clamped to the window's top edge.  This is the only
    row-height rule: the look-ahead and the emitted state of run_sweep, and
    the replay of resume_point, all take row heights from here."""
    return _advance(y, seed.t_radius, window.y1)


def _in_region(x: float, y: float, window: SweepWindow, policy: SweepPolicy) -> bool:
    """Whether a cell at (x, y) lies in the window and the sweep region: the
    check on every advanced cell and seed.  Cells only move up and right
    from the window corner, so the window's lower edges need no check."""
    in_window = x <= window.x1 and y <= window.y1
    return in_window and in_sweep_region(x, y, policy.exclusion_radius)


def _certify_row(
    j: int,
    y: float,
    row: list[CertifiedCell],
    window: SweepWindow,
    policy: SweepPolicy,
    certify: Callable[[int, int, float, float], CertifiedCell],
) -> tuple[list[CertifiedCell], SweepFailure | None]:
    """Certify row j at height y rightwards, after the cells it already has
    in ``row``, until it leaves the region.

    Each next cell sits one radius to the right of the one before; cell i at
    x comes from ``certify(j, i, x, y)``, which raises SweepFailure when the
    cell cannot be certified.  Returns the row's cells and the failure that
    ended the row early, if any.
    """
    cells = list(row)
    x = _advance(cells[-1].x, cells[-1].t_radius, window.x1) if cells else window.x0
    while _in_region(x, y, window, policy):
        try:
            cell = certify(j, len(cells), x, y)
        except SweepFailure as failure:
            return cells, failure
        cells.append(cell)
        x = _advance(x, cell.t_radius, window.x1)
    return cells, None


def _pin_blas_threads(count: int) -> list[tuple[Callable[[int], None], int]]:
    """Set each loaded OpenBLAS that exports a thread-count control to count
    threads; returns each setter with the count it had before, to be
    restored in reverse order."""
    saved = []
    for module, suffix in _OPENBLAS_LINKS:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        saved.append((set_, get()))
        set_(count)
    return saved


def _check_run(threads: int, max_rows: int | None, max_cells: int | None) -> None:
    """Reject a thread count or a budget that no sweep run could use."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if any(budget is not None and budget < 0 for budget in (max_rows, max_cells)):
        raise ValueError("max_rows and max_cells must be non-negative")


def run_sweep(
    window: SweepWindow,
    policy: SweepPolicy | None = None,
    *,
    solver: Solver | None = None,
    sink: Callable[[CertifiedCell], None] | None = None,
    resume_from: SweepState | None = None,
    threads: int = 1,
    max_rows: int | None = None,
    max_cells: int | None = None,
) -> SweepResult:
    """Execute the certification sweep over a window.

    Rows are walked bottom-up; each row left to right.  Advances that would
    overshoot a window edge land one final cell (or row) on the edge itself,
    which keeps the union of certified discs over the whole rectangle.

    A row's height depends only on the seed (first cell) of the row below,
    so the sweep runs as a chain of seeds on a pool of ``threads`` workers.
    While fewer than ``threads`` rows wait to be emitted, the next row's
    seed is solved and waited for, and the rest of that row is handed to
    the pool; the seed gives the height of the row above.  Otherwise the
    lowest row is waited for and goes out to ``sink``, its cells in (j, i)
    order.  So at most ``threads`` solves run at once, the rows above are
    solved while the lowest finishes, and with one thread the solves run
    strictly in order: seed, rest of the row, next seed.  Rows go out in
    order at any thread count, so the output does not depend on it.  The
    cells written so far determine the position: a run killed at any point
    resumes from ``resume_point`` of its cells to the same final output.
    While a pool of more than one worker runs, every loaded OpenBLAS is set
    to one thread, so the workers do not compete for cores with BLAS threads
    of their own; the setting is process-wide, and the previous counts come
    back when the run returns or raises.

    max_rows and max_cells count the rows and cells of this run, not of the
    run it resumes, and stop it at the next row boundary ("budget" result);
    rows already started past the stop are cancelled or discarded.  Budgets
    must be non-negative; 0 stops before the first row.  A cell whose gap
    margin cannot be certified, or whose digit-accuracy rule cannot be met,
    ends the run with reason "failed" and the offending cell recorded; the
    certified cells of its row still go to ``sink``, but the state stays at
    the start of that row.  A failure in a lower row is the one reported,
    whatever rows above it were started.
    """
    policy = policy if policy is not None else SweepPolicy()
    solver = solver if solver is not None else gap_with_error
    _check_run(threads, max_rows, max_cells)

    certify = partial(_certify_cell, policy=policy, solver=solver)
    state = SweepState(y=window.y0) if resume_from is None else resume_from
    first_j = state.j
    cells: list[CertifiedCell] = []
    # Started rows not yet emitted, lowest first: each future gives the
    # row's (cells, failure), or raises the SweepFailure of a failed seed.
    rows: deque[Future] = deque()
    # (j, y) of the next row to start; None once a seed has failed
    upcoming: tuple[int, float] | None = (state.j, state.y)

    def startable(j: int, y: float) -> bool:
        in_budget = max_rows is None or j - first_j < max_rows
        return in_budget and _in_region(window.x0, y, window, policy)

    pool = ThreadPoolExecutor(max_workers=threads)
    blas_threads = _pin_blas_threads(1) if threads > 1 else []
    try:
        while True:
            if not _in_region(window.x0, state.y, window, policy):
                return SweepResult(tuple(cells), state, "complete")
            if not startable(state.j, state.y) or (
                max_cells is not None and len(cells) >= max_cells
            ):
                return SweepResult(tuple(cells), state, "budget")
            while upcoming and len(rows) < threads and startable(*upcoming):
                j, y = upcoming
                seed = pool.submit(certify, j, 0, window.x0, y)
                if seed.exception() is not None:
                    rows.append(seed)
                    upcoming = None
                else:
                    row = [seed.result()]
                    rows.append(
                        pool.submit(_certify_row, j, y, row, window, policy, certify)
                    )
                    upcoming = (j + 1, _row_above(y, row[0], window))
            try:
                row, failure = rows.popleft().result()
            except SweepFailure as seed_failure:
                row, failure = [], seed_failure
            if sink is not None:
                for cell in row:
                    sink(cell)
            cells.extend(row)
            if failure is not None:
                return SweepResult(tuple(cells), state, "failed", failure)
            state = SweepState(
                state.j + 1,
                _row_above(state.y, row[0], window),
                state.cells_emitted + len(row),
            )
    finally:
        pool.shutdown(cancel_futures=True)
        for set_threads, count in reversed(blas_threads):
            set_threads(count)


def resume_point(
    cells: Sequence[CertifiedCell], window: SweepWindow, policy: SweepPolicy
) -> SweepState:
    """The position after the last complete row of ``cells``, by walking
    the rows again with each recorded cell in place of a solve.

    The walk is run_sweep's: row j starts at (x0, y_j), each next cell sits
    one radius to the right of the one before, and row j+1 starts one seed
    radius above row j.  The replay ends where the cells run out, and the
    cells of a trailing unfinished row (from a killed or failed run) are
    left out of the returned count.  Raises ValueError at the first cell
    that does not continue this window's walk: a cell of another window, an
    edited or missing cell, or cells past the end of the walk.  Positions
    compare exactly; cells read back from ``cells_to_csv`` text replay bit
    for bit, since it writes floats with 17 significant digits.
    """
    recorded = iter(cells)

    def certify(j: int, i: int, x: float, y: float) -> CertifiedCell:
        cell = next(recorded, None)
        if cell is None:
            # ends the row like a failed cell, so its cells are not counted
            raise SweepFailure("replay", "no more recorded cells")
        if (cell.j, cell.i, cell.x, cell.y) != (j, i, x, y):
            raise ValueError(
                f"cell j={cell.j}, i={cell.i} at ({cell.x!r}, {cell.y!r}) "
                f"does not continue the walk of this window's cells, where "
                f"j={j}, i={i} at ({x!r}, {y!r}) comes next"
            )
        return cell

    state = SweepState(y=window.y0)
    while _in_region(window.x0, state.y, window, policy):
        row, failure = _certify_row(state.j, state.y, [], window, policy, certify)
        if failure is not None:
            return state
        state = SweepState(
            state.j + 1,
            _row_above(state.y, row[0], window),
            state.cells_emitted + len(row),
        )
    extra = next(recorded, None)
    if extra is not None:
        raise ValueError(
            f"cell j={extra.j}, i={extra.i} lies past the end of the walk "
            f"of this window's cells"
        )
    return state


def format_value(value: object) -> str:
    """One CSV field: true/false, a plain integer, a float to 17 significant
    digits, or an empty field for a missing value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def csv_row(values: Iterable[object]) -> str:
    return ",".join(format_value(value) for value in values)


def format_cell_row(cell: CertifiedCell) -> str:
    return csv_row(getattr(cell, f.name) for f in _CELL_FIELDS)


def cells_to_csv(cells: Iterable[CertifiedCell], header: bool = True) -> str:
    lines = [",".join(CSV_COLUMNS)] if header else []
    lines.extend(format_cell_row(cell) for cell in cells)
    return "\n".join(lines) + "\n"


_PARSE = {"int": int, "float": float, "bool": lambda text: text == "true"}


def cells_from_csv(text: str) -> tuple[CertifiedCell, ...]:
    """Parse cells written by cells_to_csv; invariants re-checked on load."""
    cells: list[CertifiedCell] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(CSV_COLUMNS[0] + ","):
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"malformed cell row: {line!r}")
        values = (_PARSE[f.type](part) for f, part in zip(_CELL_FIELDS, parts))
        cells.append(CertifiedCell(*values))
    return tuple(cells)


@dataclass(frozen=True)
class CoverageReport:
    """Result of the lattice coverage audit."""

    total_points: int
    uncovered_count: int
    uncovered_sample: tuple[tuple[float, float], ...]
    spacing: float

    @property
    def passed(self) -> bool:
        return self.uncovered_count == 0


def _check_spacing(spacing: float) -> None:
    """Reject an audit lattice spacing that is not finite and positive (NaN too)."""
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"audit spacing must be finite and positive, got {spacing}")


def coverage_audit(
    cells: Sequence[CertifiedCell],
    window: SweepWindow,
    *,
    spacing: float = 1e-4,
    exclusion_radius: float = EXCLUSION_RADIUS,
    max_report: int = 50,
) -> CoverageReport:
    """Check that certified balls plus analytic sets cover a window lattice.

    A lattice point passes if it lies strictly within some cell's radius, or
    in the thin strip y < 0.005, or within the exclusion ball, or outside the
    moduli region.  Everything else is reported uncovered.
    """
    _check_spacing(spacing)
    nx = int(math.floor((window.x1 - window.x0) / spacing + 1e-9)) + 1
    ny = int(math.floor((window.y1 - window.y0) / spacing + 1e-9)) + 1
    xs = window.x0 + spacing * np.arange(nx)
    ys = window.y0 + spacing * np.arange(ny)
    covered = np.zeros((ny, nx), dtype=bool)

    # the region itself always leaves out the default ball
    ball = max(EXCLUSION_RADIUS, exclusion_radius)
    chunk = 1024
    for lo in range(0, ny, chunk):
        hi = min(lo + chunk, ny)
        covered[lo:hi] = ~in_sweep_region(xs[None, :], ys[lo:hi][:, None], ball)

    for cell in cells:
        t = cell.t_radius
        ix0 = int(np.searchsorted(xs, cell.x - t, side="left"))
        ix1 = int(np.searchsorted(xs, cell.x + t, side="right"))
        iy0 = int(np.searchsorted(ys, cell.y - t, side="left"))
        iy1 = int(np.searchsorted(ys, cell.y + t, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        sub_x = xs[ix0:ix1][None, :] - cell.x
        sub_y = ys[iy0:iy1][:, None] - cell.y
        covered[iy0:iy1, ix0:ix1] |= sub_x * sub_x + sub_y * sub_y < t * t

    missing = np.argwhere(~covered)
    sample = tuple(
        (float(xs[col]), float(ys[row])) for row, col in missing[:max_report]
    )
    return CoverageReport(
        total_points=nx * ny,
        uncovered_count=int(missing.shape[0]),
        uncovered_sample=sample,
        spacing=spacing,
    )


@dataclass(frozen=True)
class GridPoint:
    """One lattice point of the shape-space gap grid; log_xi is None where
    the solver could not produce a value."""

    tau: float
    nu: float
    log_xi: float | None


def _check_grid_request(
    tau_steps: int, nu_steps: int, accuracy: float, max_level: int | None
) -> None:
    """Reject a lattice, accuracy or level cap that no solve could use."""
    if tau_steps < 2 or nu_steps < 2:
        raise ValueError("need at least 2 steps on each axis")
    _check_request(accuracy, max_level)


def gap_grid(
    tau_steps: int,
    nu_steps: int,
    *,
    accuracy: float = 0.05,
    max_level: int | None = 8,
    solver: Solver | None = None,
) -> tuple[GridPoint, ...]:
    """Log-gap values over a uniform (tau, nu) lattice.

    tau_i = 2(i+1)/(tau_steps+1) spans (0, 2) exclusive; nu_j = (j+1)/nu_steps
    spans (0, 1] inclusive of 1.  Odd tau_steps place the equilateral point
    (1, 1) exactly on the lattice.  An accuracy or level cap no solve could
    use raises ValueError before the first solve; a point whose solve fails
    gets log_xi None.
    """
    _check_grid_request(tau_steps, nu_steps, accuracy, max_level)
    active_solver = solver if solver is not None else gap_with_error
    points: list[GridPoint] = []
    for i in range(tau_steps):
        tau = 2.0 * (i + 1) / (tau_steps + 1)
        for jj in range(nu_steps):
            nu = (jj + 1) / nu_steps
            x, y = tau_nu_to_apex(TauNu(tau, nu))
            log_xi: float | None
            try:
                spectrum = active_solver(Triangle(x, y), accuracy, max_level)
                log_xi = math.log(spectrum.xi)
            except (ValueError, ConvergenceError, SweepFailure):
                log_xi = None
            points.append(GridPoint(tau=tau, nu=nu, log_xi=log_xi))
    return tuple(points)
