"""Tests for the certified sweep: radii, truncation, orchestration, audit."""

import ctypes
import importlib
import itertools
import math
import threading
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigap import eigensolver
from trigap.eigensolver import ConvergenceError, EigenPairs, Spectrum, gap_with_error
from trigap.geometry import EQUILATERAL_APEX, GAP_THRESHOLD, Triangle
from trigap.sweep import (
    CONTINUITY_FACTOR,
    CSV_COLUMNS,
    CertifiedCell,
    SweepFailure,
    SweepPolicy,
    SweepState,
    SweepWindow,
    cells_from_csv,
    cells_to_csv,
    certification_radius,
    continuity_lower_bound,
    coverage_audit,
    csv_row,
    format_cell_row,
    format_value,
    gap_grid,
    resume_point,
    run_sweep,
    truncate_radius,
)


def make_solver(lam1=53.0, lam2=131.0, err=1e-9, met=True):
    """Solver stub with a constant comfortable spectrum."""

    def solver(triangle, target, max_level=None):
        return Spectrum(
            eigenvalues=(lam1, lam2),
            error_bounds=(err / 2.0, err / 2.0),
            levels=(6, 7),
            diameter=1.0,
            xi=lam2 - lam1,
            xi_error=err,
            accuracy_met=met,
        )

    return solver


WINDOW = SweepWindow(0.5, 0.52, 0.4, 0.42)
POLICY = SweepPolicy()


def replayed(cells, window=WINDOW):
    """The resume position of the given cells on the default policy."""
    return resume_point(cells, window, POLICY)


# ---------------------------------------------------------------- radii


def test_continuity_bound_formula():
    assert continuity_lower_bound(80.0, 200.0, 0.5, 1e-3) == pytest.approx(
        80.0 - CONTINUITY_FACTOR * 1e-3 / 0.25 * 200.0
    )
    assert continuity_lower_bound(80.0, 200.0, 0.5, 0.0) == 80.0


@pytest.mark.parametrize("t", [-1e-3, math.nan])
def test_continuity_bound_rejects_a_negative_or_nan_distance(t):
    with pytest.raises(ValueError, match="non-negative"):
        continuity_lower_bound(80.0, 200.0, 0.5, t)


def test_certification_radius_inverts_continuity_bound():
    xi, a_sum, y = 90.0, 350.0, 0.61
    t = certification_radius(xi, a_sum, y)
    assert continuity_lower_bound(xi, a_sum, y, t) == pytest.approx(
        GAP_THRESHOLD, rel=1e-12
    )


def test_certification_radius_fails_at_or_below_threshold():
    with pytest.raises(SweepFailure) as info:
        certification_radius(GAP_THRESHOLD, 200.0, 0.5)
    assert info.value.reason == "margin"
    with pytest.raises(SweepFailure):
        certification_radius(GAP_THRESHOLD - 1.0, 200.0, 0.5)


@pytest.mark.parametrize(
    "t_prime,expected",
    [
        (0.0234, (2, 2, 0.02)),
        (0.5, (1, 5, 0.5)),
        (0.099, (2, 9, 0.09)),
        (0.1, (1, 1, 0.1)),
        (1.7, (1, 9, 0.9)),  # radii of 1 or more clamp to 0.9
        (7.0 * 0.1, (1, 7, 7.0 * 0.1)),
        # the double 0.7 is slightly below 7/10, so the exact rule gives d=6
        (0.7, (1, 6, 6 * 10.0**-1)),
        (0.02999999999, (2, 2, 0.02)),
    ],
)
def test_truncate_radius_examples(t_prime, expected):
    assert truncate_radius(t_prime) == expected


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf, 1e-331])
def test_truncate_radius_rejects(bad):
    with pytest.raises(SweepFailure) as info:
        truncate_radius(bad)
    assert info.value.reason == "radius"


@given(st.floats(min_value=1e-300, max_value=0.999999, allow_nan=False))
def test_truncate_radius_digit_invariant(t_prime):
    n, d, t = truncate_radius(t_prime)
    assert 1 <= d <= 9
    assert n >= 1
    # the defining inequality holds exactly in rational arithmetic
    assert Fraction(d, 10**n) <= Fraction(t_prime) < Fraction(d + 1, 10**n)
    assert t == d * 10.0**-n


# ---------------------------------------------------------------- cells


def good_cell(**overrides):
    """A cell from its stored fields: its place and its solve."""
    base = dict(
        j=0,
        i=0,
        x=0.5,
        y=0.4,
        lambda1=53.0,
        lambda2=131.0,
        xi=78.0,
        err=1e-9,
        accuracy_met=True,
    )
    base.update(overrides)
    return CertifiedCell(**base)


def edited_row(cell=None, **columns):
    """The CSV text of one cell (good_cell() by default) under a header,
    with the named columns' fields replaced by the given text."""
    values = format_cell_row(cell if cell is not None else good_cell()).split(",")
    for column, text in columns.items():
        values[CSV_COLUMNS.index(column)] = text
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(values) + "\n"


def test_cell_accepts_consistent_record():
    cell = good_cell()
    assert cell.xi > GAP_THRESHOLD
    # the five radius columns follow from the stored ones
    assert cell.A_sum == 184.0
    assert cell.t_prime == certification_radius(78.0 - 1e-9, 184.0 + 1e-9, 0.4)
    assert cell.t_prime == 0.0028319371304709635
    assert (cell.n_digits, cell.d_digit, cell.t_radius) == (3, 2, 2e-3)
    assert [f.name for f in fields(CertifiedCell) if f.init] == [
        "j", "i", "x", "y", "lambda1", "lambda2", "xi", "err", "accuracy_met",
    ]


def test_cell_rejects_gap_at_threshold():
    with pytest.raises(ValueError, match="xi - err"):
        good_cell(xi=GAP_THRESHOLD)
    with pytest.raises(ValueError, match="xi - err"):
        good_cell(xi=GAP_THRESHOLD + 1e-3, err=1e-3)


def test_cell_rejects_broken_truncation():
    # a built cell cannot break its truncation, so the broken ones come
    # from CSV text
    for edit in (
        dict(t_prime="0.031"),
        dict(d="0", t_radius="0"),
        dict(t_radius="-0.001"),
    ):
        with pytest.raises(ValueError, match="is not"):
            cells_from_csv(edited_row(**edit))


@pytest.mark.parametrize("t_radius", [0.5, 3e-3, 2e-2, 2.0000000000000004e-3])
def test_cell_rejects_a_radius_its_digits_do_not_give(t_radius):
    with pytest.raises(ValueError, match=f"^t_radius {t_radius!r} is not 0.002 "):
        cells_from_csv(edited_row(t_radius=repr(t_radius)))


def test_cell_clamp_needs_the_clamped_digits():
    # a raw radius of 1 or more clamps to 0.9
    clamped = good_cell(y=0.9, xi=700.0)
    assert clamped.t_prime >= 1.0
    assert (clamped.n_digits, clamped.d_digit, clamped.t_radius) == (1, 9, 0.9)
    assert cells_from_csv(edited_row(clamped)) == (clamped,)
    with pytest.raises(ValueError, match="^n 2 is not 1 "):
        cells_from_csv(edited_row(clamped, n="2", t_radius="0.09"))
    with pytest.raises(ValueError, match="^d 5 is not 9 "):
        cells_from_csv(edited_row(clamped, d="5", t_radius="0.5"))


@pytest.mark.parametrize("field", ["True", "yes", "1", "", "flase"])
def test_cells_from_csv_rejects_a_boolean_that_is_not_true_or_false(field):
    line = format_cell_row(good_cell())
    assert line.endswith(",true")
    header = ",".join(CSV_COLUMNS)
    assert cells_from_csv(f"{header}\n{line[:-4]}false\n")[0].accuracy_met is False
    with pytest.raises(ValueError, match="true or false"):
        cells_from_csv(f"{header}\n{line[:-4]}{field}\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (dict(t_prime="0.0095", n="3", d="9", t_radius="0.009"), "t_prime 0.0095 is not"),
        (dict(A_sum="190"), "A_sum 190.0 is not 184.0"),
        (dict(err="0.5"), "t_prime 0.0028319371304709635 is not"),
        (dict(err="8"), "xi - err does not exceed"),
        (dict(t_prime="0.0028319371304709639"), "t_prime 0.002831937130470964 is not"),
        (dict(n="4"), "n 4 is not 3"),
        (dict(d="3"), "d 3 is not 2"),
        (dict(t_radius="0.0030000000000000001"), "t_radius 0.003 is not 0.002"),
        (dict(y="1e-200", t_prime="0", n="1", d="9", t_radius="0.9"), "no positive"),
    ],
    ids=[
        "inflated_radius", "A_sum", "err", "no_margin",
        "t_prime", "n", "d", "t_radius", "underflow",
    ],
)
def test_cells_from_csv_rejects_a_radius_its_columns_do_not_give(edit, message):
    # each row is built from its stored columns, and every derived column
    # must be what they give
    assert cells_from_csv(edited_row()) == (good_cell(),)
    with pytest.raises(ValueError, match=f"^{message}.* at cell j=0, i=0$"):
        cells_from_csv(edited_row(**edit))


def test_cell_csv_round_trip():
    cells = (good_cell(), good_cell(i=1, x=0.502))
    text = cells_to_csv(cells)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    back = cells_from_csv(text)
    assert back == cells
    assert format_cell_row(cells[0]) == lines[1]


def test_format_value_writes_each_field_type():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(0.1)) == "0.10000000000000001"
    assert format_value(2.0) == "2"
    assert format_value(None) == ""
    assert csv_row((0.5, 3, None, True)) == "0.5,3,,true"
    cell = good_cell()
    assert format_cell_row(cell) == csv_row(getattr(cell, f.name) for f in fields(cell))


def test_state_text_round_trip():
    # the CSV text is the only record of a position: the cells read back
    # replay to the run's state, y bit for bit
    for max_rows in (1, 3, None):
        result = run_sweep(WINDOW, solver=make_solver(), max_rows=max_rows)
        back = replayed(cells_from_csv(cells_to_csv(result.cells)))
        assert back == result.state
        assert back.y.hex() == result.state.y.hex()


# ---------------------------------------------------------------- run_sweep


def test_sweep_completes_and_orders_cells():
    result = run_sweep(WINDOW, solver=make_solver())
    assert result.reason == "complete"
    assert result.state.y > WINDOW.y1  # the next row lies past the window
    keys = [(c.j, c.i) for c in result.cells]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert result.state.cells_emitted == len(result.cells)
    # first cell anchors the window corner
    assert (result.cells[0].x, result.cells[0].y) == (WINDOW.x0, WINDOW.y0)


def test_sweep_deterministic_and_thread_invariant():
    base = cells_to_csv(run_sweep(WINDOW, solver=make_solver()).cells)
    again = cells_to_csv(run_sweep(WINDOW, solver=make_solver()).cells)
    threaded = cells_to_csv(run_sweep(WINDOW, solver=make_solver(), threads=4).cells)
    assert base == again
    assert base == threaded


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_budget_stops_at_row_boundary(threads):
    result = run_sweep(WINDOW, solver=make_solver(), max_cells=3, threads=threads)
    assert result.reason == "budget"
    rows = {c.j for c in result.cells}
    assert rows == {0}  # whole first row, nothing beyond
    assert len(result.cells) >= 3
    assert result.state == replayed(result.cells)
    assert (result.state.j, result.state.cells_emitted) == (1, len(result.cells))
    sequential = run_sweep(WINDOW, solver=make_solver(), max_cells=3)
    assert cells_to_csv(result.cells) == cells_to_csv(sequential.cells)
    assert result.state == sequential.state


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_max_rows(threads):
    result = run_sweep(WINDOW, solver=make_solver(), max_rows=1, threads=threads)
    assert result.reason == "budget"
    assert {c.j for c in result.cells} == {0}
    assert result.state == replayed(result.cells)
    sequential = run_sweep(WINDOW, solver=make_solver(), max_rows=1)
    assert cells_to_csv(result.cells) == cells_to_csv(sequential.cells)
    assert result.state == sequential.state


@pytest.mark.parametrize("threads", [1, 3])
def test_resumed_budgets_count_this_run_only(threads):
    # max_cells, like max_rows, counts from where the resumed run starts
    first = run_sweep(WINDOW, solver=make_solver(), max_rows=1)
    assert len(first.cells) == 11
    by_cells = run_sweep(
        WINDOW,
        solver=make_solver(),
        resume_from=first.state,
        max_cells=3,
        threads=threads,
    )
    by_rows = run_sweep(
        WINDOW, solver=make_solver(), resume_from=first.state, max_rows=1
    )
    assert by_cells.reason == by_rows.reason == "budget"
    assert {c.j for c in by_cells.cells} == {1}
    assert by_cells.cells == by_rows.cells
    assert by_cells.state == by_rows.state == replayed(first.cells + by_cells.cells)


def test_sweep_threaded_budget_stops_within_a_row():
    # the pool runs at most one row past the stop, not the whole window
    def counted():
        calls = []
        solver = make_solver()

        def wrapped(triangle, target, max_level=None):
            calls.append(target)
            return solver(triangle, target, max_level)

        return wrapped, calls

    one, one_calls = counted()
    two, two_calls = counted()
    seq = run_sweep(WINDOW, solver=one, max_cells=3)
    par = run_sweep(WINDOW, solver=two, max_cells=3, threads=2)
    assert par.cells == seq.cells
    assert par.state == seq.state
    row = len(seq.cells)  # the budget stops after the first row
    assert len(one_calls) == row
    assert len(two_calls) <= len(one_calls) + row


@pytest.mark.parametrize("resume_threads", [1, 3])
def test_sweep_killed_threaded_run_resumes_to_identical_csv(resume_threads):
    full = cells_to_csv(run_sweep(WINDOW, solver=make_solver()).cells)
    written = []

    def sink(cell):
        if len(written) == 15:  # partway through the second row
            raise KeyboardInterrupt
        written.append(cell)

    threads_before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(
            WINDOW,
            solver=make_solver(),
            threads=2,
            sink=sink,
        )
    assert threading.active_count() == threads_before  # the pool is shut down
    last = replayed(cells_from_csv(cells_to_csv(written)))
    assert 0 < last.cells_emitted < len(written)
    # cells written past the last complete row belong to the unfinished row
    assert all(c.j == last.j for c in written[last.cells_emitted :])
    rest = run_sweep(
        WINDOW, solver=make_solver(), resume_from=last, threads=resume_threads
    )
    assert rest.reason == "complete"
    assert cells_to_csv(written[: last.cells_emitted] + list(rest.cells)) == full


def test_sweep_resume_stitches_to_identical_csv():
    full = run_sweep(WINDOW, solver=make_solver())
    first = run_sweep(WINDOW, solver=make_solver(), max_rows=1)
    assert first.state == replayed(first.cells)
    rest = run_sweep(WINDOW, solver=make_solver(), resume_from=first.state)
    stitched = list(first.cells) + list(rest.cells)
    assert cells_to_csv(stitched) == cells_to_csv(full.cells)
    assert rest.reason == "complete"


def test_sweep_resume_round_trips_through_text():
    first = run_sweep(WINDOW, solver=make_solver(), max_rows=2)
    revived = replayed(cells_from_csv(cells_to_csv(first.cells)))
    rest = run_sweep(WINDOW, solver=make_solver(), resume_from=revived)
    full = run_sweep(WINDOW, solver=make_solver())
    stitched = list(first.cells) + list(rest.cells)
    assert cells_to_csv(stitched) == cells_to_csv(full.cells)


def test_sweep_resume_of_complete_state_is_a_no_op():
    full = run_sweep(WINDOW, solver=make_solver())
    done = replayed(full.cells)
    assert done == full.state
    result = run_sweep(WINDOW, solver=make_solver(), resume_from=done)
    assert result.reason == "complete"
    assert result.cells == ()
    assert result.state == done


def test_sweep_resume_thread_invariant():
    first = run_sweep(WINDOW, solver=make_solver(), max_rows=1)
    point = replayed(first.cells)
    seq = run_sweep(WINDOW, solver=make_solver(), resume_from=point)
    par = run_sweep(WINDOW, solver=make_solver(), resume_from=point, threads=3)
    assert cells_to_csv(seq.cells) == cells_to_csv(par.cells)
    assert seq.state == par.state


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_sink_receives_cells_in_order(threads):
    seen = []
    result = run_sweep(WINDOW, solver=make_solver(), sink=seen.append, threads=threads)
    assert seen == list(result.cells)


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_state_snapshots_advance(threads):
    result = run_sweep(WINDOW, solver=make_solver(), threads=threads)
    # the position replayed after every cell moves forward a row at a time
    points = [replayed(result.cells[:n]) for n in range(len(result.cells) + 1)]
    counts = [p.cells_emitted for p in points]
    assert counts == sorted(counts)
    rows = sorted({p.j for p in points})
    assert rows == list(range(len(rows)))
    assert points[-1] == result.state
    sequential = run_sweep(WINDOW, solver=make_solver())
    assert cells_to_csv(result.cells) == cells_to_csv(sequential.cells)
    assert result.state == sequential.state


def openblas_controls(verb):
    """scipy_openblas_<verb>_num_threads of numpy's and scipy's OpenBLAS,
    found through extension modules that link them; raises AttributeError
    if either library lacks the control."""
    controls = []
    for module, suffix in (
        ("numpy.linalg._umath_linalg", "64_"),
        ("scipy.sparse.linalg._dsolve._superlu", ""),
    ):
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        control = getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}")
        if verb == "get":
            control.argtypes, control.restype = [], ctypes.c_int
        else:
            control.argtypes, control.restype = [ctypes.c_int], None
        controls.append(control)
    return controls


def openblas_thread_counts():
    return tuple(get() for get in openblas_controls("get"))


@pytest.fixture
def blas_counts():
    """Set numpy's OpenBLAS to 3 threads and scipy's to 2, so a pin, a
    restore and a swap between the two all show; the originals come back
    after the test."""
    original = openblas_thread_counts()
    setters = openblas_controls("set")
    for set_, count in zip(setters, (3, 2)):
        set_(count)
    assert openblas_thread_counts() == (3, 2)
    try:
        yield (3, 2)
    finally:
        for set_, count in zip(setters, original):
            set_(count)


def counting_blas(fail_on=None):
    """Stub solver that records both OpenBLAS thread counts at every solve,
    failing the margin from solve number fail_on on."""
    seen = []
    good, bad = make_solver(), make_solver(lam2=123.0)

    def solver(triangle, target, max_level=None):
        seen.append(openblas_thread_counts())
        failing = fail_on is not None and len(seen) >= fail_on
        return (bad if failing else good)(triangle, target, max_level)

    return solver, seen


@pytest.mark.parametrize("threads", [1, 2])
def test_pool_workers_run_with_one_blas_thread(blas_counts, threads):
    solver, seen = counting_blas()
    result = run_sweep(WINDOW, solver=solver, threads=threads)
    assert result.reason == "complete"
    assert len(seen) == len(result.cells)
    assert set(seen) == {(1, 1)}
    assert openblas_thread_counts() == blas_counts


def test_blas_threads_restored_after_failed_run(blas_counts):
    solver, seen = counting_blas(fail_on=8)
    result = run_sweep(WINDOW, solver=solver, threads=2)
    assert result.reason == "failed"
    assert set(seen) == {(1, 1)}
    assert openblas_thread_counts() == blas_counts


def test_blas_threads_restored_after_solver_raises(blas_counts):
    def broken(triangle, target, max_level=None):
        raise RuntimeError("solver crashed")

    with pytest.raises(RuntimeError, match="solver crashed"):
        run_sweep(WINDOW, solver=broken, threads=2)
    assert openblas_thread_counts() == blas_counts


def test_blas_threads_restored_after_interrupt_in_sink(blas_counts):
    solver, seen = counting_blas()

    def sink(cell):
        if cell.j == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(WINDOW, solver=solver, sink=sink, threads=2)
    assert seen and set(seen) == {(1, 1)}
    assert openblas_thread_counts() == blas_counts


def test_sweep_margin_failure_records_position():
    # gap below the threshold: the very first cell cannot be certified
    bad = make_solver(lam1=53.0, lam2=123.0)  # xi = 70 < threshold
    result = run_sweep(WINDOW, solver=bad)
    assert result.reason == "failed"
    assert result.failure is not None
    assert result.failure.reason == "margin"
    assert (result.failure.j, result.failure.i) == (0, 0)
    assert result.state == SweepState(y=WINDOW.y0)
    assert result.cells == ()


def test_sweep_accuracy_retry_tightens_target_then_fails():
    # a large constant error keeps the radius spread above the digit rule;
    # the cell re-solves at a tighter target, sees no improvement, gives up
    calls = []

    def coarse(triangle, target, max_level=None):
        calls.append(target)
        return make_solver(err=0.2)(triangle, target, max_level)

    result = run_sweep(WINDOW, solver=coarse, max_rows=1)
    assert result.reason == "failed"
    assert result.failure.reason == "accuracy"
    assert len(calls) == 2
    assert calls[1] < calls[0]


def test_sweep_accuracy_gives_up_when_solver_capped():
    # accuracy_met=False means the solver hit its level cap: no retry helps
    calls = []

    def capped(triangle, target, max_level=None):
        calls.append(target)
        return make_solver(err=0.2, met=False)(triangle, target, max_level)

    result = run_sweep(WINDOW, solver=capped, max_rows=1)
    assert result.reason == "failed"
    assert result.failure.reason == "accuracy"
    assert len(calls) == 1


def test_cell_records_the_flag_of_the_solve_that_certified_it():
    # a solve that missed its target at the cap, but whose bar still meets
    # the digit rule, certifies its cell, and the CSV says which solve it was
    result = run_sweep(WINDOW, solver=make_solver(err=1e-9, met=False))
    assert result.reason == "complete"
    assert result.cells
    assert not any(cell.accuracy_met for cell in result.cells)
    text = cells_to_csv(result.cells)
    assert all(line.endswith(",false") for line in text.splitlines()[1:])
    back = cells_from_csv(text)
    assert back == result.cells
    assert replayed(back) == result.state


def test_thin_ladder_that_fails_its_rate_gate_certifies_no_cell(monkeypatch):
    # level differences shrink 1.7-fold, far from second order: the ladder's
    # bar would be narrow enough for the digit rule, but the rate gate
    # leaves it no trusted bar, so the first cell is refused
    def solve(verts, level, k=2, shift=0.0, start=None):
        tail = 1e-3 * 1.7 ** (5 - level) / 0.7
        return EigenPairs((50.0 + tail, 131.0 + tail), block=np.zeros((1, 5)), iterations=0)

    monkeypatch.setattr(eigensolver, "solve_triangle", solve)
    monkeypatch.setattr(eigensolver, "prolongate", lambda block, level: None)
    window = SweepWindow(0.5, 0.5001, 0.04, 0.0401)
    result = run_sweep(window, SweepPolicy(max_level=7), max_rows=1)
    assert result.cells == ()
    assert result.reason == "failed"
    assert result.failure.reason == "margin"
    assert (result.failure.j, result.failure.i) == (0, 0)
    assert result.failure.err == math.inf


def test_sweep_failure_keeps_cells_before_failing_cell():
    # flip to a sub-threshold gap from the second row upward
    def solver(triangle, target, max_level=None):
        good = triangle.apex_y < 0.401
        return make_solver(lam2=131.0 if good else 123.0)(triangle, target, max_level)

    result = run_sweep(WINDOW, solver=solver)
    assert result.reason == "failed"
    assert result.cells  # first row survived
    assert all(c.j == 0 for c in result.cells)
    assert (result.failure.j, result.failure.i) == (1, 0)


def test_sweep_threaded_failure_matches_sequential():
    def solver(triangle, target, max_level=None):
        good = triangle.apex_y < 0.401
        return make_solver(lam2=131.0 if good else 123.0)(triangle, target, max_level)

    seq = run_sweep(WINDOW, solver=solver)
    par = run_sweep(WINDOW, solver=solver, threads=4)
    assert par.reason == seq.reason == "failed"
    assert cells_to_csv(par.cells) == cells_to_csv(seq.cells)
    assert (par.failure.j, par.failure.i) == (seq.failure.j, seq.failure.i)


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_reports_the_lower_of_two_failures(threads):
    # row 0 fails at its fourth cell, and the seed of row 1 fails as well;
    # with 3 threads that seed is solved before row 0 is done
    apexes = []

    def solver(triangle, target, max_level=None):
        apexes.append((triangle.apex_x, triangle.apex_y))
        good = triangle.apex_y < 0.401 and triangle.apex_x < 0.505
        return make_solver(lam2=131.0 if good else 123.0)(triangle, target, max_level)

    written = []
    result = run_sweep(WINDOW, solver=solver, sink=written.append, threads=threads)
    assert result.reason == "failed"
    assert (result.failure.j, result.failure.i) == (0, 3)
    assert result.cells == tuple(written)
    assert result.cells == run_sweep(WINDOW, solver=make_solver()).cells[:3]
    assert result.state == SweepState(y=WINDOW.y0)
    seed_above_solved = any(y > 0.401 for _, y in apexes)
    assert seed_above_solved == (threads > 1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("where", [(1, 0), (0, 2)], ids=["seed", "non-seed"])
def test_solver_convergence_error_fails_the_run_at_its_cell(where, threads):
    full = run_sweep(WINDOW, solver=make_solver())
    at = next(n for n, c in enumerate(full.cells) if (c.j, c.i) == where)
    bad = full.cells[at]

    def solver(triangle, target, max_level=None):
        if (triangle.apex_x, triangle.apex_y) == (bad.x, bad.y):
            raise ConvergenceError("residual tolerance not reached")
        return make_solver()(triangle, target, max_level)

    written = []
    result = run_sweep(WINDOW, solver=solver, sink=written.append, threads=threads)
    assert result.reason == "failed"
    failure = result.failure
    assert failure.reason == "solver"
    assert (failure.j, failure.i, failure.x, failure.y) == (bad.j, bad.i, bad.x, bad.y)
    assert isinstance(failure.__cause__, ConvergenceError)
    assert "residual tolerance not reached at cell" in str(failure)
    assert result.cells == tuple(written) == full.cells[:at]
    # the state stays at the start of the failed row, which the written
    # cells replay to, and a resumed run completes the same output
    assert result.state == replayed(written)
    assert result.state.j == bad.j
    kept = written[: result.state.cells_emitted]
    rest = run_sweep(WINDOW, solver=make_solver(), resume_from=result.state, threads=threads)
    assert rest.reason == "complete"
    assert cells_to_csv(kept + list(rest.cells)) == cells_to_csv(full.cells)


# ---------------------------------------------------------------- resume


def test_sweep_resume_after_failed_row_writes_it_once():
    # the 8th solve fails partway through a row: its certified cells reach
    # the sink, but the position stays at the start of that row
    full = run_sweep(WINDOW, solver=make_solver())
    solves = itertools.count(1)

    def flaky(triangle, target, max_level=None):
        if next(solves) == 8:
            raise SweepFailure("margin", "stub failure")
        return make_solver()(triangle, target, max_level)

    written = []
    failed = run_sweep(WINDOW, solver=flaky, sink=written.append)
    assert failed.reason == "failed"
    assert list(failed.cells) == written
    assert failed.state.cells_emitted < len(written)
    point = replayed(written)
    assert point == failed.state
    rest = run_sweep(WINDOW, solver=make_solver(), resume_from=point)
    assert rest.reason == "complete"
    stitched = written[: point.cells_emitted] + list(rest.cells)
    assert cells_to_csv(stitched) == cells_to_csv(full.cells)


def sloped_solver(a, b):
    """Stub whose gap, and so its radius, changes with the apex."""

    def solver(triangle, target, max_level=None):
        dx, dy = triangle.apex_x - 0.5, triangle.apex_y - 0.4
        return make_solver(lam2=131.0 + a * dx - b * dy)(triangle, target, max_level)

    return solver


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 150.0), st.floats(0.0, 150.0))
def test_resume_point_matches_the_run_at_every_cut(threads, a, b):
    # at 2 threads, sloped rows of unequal length go through the look-ahead
    solver = sloped_solver(a, b)
    full = run_sweep(WINDOW, solver=solver, threads=threads)
    cells = full.cells
    rows = len({c.j for c in cells})
    # the run's own state after k complete rows, k = 0 .. rows
    states = [
        run_sweep(WINDOW, solver=solver, max_rows=k, threads=threads).state
        for k in range(rows)
    ]
    states.append(full.state)
    ends = [s.cells_emitted for s in states]
    for n in range(len(cells) + 1):
        k = max(k for k, end in enumerate(ends) if end <= n)
        assert replayed(cells[:n]) == states[k]
    for state in states:
        rest = run_sweep(WINDOW, solver=solver, resume_from=state, threads=threads)
        stitched = cells[: state.cells_emitted] + rest.cells
        assert cells_to_csv(stitched) == cells_to_csv(cells)


def test_sloped_stub_rows_differ_and_end_on_the_edge():
    # the property above covers rows of different lengths and edge clamps
    cells = run_sweep(WINDOW, solver=sloped_solver(150.0, 0.0)).cells
    lengths = [sum(1 for c in cells if c.j == j) for j in range(cells[-1].j + 1)]
    assert len(set(lengths)) > 1
    assert any(c.x == WINDOW.x1 for c in cells)
    assert cells[-1].y == WINDOW.y1


def off_the_walk(case):
    cells = list(run_sweep(WINDOW, solver=make_solver()).cells)
    if case == "another_window":
        return cells, SweepWindow(0.5, 0.52, 0.4001, 0.42)
    if case == "skipped_cell":
        return cells[:3] + cells[4:], WINDOW
    if case == "edited_x":
        cells[5] = replace(cells[5], x=cells[5].x + 1e-12)
        return cells, WINDOW
    return cells + cells[-1:], WINDOW  # past the end of the walk


@pytest.mark.parametrize(
    "case", ["another_window", "skipped_cell", "edited_x", "past_the_end"]
)
def test_resume_point_rejects_cells_off_the_walk(case):
    cells, window = off_the_walk(case)
    with pytest.raises(ValueError, match="cell j=") as info:
        resume_point(cells, window, POLICY)
    assert "walk" in str(info.value)


def test_window_validation():
    with pytest.raises(ValueError):
        SweepWindow(0.4, 0.6, 0.4, 0.5)  # x0 below the symmetry line
    with pytest.raises(ValueError):
        SweepWindow(0.5, 0.6, 0.5, 0.4)  # empty y range
    with pytest.raises(ValueError):
        SweepWindow(0.5, 1.1, 0.4, 0.5)  # beyond x = 1
    with pytest.raises(ValueError):
        SweepWindow(0.99, 1.0, 0.9, 0.95)  # seed corner outside the unit disc


def test_policy_validation():
    with pytest.raises(ValueError):
        SweepPolicy(initial_accuracy=0.0)
    with pytest.raises(ValueError):
        SweepPolicy(exclusion_radius=-1e-4)


def test_sweep_rejects_bad_thread_count():
    with pytest.raises(ValueError):
        run_sweep(WINDOW, solver=make_solver(), threads=0)


@pytest.mark.parametrize("budget", ["max_rows", "max_cells"])
def test_sweep_rejects_negative_budgets(budget):
    with pytest.raises(ValueError, match="non-negative"):
        run_sweep(WINDOW, solver=make_solver(), **{budget: -1})
    # a budget of 0 stops before the first row
    result = run_sweep(WINDOW, solver=make_solver(), **{budget: 0})
    assert result.reason == "budget"
    assert result.cells == ()
    assert result.state == SweepState(y=WINDOW.y0)


def test_sweep_cells_keep_out_of_exclusion_ball():
    # a window spanning the equilateral height: emitted cells stay clear
    ex, ey = EQUILATERAL_APEX
    window = SweepWindow(0.5, 0.52, 0.85, 0.87)
    result = run_sweep(window, solver=make_solver())
    assert result.reason == "complete"
    assert result.cells
    for cell in result.cells:
        assert math.hypot(cell.x - ex, cell.y - ey) > 4e-4


# ---------------------------------------------------------------- audit


def test_audit_passes_for_complete_sweep():
    result = run_sweep(WINDOW, solver=make_solver())
    report = coverage_audit(result.cells, WINDOW)
    assert report.passed
    assert report.uncovered_count == 0
    assert report.total_points > 0


def test_audit_fails_with_no_cells():
    report = coverage_audit([], WINDOW)
    assert not report.passed
    assert report.uncovered_count == report.total_points
    assert report.uncovered_sample


def test_audit_single_cell_covers_tiny_window():
    window = SweepWindow(0.5, 0.501, 0.4, 0.401)
    cell = good_cell(x=0.5005, y=0.4005)
    assert cell.t_radius == 2e-3
    report = coverage_audit([cell], window, spacing=1e-4)
    assert report.passed


def test_audit_detects_hole():
    window = SweepWindow(0.5, 0.501, 0.4, 0.401)
    # a gap margin of 2.35 gives the radius 8e-4
    cell = good_cell(x=0.5, y=0.4, xi=GAP_THRESHOLD + 2.35)
    assert cell.t_radius == 8e-4
    report = coverage_audit([cell], window, spacing=1e-4)
    assert not report.passed
    # the far corner is outside the certified disc
    assert any(px > 0.5005 for px, _ in report.uncovered_sample)


def test_audit_rejects_bad_spacing():
    # an infinite spacing would audit the single point (nan, nan) and pass
    for spacing in (0.0, -1e-4, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            coverage_audit([], WINDOW, spacing=spacing)


@pytest.mark.parametrize("radius", [-1e-4, math.inf, math.nan])
def test_policy_and_audit_reject_a_bad_exclusion_radius(radius):
    # an infinite ball would swallow the window: no cells, and every
    # lattice point counted as covered
    with pytest.raises(ValueError, match="finite and non-negative"):
        SweepPolicy(exclusion_radius=radius)
    with pytest.raises(ValueError, match="finite and non-negative"):
        coverage_audit([], WINDOW, exclusion_radius=radius)


@pytest.mark.parametrize("radius", [1e-4, 1e-3])
def test_audit_without_cells_covers_the_larger_exclusion_ball(radius):
    # the sweep region always leaves out the 4e-4 ball, so a smaller audit
    # radius cannot shrink it, while a larger one widens it
    ex, ey = EQUILATERAL_APEX
    ball = max(radius, 4e-4)
    window = SweepWindow(0.5, 0.5015, 0.864, 0.8675)
    report = coverage_audit(
        [], window, spacing=1e-4, exclusion_radius=radius, max_report=10**6
    )
    assert report.uncovered_count == len(report.uncovered_sample) > 0
    dist2 = [(x - ex) ** 2 + (y - ey) ** 2 for x, y in report.uncovered_sample]
    assert min(dist2) > ball * ball
    assert min(dist2) < (ball + 2e-4) ** 2
    assert all(x * x + y * y <= 1.0 for x, y in report.uncovered_sample)


# ---------------------------------------------------------------- gap grid


def test_gap_grid_counts_and_values():
    pts = gap_grid(2, 2, solver=make_solver())
    assert len(pts) == 4
    for p in pts:
        assert 0.0 < p.tau < 2.0
        assert 0.0 < p.nu <= 1.0
        assert p.log_xi == pytest.approx(math.log(78.0), rel=1e-12)


def test_gap_grid_validates_steps():
    with pytest.raises(ValueError):
        gap_grid(1, 2, solver=make_solver())


@pytest.mark.parametrize(
    "options",
    [
        {"accuracy": 0.0},
        {"accuracy": -1e-3},
        {"accuracy": math.nan},
        {"max_level": 4},
        {"max_level": 2},
    ],
    ids=["zero_accuracy", "negative_accuracy", "nan_accuracy", "max_level_4", "max_level_2"],
)
def test_gap_grid_rejects_unusable_options_before_any_solve(options):
    calls = []

    def solver(triangle, target, max_level=None):
        calls.append(target)
        return make_solver()(triangle, target, max_level)

    with pytest.raises(ValueError):
        gap_grid(2, 2, solver=solver, **options)
    assert calls == []
    # the lowest usable level cap still solves every point
    assert len(gap_grid(2, 2, max_level=5, solver=solver)) == 4


def test_gap_grid_missing_cells_are_none():
    def failing(triangle, target, max_level=None):
        if triangle.apex_x < 0.5:
            raise SweepFailure("margin", "stub failure")
        return make_solver()(triangle, target, max_level)

    pts = gap_grid(4, 2, solver=failing)
    assert len(pts) == 8
    assert any(p.log_xi is None for p in pts)
    assert any(p.log_xi is not None for p in pts)


# ---------------------------------------------------------------- end to end


def test_real_solver_small_window():
    window = SweepWindow(0.5, 0.51, 0.4, 0.41)
    result = run_sweep(window, policy=SweepPolicy(initial_accuracy=0.25))
    assert result.reason == "complete"
    for cell in result.cells:
        assert cell.xi > GAP_THRESHOLD + 2.0 * cell.err
        assert cell.accuracy_met
    report = coverage_audit(result.cells, window)
    assert report.passed
    # two pool workers give the same bytes as the serial run
    threaded = run_sweep(window, policy=SweepPolicy(initial_accuracy=0.25), threads=2)
    assert threaded.reason == "complete"
    assert cells_to_csv(threaded.cells) == cells_to_csv(result.cells)


def test_real_solver_multigrid_levels_ignore_the_thread_count():
    # every cell re-solves to levels (7, 8); level 8 runs multigrid LOBPCG,
    # whose dense products use BLAS, at one thread inside every run
    window = SweepWindow(0.5, 0.5005, 0.70, 0.7005)
    policy = SweepPolicy(initial_accuracy=0.25)
    csv = {}
    for threads in (1, 2):
        last = {}  # apex -> (target, levels) of its last solve

        def solver(triangle, target, max_level):
            spectrum = gap_with_error(triangle, target, max_level=max_level)
            last[triangle.apex_x, triangle.apex_y] = (target, spectrum.levels)
            return spectrum

        result = run_sweep(window, policy=policy, solver=solver, threads=threads)
        assert result.reason == "complete"
        assert (7, 8) in {levels for _, levels in last.values()}
        csv[threads] = cells_to_csv(result.cells)
    assert csv[2] == csv[1]
    # outside a run BLAS has its default thread count: a level-8 cell's
    # final solve gives the same numbers there
    cell = next(c for c in result.cells if last[c.x, c.y][1] == (7, 8))
    target = last[cell.x, cell.y][0]
    direct = gap_with_error(Triangle(cell.x, cell.y), target, max_level=None)
    assert (direct.lambda1, direct.lambda2) == (cell.lambda1, cell.lambda2)
    assert (direct.xi, direct.xi_error) == (cell.xi, cell.err)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_level_of_a_cell_is_solved_once_across_its_rounds(threads, monkeypatch):
    # every cell of this window takes two rounds; the second continues the
    # first's ladder, so no (apex, level) is solved twice
    window = SweepWindow(0.5, 0.5005, 0.70, 0.7005)
    policy = SweepPolicy(initial_accuracy=0.25)
    solved = []
    solve = eigensolver.solve_triangle

    def counted(*args, **kwargs):
        solved.append((tuple(args[0][2]), args[1]))
        return solve(*args, **kwargs)

    def restarting(triangle, target, max_level):
        with eigensolver.ladder_scope():
            return gap_with_error(triangle, target, max_level=max_level)

    monkeypatch.setattr(eigensolver, "solve_triangle", counted)
    continued = run_sweep(window, policy=policy, threads=threads)
    assert continued.reason == "complete"
    assert set(Counter(solved).values()) == {1}
    cells = len(continued.cells)
    assert len(solved) == 5 * cells  # levels 4 to 8
    solved.clear()
    restarted = run_sweep(window, policy=policy, solver=restarting, threads=threads)
    assert len(solved) == 9 * cells  # levels 4 to 7, then 4 to 8
    assert restarted.cells == continued.cells
