"""End-to-end tests of the command-line interface via main()."""

import argparse
import functools
import math
import os

import pytest

from trigap import cli, eigensolver, sweep
from trigap.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from trigap.eigensolver import ConvergenceError, Spectrum, gap_with_error
from trigap.geometry import Triangle
from trigap.sweep import format_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    """Turn 'key = value' stdout lines into a dict."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- eigen


def test_eigen_reports_gap_and_writes_csv(capsys, tmp_path):
    out = tmp_path / "eigen.csv"
    code, stdout, _ = run(
        capsys, "eigen", "--apex", "0.5,0.4", "--accuracy", "0.5", "--out", str(out)
    )
    assert code == EXIT_OK
    report = parse_report(stdout)
    assert report["accuracy_met"] == "true"
    xi = float(report["xi"].split("+-")[0])
    assert xi == pytest.approx(116.655, abs=0.5)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,y,lambda1,lambda2,")
    row = lines[1].split(",")
    assert len(row) == len(lines[0].split(","))
    assert float(row[6]) == xi


@pytest.mark.parametrize(
    "apex",
    ["0.7", "0.5,0.4,0.3", "abc,0.4", "0.5,0", "0.5,-0.2", "0.5,nan"],
)
def test_eigen_rejects_bad_apex(capsys, apex):
    code, _, stderr = run(capsys, "eigen", "--apex", apex)
    assert code == EXIT_USAGE
    assert "error:" in stderr


def test_eigen_rejects_unusable_level_cap(capsys):
    code, _, stderr = run(capsys, "eigen", "--apex", "0.5,0.4", "--max-level", "2")
    assert code == EXIT_USAGE
    assert "error:" in stderr


def test_eigen_refuses_a_level_cap_above_max_level(capsys, monkeypatch):
    # refused before any solve, not clamped to MAX_LEVEL
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_triangle called for a rejected request")

    monkeypatch.setattr(eigensolver, "solve_triangle", no_solve)
    code, stdout, stderr = run(capsys, "eigen", "--apex", "0.5,0.4", "--max-level", "13")
    assert code == EXIT_USAGE
    assert "error: max_level" in stderr
    assert stdout == ""


def test_eigen_csv_fields_are_the_library_values(capsys, tmp_path):
    out = tmp_path / "eigen.csv"
    code, _, _ = run(
        capsys, "eigen", "--apex", "0.5,0.4", "--accuracy", "0.5", "--out", str(out)
    )
    assert code == EXIT_OK
    s = gap_with_error(Triangle(0.5, 0.4), 0.5, max_level=None)
    values = (0.5, 0.4, s.lambda1, s.lambda2, *s.error_bounds, s.xi, s.xi_error)
    values += (s.diameter, *s.levels, s.accuracy_met)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",") == [format_value(v) for v in values]


@pytest.mark.parametrize("accuracy", ["-1e-3", "-0.001", "0", "nan", "inf"])
def test_eigen_negative_accuracy_reaches_the_solver(capsys, tmp_path, accuracy):
    out = tmp_path / "eigen.csv"
    code, stdout, stderr = run(
        capsys, "eigen", "--apex", "0.5,0.4", "--accuracy", accuracy, "--out", str(out)
    )
    assert code == EXIT_USAGE
    assert (stdout, stderr) == ("", "error: target accuracy must be positive and finite\n")
    assert not out.exists()


def _capped_spectrum(bar):
    """A spectrum that reached the level cap with both eigenvalue bars ``bar``."""
    return Spectrum(
        eigenvalues=(53.0, 131.0),
        error_bounds=(bar, bar),
        levels=(6, 7),
        diameter=1.0,
        xi=78.0,
        xi_error=2.0 * bar,
        accuracy_met=False,
    )


@pytest.mark.parametrize(
    "bar, warning",
    [
        (0.1, "warning: requested accuracy not reached at the level cap\n"),
        (
            math.inf,
            "warning: the ladder's rates never entered RATE_WINDOW [2.5, 6.0] "
            "by the level cap: no error bar\n",
        ),
    ],
    ids=["wide_bar", "no_bar"],
)
def test_eigen_warning_says_whether_the_ladder_has_a_bar(capsys, monkeypatch, bar, warning):
    monkeypatch.setattr(cli, "gap_with_error", lambda *args, **kwargs: _capped_spectrum(bar))
    code, stdout, stderr = run(capsys, "eigen", "--apex", "0.5,0.4", "--accuracy", "1e-3")
    assert code == EXIT_OK
    assert parse_report(stdout)["accuracy_met"] == "false"
    assert stderr == warning


# ---------------------------------------------------------------- sweep


# one thread keeps the solves in order, so stubs can count them
SWEEP_ARGS = ("--window", "0.5,0.51,0.4,0.41", "--accuracy", "0.25", "--threads", "1")


def test_sweep_interrupt_resume_byte_identical(capsys, tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"

    code, stdout, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full))
    assert code == EXIT_OK
    assert "reason = complete" in stdout
    assert "audit uncovered = 0" in stdout

    code, stdout, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    assert "stopped at the row boundary" in stdout

    code, stdout, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume")
    assert code == EXIT_OK
    assert full.read_bytes() == part.read_bytes()
    # the CSV is the only file a sweep writes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["full.csv", "part.csv"]


def test_sweep_resume_without_state_file(capsys, tmp_path):
    # with no CSV there is nothing to resume from
    out = tmp_path / "cells.csv"
    code, _, stderr = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--resume")
    assert code == EXIT_USAGE
    assert "error: cannot resume" in stderr
    assert not out.exists()


def test_sweep_resume_with_mismatched_csv(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    written = out.read_bytes()
    # cells of one window do not continue the walk of another
    code, _, stderr = run(
        capsys,
        "sweep",
        "--window",
        "0.5,0.51,0.4001,0.41",
        "--accuracy",
        "0.25",
        "--out",
        str(out),
        "--resume",
    )
    assert code == EXIT_USAGE
    assert "error:" in stderr
    assert "cells" in stderr
    assert out.read_bytes() == written


def test_sweep_resume_drops_cells_of_unfinished_row(capsys, tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full), "--no-audit")
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    budget_text = part.read_text()
    row1 = [line for line in full.read_text().splitlines() if line.startswith("1,")]
    assert len(row1) >= 2

    # cells past the snapshot that do not start the next row are a mismatch
    part.write_text(budget_text + row1[1] + "\n")
    code, _, stderr = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume")
    assert code == EXIT_USAGE
    assert "cells" in stderr
    assert part.read_text() == budget_text + row1[1] + "\n"

    # a run killed between a row's cells and its snapshot: the partial row
    # is dropped and the resumed run finishes byte-identically
    part.write_text(budget_text + row1[0] + "\n")
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume"
    )
    assert code == EXIT_OK
    assert "dropped 1 cells of unfinished row 1" in stderr
    assert "audit uncovered = 0" in stdout
    assert full.read_bytes() == part.read_bytes()


def test_sweep_resume_drops_cut_short_line(capsys, tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full), "--no-audit")
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    # a run killed in the middle of writing a cell line
    with part.open("a") as fh:
        fh.write("1,0,0.5,0.40")
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume"
    )
    assert code == EXIT_OK
    assert "dropped 1 cells of unfinished row 1" in stderr
    assert "audit uncovered = 0" in stdout
    assert full.read_bytes() == part.read_bytes()


def test_sweep_resume_rejects_malformed_counted_line(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    lines = out.read_text().splitlines(keepends=True)
    lines[1] = "0,0,0.5\n"
    out.write_text("".join(lines))
    code, _, stderr = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--resume")
    assert code == EXIT_USAGE
    assert "error:" in stderr
    assert "malformed" in stderr


def test_sweep_resume_rejects_a_radius_its_digits_do_not_give(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    # the row's last cell moves no later cell, so only the check of its
    # derived columns catches an edited radius there
    lines = out.read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    assert (fields[1], fields[-1]) != ("0", "true\n")
    fields[11] = "0.5"
    lines[-1] = ",".join(fields)
    out.write_text("".join(lines))
    edited = out.read_bytes()
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--resume"
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr.startswith(f"error: cannot resume from {out}: t_radius 0.5 is not")
    assert out.read_bytes() == edited


def test_sweep_resume_rejects_a_radius_its_columns_do_not_give(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    # an inflated radius with digits to match: the row's last cell moves no
    # later cell, so only the radius formula catches it
    lines = out.read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    assert fields[1] != "0"
    fields[8:12] = ["0.0095", "3", "9", format_value(9 * 10.0**-3)]
    lines[-1] = ",".join(fields)
    out.write_text("".join(lines))
    edited = out.read_bytes()
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--resume"
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr.startswith(f"error: cannot resume from {out}: t_prime 0.0095 is not")
    assert out.read_bytes() == edited


def test_sweep_resume_rejects_a_row_whose_radius_underflows(capsys, tmp_path):
    # y = 1e-200 squares to 0, so the row's own columns give no radius
    out = tmp_path / "cells.csv"
    header = ",".join(sweep.CSV_COLUMNS)
    out.write_text(f"{header}\n0,0,0.5,1e-200,53,131,78,184,0,1,9,0.9,1e-9,true\n")
    edited = out.read_bytes()
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--resume"
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr.startswith(f"error: cannot resume from {out}: no positive")
    assert out.read_bytes() == edited


def test_sweep_default_threads_are_the_usable_cores(capsys, tmp_path, monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count()
    threads = []
    run_sweep = cli.run_sweep

    def spy(*args, **kwargs):
        threads.append(kwargs["threads"])
        return run_sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", spy)
    one, default = tmp_path / "one.csv", tmp_path / "default.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(one), "--no-audit")
    assert code == EXIT_OK
    window = SWEEP_ARGS[: SWEEP_ARGS.index("--threads")]
    code, _, _ = run(capsys, "sweep", *window, "--out", str(default), "--no-audit")
    assert code == EXIT_OK
    assert threads == [1, cores]
    assert default.read_bytes() == one.read_bytes()


def test_sweep_killed_before_first_row_resumes(capsys, tmp_path, monkeypatch):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full), "--no-audit")
    assert code == EXIT_OK

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(cli, "run_sweep", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", *SWEEP_ARGS, "--out", str(part), "--no-audit"])
    # the header alone is a position to resume from
    assert part.read_text() == full.read_text().splitlines(keepends=True)[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["full.csv", "part.csv"]
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume", "--no-audit"
    )
    assert code == EXIT_OK
    assert full.read_bytes() == part.read_bytes()


def test_sweep_resume_after_failed_row_writes_it_once(capsys, tmp_path, monkeypatch):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full), "--no-audit")
    assert code == EXIT_OK

    solves = []
    solve = sweep.gap_with_error

    def flaky(triangle, target, max_level):
        solves.append(target)
        if len(solves) == 3:
            raise sweep.SweepFailure("margin", "stub failure")
        return solve(triangle, target, max_level)

    with monkeypatch.context() as m:
        m.setattr(sweep, "gap_with_error", flaky)
        code, _, stderr = run(
            capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--no-audit"
        )
    assert code == EXIT_FAIL
    assert "stub failure" in stderr
    code, stdout, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume"
    )
    assert code == EXIT_OK
    assert "note: dropped 2 cells of unfinished row 0" in stderr
    assert "audit uncovered = 0" in stdout
    assert full.read_bytes() == part.read_bytes()


def test_sweep_solver_convergence_error_names_the_cell(capsys, tmp_path, monkeypatch):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    code, _, _ = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(full), "--no-audit")
    assert code == EXIT_OK

    solves = []
    solve = sweep.gap_with_error

    def unconverged(triangle, target, max_level):
        solves.append(target)
        if len(solves) == 3:
            raise ConvergenceError("stub residual tolerance not reached")
        return solve(triangle, target, max_level)

    with monkeypatch.context() as m:
        m.setattr("trigap.sweep.gap_with_error", unconverged)
        code, stdout, stderr = run(
            capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--no-audit"
        )
    assert code == EXIT_FAIL
    assert "reason = failed" in stdout
    assert "failure: stub residual tolerance not reached at cell j=0, i=2" in stderr
    assert "Traceback" not in stderr
    code, _, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(part), "--resume", "--no-audit"
    )
    assert code == EXIT_OK
    assert "note: dropped 2 cells of unfinished row 0" in stderr
    assert full.read_bytes() == part.read_bytes()


def test_sweep_no_audit_skips_audit(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, stdout, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--no-audit"
    )
    assert code == EXIT_OK
    assert "audit" not in stdout


@pytest.mark.parametrize(
    "window",
    ["0.4,0.6,0.3,0.5", "0.5,0.6", "0.5,0.6,0.5,0.4", "a,b,c,d"],
)
def test_sweep_rejects_bad_window(capsys, tmp_path, window):
    out = tmp_path / "cells.csv"
    code, _, stderr = run(capsys, "sweep", "--window", window, "--out", str(out))
    assert code == EXIT_USAGE
    assert "error:" in stderr


def test_sweep_rejects_bad_threads(capsys, tmp_path):
    out = tmp_path / "cells.csv"
    code, _, stderr = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--threads", "0"
    )
    assert code == EXIT_USAGE
    assert "error:" in stderr


@pytest.mark.parametrize("resume", [(), ("--resume",)], ids=["fresh", "resume"])
@pytest.mark.parametrize(
    "bad",
    [
        ("--threads", "0"),
        ("--max-level", "4"),
        ("--max-level", "13"),
        ("--audit-spacing", "0"),
        ("--audit-spacing", "-0.0001"),
        ("--max-rows", "-1"),
        ("--max-cells", "-1"),
        ("--audit-spacing", "-1e-4"),
        ("--exclusion-radius", "-1e-4"),
        ("--accuracy", "-1e-3"),
        ("--exclusion-radius", "nan"),
        ("--audit-spacing", "inf"),
        ("--audit-spacing", "nan"),
        ("--accuracy", "inf"),
        ("--exclusion-radius", "inf"),
    ],
    ids=[
        "threads",
        "max_level",
        "max_level_above_cap",
        "zero_spacing",
        "negative_spacing",
        "negative_rows",
        "negative_cells",
        "exponent_spacing",
        "exponent_radius",
        "exponent_accuracy",
        "nan_radius",
        "inf_spacing",
        "nan_spacing",
        "inf_accuracy",
        "inf_radius",
    ],
)
def test_sweep_usage_error_keeps_existing_csv(capsys, tmp_path, bad, resume):
    out = tmp_path / "keep.csv"
    code, _, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--max-rows", "1"
    )
    assert code == EXIT_BUDGET
    kept = out.read_bytes()
    code, _, stderr = run(capsys, "sweep", *SWEEP_ARGS, "--out", str(out), *bad, *resume)
    assert code == EXIT_USAGE
    assert "error:" in stderr
    # the value reaches the option checks: no argparse "expected one argument"
    assert stderr.startswith("error: ")
    assert out.read_bytes() == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


# ---------------------------------------------------------------- scaling


def test_scaling_single_height(capsys, tmp_path):
    out = tmp_path / "scaling.csv"
    code, stdout, _ = run(
        capsys,
        "scaling",
        "--heights",
        "0.1",
        "--accuracy",
        "0.5",
        "--max-level",
        "8",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    assert "xi*h^(4/3)" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "height,lambda1,lambda2,xi,xi_error,xi_times_h43,accuracy_met"
    assert len(lines) == 2


def test_scaling_csv_fields_are_the_library_values(capsys, tmp_path):
    out = tmp_path / "scaling.csv"
    code, _, _ = run(
        capsys,
        "scaling",
        "--heights",
        "0.1,0.05",
        "--max-level",
        "7",
        "--accuracy",
        "0.2",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    rows = []
    for h in (0.1, 0.05):
        triangle = Triangle(0.5, h)
        coarse = gap_with_error(triangle, 1e18, max_level=7)
        s = gap_with_error(triangle, max(0.2 * coarse.xi, 1e-6), max_level=7)
        values = (h, s.lambda1, s.lambda2, s.xi, s.xi_error, s.xi * h ** (4.0 / 3.0))
        rows.append([format_value(v) for v in (*values, s.accuracy_met)])
    lines = out.read_text().splitlines()
    assert [line.split(",") for line in lines[1:]] == rows


@pytest.mark.parametrize("max_level, caps", [("5", [5, 5, 5, 5]), ("10", [7, 10, 7, 10])])
def test_scaling_coarse_pass_keeps_to_the_level_cap(capsys, monkeypatch, max_level, caps):
    requested = []

    def solver(triangle, target, max_level=None):
        requested.append(max_level)
        return Spectrum(
            eigenvalues=(53.0, 131.0),
            error_bounds=(1e-9, 1e-9),
            levels=(max_level - 1, max_level),
            diameter=1.0,
            xi=78.0,
            xi_error=2e-9,
            accuracy_met=True,
        )

    monkeypatch.setattr(cli, "gap_with_error", solver)
    code, _, _ = run(capsys, "scaling", "--heights", "0.05,0.02", "--max-level", max_level)
    assert code == EXIT_OK
    # a coarse pass, then the measured one, per height
    assert requested == caps


def test_scaling_fine_pass_continues_the_coarse_ladder(capsys, monkeypatch):
    levels = []
    solve = eigensolver.solve_triangle

    def counted(*args, **kwargs):
        levels.append((args[0][2][1], args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_triangle", counted)
    code, _, _ = run(capsys, "scaling", "--heights", "0.3,0.2", "--max-level", "8")
    assert code == EXIT_OK
    # each height's levels run once, upwards from the lowest; the coarse
    # pass stops at the first bar, levels (5, 6), and the fine pass goes on
    for h in (0.3, 0.2):
        mine = [level for height, level in levels if height == h]
        assert mine == list(range(4, mine[-1] + 1))
        assert mine[-1] > 6


@pytest.mark.parametrize(
    "argv",
    [
        ("--heights", "0.05,0.1"),  # ascending
        ("--heights", "0.1,0.005"),  # below solver range
        ("--heights", ""),
        ("--x0", "0.3"),
        ("--x0", "1.2"),
        ("--accuracy", "0"),
        ("--accuracy", "1.5"),
        ("--max-level", "2"),  # below the minimum refinement
        ("--heights", "0.1,nan"),
        ("--heights", "inf,0.1"),
        ("--max-level", "13"),  # above MAX_LEVEL
    ],
)
def test_scaling_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "scaling.csv"
    code, stdout, stderr = run(capsys, "scaling", *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert "error:" in stderr
    # rejected before any height is solved or --out is opened
    assert stdout == ""
    assert not out.exists()


# ---------------------------------------------------------------- tables


def test_lame_verify_passes_and_flags_adjudications(capsys, tmp_path):
    out = tmp_path / "tables.csv"
    code, stdout, _ = run(capsys, "lame-verify", "--out", str(out))
    assert code == EXIT_OK
    assert "table integrals ok = 27/27" in stdout
    assert "quadrature converged = true" in stdout
    flagged_line = next(
        line for line in stdout.splitlines() if line.startswith("flagged entries")
    )
    for name in (
        "int_v_xx_sq_variant_54049",
        "int_phi1_sum_times_printed_product",
        "int_A3_printed_sq",
        "phi1_product_form_constant",
    ):
        assert name in flagged_line
    assert out.read_text().splitlines()[0].startswith("integral_name,")


def test_lame_spectrum_lists_levels(capsys):
    code, stdout, _ = run(capsys, "lame-spectrum", "--count", "5")
    assert code == EXIT_OK
    lines = [line for line in stdout.splitlines() if line.startswith("lambda_")]
    assert len(lines) == 5
    assert lines[0].startswith("lambda_1 = 52.637890139143245")
    assert "multiplicity = 1" in lines[0]
    assert "multiplicity = 2" in lines[1]


def test_lame_spectrum_rejects_bad_count(capsys):
    code, _, stderr = run(capsys, "lame-spectrum", "--count", "0")
    assert code == EXIT_USAGE
    assert "error:" in stderr


# ---------------------------------------------------------------- deformation


def test_deform_minimize_matches_closed_form(capsys):
    code, stdout, _ = run(capsys, "deform-minimize")
    assert code == EXIT_OK
    report = parse_report(stdout)
    assert float(report["difference"]) < 1e-9
    alpha, beta = (
        float(p) for p in report["coeffs"].strip("()").split(",")
    )
    assert abs(alpha) < 1e-6
    assert beta == pytest.approx(1.0, abs=1e-6)


def test_deform_minimize_rejects_tiny_grid(capsys):
    # minimize_I needs both ends of the scanned interval
    for grid in ("1", "0"):
        code, _, stderr = run(capsys, "deform-minimize", "--grid", grid)
        assert code == EXIT_USAGE
        assert "error:" in stderr


def test_deform_minimize_grid_2_prints_the_default_minimum(capsys):
    # the minimum lies at an end of the scanned interval, so two directions
    # find it
    code, stdout, _ = run(capsys, "deform-minimize", "--grid", "2")
    assert code == EXIT_OK
    _, default, _ = run(capsys, "deform-minimize")
    assert parse_report(stdout)["minimum I"] == parse_report(default)["minimum I"]


def test_deform_slope_default_direction(capsys):
    code, stdout, _ = run(capsys, "deform-slope")
    assert code == EXIT_OK
    report = parse_report(stdout)
    assert report["preserves_diameter"] == "true"
    assert float(report["I_min"]) == pytest.approx(2.6407155603, abs=1e-8)
    assert float(report["gamma_minus"]) <= 1.0 <= float(report["gamma_plus"])
    assert float(report["alpha_bound"]) < 2.32


def test_deform_slope_with_coeffs(capsys):
    code, stdout, _ = run(capsys, "deform-slope", "--coeffs", "0,1")
    assert code == EXIT_OK
    report = parse_report(stdout)
    assert float(report["I"]) == pytest.approx(float(report["I_quadrature"]), abs=1e-8)
    assert float(report["I"]) == pytest.approx(float(report["I_min"]), abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("--dir", "0,0"),
        ("--dir", "1"),
        ("--coeffs", "0,0"),
        ("--t", "-1"),
        ("--dir", "0,-1", "--t", "10"),  # collapses the triangle
        ("--t", "-1e-4"),
        ("--t", "nan"),
        ("--dir", "0,1", "--t", "inf"),
        ("--dir", "0,1", "--t", "1e200"),
    ],
)
def test_deform_slope_usage_errors(capsys, argv):
    code, stdout, stderr = run(capsys, "deform-slope", *argv)
    assert code == EXIT_USAGE
    assert "error:" in stderr
    assert stdout == ""


# ---------------------------------------------------------------- plot grid


def test_plot_grid_writes_lattice(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, stdout, _ = run(
        capsys,
        "plot-grid",
        "--tau-steps",
        "3",
        "--nu-steps",
        "2",
        "--accuracy",
        "0.5",
        "--max-level",
        "6",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    assert "grid points = 6" in stdout
    assert "missing = 0" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,nu,log_xi"
    assert len(lines) == 7
    # the lattice includes the equilateral point tau=1, nu=1
    assert "min log_xi" in stdout
    assert "tau=1, nu=1" in stdout
    threshold_line = next(
        line for line in stdout.splitlines() if "log threshold" in line
    )
    assert float(threshold_line.split("=")[1]) == pytest.approx(
        math.log(70.18385351885766), rel=1e-12
    )


def test_plot_grid_writes_an_empty_field_for_a_missing_value(
    capsys, tmp_path, monkeypatch
):
    def solver(triangle, target, max_level=None):
        if triangle.apex_x < 0.5:
            raise sweep.SweepFailure("margin", "stub failure")
        return Spectrum(
            eigenvalues=(53.0, 131.0),
            error_bounds=(1e-9, 1e-9),
            levels=(6, 7),
            diameter=1.0,
            xi=78.0,
            xi_error=2e-9,
            accuracy_met=True,
        )

    monkeypatch.setattr(cli, "gap_grid", functools.partial(sweep.gap_grid, solver=solver))
    out = tmp_path / "grid.csv"
    code, stdout, _ = run(
        capsys, "plot-grid", "--tau-steps", "3", "--nu-steps", "2", "--out", str(out)
    )
    assert code == EXIT_OK
    assert "missing = 2" in stdout
    points = sweep.gap_grid(3, 2, solver=solver)
    assert [p.log_xi is None for p in points] == [False] * 4 + [True] * 2
    lines = out.read_text().splitlines()
    assert lines[1:] == [
        f"{format_value(p.tau)},{format_value(p.nu)},{format_value(p.log_xi)}"
        for p in points
    ]
    assert [line.endswith(",") for line in lines[1:]] == [False] * 4 + [True] * 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--tau-steps", "1"),
        ("--nu-steps", "1"),
        ("--accuracy", "0"),
        ("--accuracy", "-1e-3"),
        ("--max-level", "4"),
        ("--max-level", "13"),
    ],
    ids=[
        "tau_steps",
        "nu_steps",
        "zero_accuracy",
        "negative_accuracy",
        "max_level",
        "max_level_above_cap",
    ],
)
def test_plot_grid_rejects_bad_steps(capsys, tmp_path, argv):
    out = tmp_path / "grid.csv"
    code, stdout, stderr = run(capsys, "plot-grid", *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert "error:" in stderr
    assert stdout == ""
    assert not out.exists()


# ---------------------------------------------------------------- config


def test_config_file_supplies_flags(capsys, tmp_path):
    cfg = tmp_path / "trigap.cfg"
    cfg.write_text("# spectrum settings\ncount=7\n")
    code, stdout, _ = run(capsys, "lame-spectrum", "--config", str(cfg))
    assert code == EXIT_OK
    assert len([l for l in stdout.splitlines() if l.startswith("lambda_")]) == 7


def test_command_line_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "trigap.cfg"
    cfg.write_text("count=7\n")
    code, stdout, _ = run(
        capsys, "lame-spectrum", "--config", str(cfg), "--count", "3"
    )
    assert code == EXIT_OK
    assert len([l for l in stdout.splitlines() if l.startswith("lambda_")]) == 3


def test_config_store_true_flag(capsys, tmp_path):
    cfg = tmp_path / "trigap.cfg"
    cfg.write_text("no-audit=true\n")
    out = tmp_path / "cells.csv"
    code, stdout, _ = run(
        capsys, "sweep", *SWEEP_ARGS, "--out", str(out), "--config", str(cfg)
    )
    assert code == EXIT_OK
    assert "audit" not in stdout


def test_config_knows_every_flag_that_takes_no_value():
    # a key=true line for a store_true flag missing from the list would
    # splice in "--key true", a usage error
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        option.lstrip("-")
        for parser in subparsers.choices.values()
        for action in parser._actions
        if isinstance(action, argparse._StoreTrueAction)
        for option in action.option_strings
    }
    assert flags == cli._STORE_TRUE_FLAGS


@pytest.mark.parametrize(
    "setup",
    ["missing", "no_path", "before_subcommand", "malformed"],
)
def test_config_usage_errors(capsys, tmp_path, setup):
    if setup == "missing":
        argv = ["lame-spectrum", "--config", str(tmp_path / "absent.cfg")]
    elif setup == "no_path":
        argv = ["lame-spectrum", "--config"]
    elif setup == "before_subcommand":
        cfg = tmp_path / "c.cfg"
        cfg.write_text("count=3\n")
        argv = ["--config", str(cfg), "lame-spectrum"]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("=3\n")
        argv = ["lame-spectrum", "--config", str(cfg)]
    code, _, stderr = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in stderr


# ---------------------------------------------------------------- --out


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("eigen", "--apex", "0.5,0.4"), "gap_with_error"),
        (("scaling", "--heights", "0.1"), "gap_with_error"),
        (("plot-grid",), "gap_grid"),
        (("lame-verify",), "verify_integral_tables"),
        (("sweep", *SWEEP_ARGS), "run_sweep"),
    ],
    ids=["eigen", "scaling", "plot_grid", "lame_verify", "sweep"],
)
def test_unwritable_out_is_a_usage_error_before_any_work(
    capsys, tmp_path, monkeypatch, argv, entry
):
    out = tmp_path / "nodir" / "x.csv"

    def must_not_run(*args, **kwargs):
        pytest.fail(f"{entry} called before --out was opened")

    monkeypatch.setattr(cli, entry, must_not_run)
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr == f"error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_eigen_failure_after_open_leaves_header_only_csv(capsys, tmp_path, monkeypatch):
    out = tmp_path / "eigen.csv"

    def no_convergence(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "gap_with_error", no_convergence)
    code, stdout, stderr = run(capsys, "eigen", "--apex", "0.5,0.4", "--out", str(out))
    assert code == EXIT_FAIL
    assert (stdout, stderr) == ("", "error: no convergence\n")
    assert out.read_text() == (
        "x,y,lambda1,lambda2,err_lambda1,err_lambda2,xi,xi_error,diameter,"
        "level_coarse,level_fine,accuracy_met\n"
    )


def test_lame_verify_failure_after_open_leaves_header_only_csv(tmp_path, monkeypatch):
    out = tmp_path / "tables.csv"

    def broken(*args, **kwargs):
        raise RuntimeError("quadrature broke")

    monkeypatch.setattr(cli, "verify_integral_tables", broken)
    with pytest.raises(RuntimeError):
        main(["lame-verify", "--out", str(out)])
    assert out.read_text() == (
        "integral_name,stated_value,computed_value,abs_error,rel_error,status\n"
    )


# ---------------------------------------------------------------- misc


def test_unknown_subcommand(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_subcommand(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_exit_code_constants_distinct():
    assert (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET) == (0, 1, 2, 3)
