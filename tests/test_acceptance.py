"""End-to-end acceptance checks for the certified spectral-gap toolchain.

Each test exercises one observable guarantee at a pinned tolerance and
records a one-line verdict; pytest prints the collected lines in the
"acceptance criteria" terminal section at the end of the run.

Criterion 7 fails by design: the full window has not been run end to end,
and the test still asserts that the corridor just below the exclusion ball
stops at an accuracy failure.  That was true while each bar was the
Richardson bar, whose floor at the level-(9,10) cap (2.1e-3 in xi) lay
above the ~2.9e-4 the digit rule needs there.  With the observed-tail bar
the corridor completes at level 8, so the test now fails at that
assertion, before its printout, which still describes the old floor.  It
is to be rewritten to assert the criterion itself once the full window
certifies.  The sweep machinery is verified on a subwindow.
"""

import math
import time

import numpy as np

from trigap.cli import EXIT_BUDGET, EXIT_OK, main
from trigap.deformation import (
    EQUILATERAL_HEIGHT,
    DeformationDirection,
    gamma_bounds,
    minimize_I,
    preserves_diameter,
)
from trigap.eigensolver import gap_with_error
from trigap.geometry import GAP_THRESHOLD, Triangle
from trigap.sweep import SweepPolicy, SweepWindow, coverage_audit, run_sweep
from trigap.tables import verify_integral_tables

LAMBDA1_EQ = 16.0 * math.pi**2 / 3.0
LAMBDA2_EQ = 112.0 * math.pi**2 / 9.0


def _report_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.partition(" = ")[2]
    raise KeyError(f"{key!r} not in report:\n{out}")


def _measured(out: str, key: str) -> float:
    return float(_report_value(out, key).split(" +- ")[0])


def test_criterion_1_equilateral_gap_via_cli(acceptance, capsys):
    description = (
        "eigen CLI at the equilateral apex: eigenvalues within 0.05%, "
        "gap within 0.1%, refinement <= 7, under 60 s"
    )
    with acceptance(1, description) as outcome:
        t0 = time.perf_counter()
        code = main(
            [
                "eigen",
                "--apex",
                f"0.5,{EQUILATERAL_HEIGHT!r}",
                "--accuracy",
                "1e-3",
                "--max-level",
                "7",
            ]
        )
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lam1 = _measured(out, "lambda1")
        lam2 = _measured(out, "lambda2")
        xi = _measured(out, "xi")
        levels = [int(v) for v in _report_value(out, "levels").split(",")]
        assert max(levels) <= 7
        rel1 = abs(lam1 - LAMBDA1_EQ) / LAMBDA1_EQ
        rel2 = abs(lam2 - LAMBDA2_EQ) / LAMBDA2_EQ
        relg = abs(xi - GAP_THRESHOLD) / GAP_THRESHOLD
        assert rel1 <= 5e-4
        assert rel2 <= 5e-4
        assert relg <= 1e-3
        assert elapsed < 60.0
        outcome["ok"] = True
        outcome["detail"] = (
            f"rel errors {rel1:.1e} / {rel2:.1e} / gap {relg:.1e}, "
            f"levels {levels[0]},{levels[1]}, {elapsed:.1f}s"
        )


def test_criterion_2_right_isosceles_reference(acceptance):
    description = (
        "right isosceles with unit legs: eigenvalues within 0.05% "
        "of 5pi^2 and 10pi^2"
    )
    with acceptance(2, description) as outcome:
        spectrum = gap_with_error(Triangle(0.0, 1.0), 1e-2)
        lam1, lam2 = spectrum.eigenvalues
        exact1 = 5.0 * math.pi**2
        exact2 = 10.0 * math.pi**2
        rel1 = abs(lam1 - exact1) / exact1
        rel2 = abs(lam2 - exact2) / exact2
        assert rel1 <= 5e-4
        assert rel2 <= 5e-4
        outcome["ok"] = True
        outcome["detail"] = f"rel errors {rel1:.1e} / {rel2:.1e}"


def test_criterion_3_integral_tables(acceptance):
    description = (
        "equilateral integral tables: every entry reproduced to 1e-6 rel "
        "(zeros to 1e-9 abs) or flagged with both values, under 30 s"
    )
    with acceptance(3, description) as outcome:
        t0 = time.perf_counter()
        report = verify_integral_tables()
        elapsed = time.perf_counter() - t0
        assert report.rows
        ok_count = 0
        flagged = []
        for row in report.rows:
            # A disagreement may only be blamed on the printed value once
            # the quadrature itself has converged.
            assert row.convergence_gap < 1e-10
            if row.status == "ok":
                ok_count += 1
                if row.stated_value == 0.0:
                    assert row.abs_error <= 1e-9
                else:
                    assert row.rel_error <= 1e-6
            else:
                assert math.isfinite(row.computed_value)
                assert math.isfinite(row.stated_value)
                assert row.note
                flagged.append(row.name)
        assert report.table_rows_ok
        assert elapsed < 30.0
        outcome["ok"] = True
        outcome["detail"] = (
            f"{ok_count}/{len(report.rows)} reproduced, "
            f"{len(flagged)} flagged ({', '.join(flagged)}), {elapsed:.1f}s"
        )


def test_criterion_4_slope_minimum(acceptance):
    description = (
        "first-order gap slope minimum 2.64072 at coefficients (0, 1), "
        "direction (sqrt3/2, -1/2), within 1e-5"
    )
    with acceptance(4, description) as outcome:
        result = minimize_I()
        exact = (25600.0 * math.pi**2 - 236196.0) / (3600.0 * math.sqrt(3.0))
        diff = abs(result.value - exact)
        assert diff <= 1e-5
        assert abs(result.coeffs.alpha) <= 1e-3
        assert abs(result.coeffs.beta - 1.0) <= 1e-3
        assert abs(result.direction.a - math.sqrt(3.0) / 2.0) <= 1e-3
        assert abs(result.direction.b + 0.5) <= 1e-3
        assert preserves_diameter(result.direction)
        outcome["ok"] = True
        outcome["detail"] = (
            f"min {result.value:.10f} (|diff| {diff:.1e}), argmin "
            f"coeffs ({result.coeffs.alpha:.1e}, {result.coeffs.beta:.6f}), "
            f"direction ({result.direction.a:.6f}, {result.direction.b:.6f})"
        )


def test_criterion_5_sandwich_random_directions(acceptance):
    description = (
        "metric sandwich for 50 random diameter-preserving directions "
        "at t in {0.01, 0.05, 0.1}: solved eigenvalues inside "
        "[gm*lam - 2 err, gp*lam + 2 err]"
    )
    with acceptance(5, description) as outcome:
        rng = np.random.default_rng(20260815)
        thetas = rng.uniform(1.5 * math.pi, 11.0 * math.pi / 6.0, size=50)
        base = (LAMBDA1_EQ, LAMBDA2_EQ)
        checks = 0
        violations = []
        for theta in thetas:
            direction = DeformationDirection(math.cos(theta), math.sin(theta))
            assert preserves_diameter(direction)
            for t in (0.01, 0.05, 0.1):
                bounds = gamma_bounds(EQUILATERAL_HEIGHT, direction, t)
                spectrum = gap_with_error(
                    Triangle(
                        0.5 + t * direction.a,
                        EQUILATERAL_HEIGHT + t * direction.b,
                    ),
                    0.05,
                    max_level=7,
                )
                pairs = zip(spectrum.eigenvalues, spectrum.error_bounds, base)
                for lam, err, lam0 in pairs:
                    checks += 1
                    low = bounds.gamma_minus * lam0 - 2.0 * err
                    high = bounds.gamma_plus * lam0 + 2.0 * err
                    if not low <= lam <= high:
                        violations.append((theta, t, lam0, lam, low, high))
        assert checks == 300
        assert not violations, violations
        outcome["ok"] = True
        outcome["detail"] = f"{checks} sandwich checks, 0 violations"


def test_criterion_6_worst_direction_growth(acceptance):
    description = (
        "worst-direction deformation at t in {0.005, 0.01, 0.02}: certified "
        "gap above the threshold with slope (xi - err - thr)/t >= 2.0"
    )
    with acceptance(6, description) as outcome:
        direction = DeformationDirection(math.sqrt(3.0) / 2.0, -0.5)
        slopes = []
        for t in (0.005, 0.01, 0.02):
            spectrum = gap_with_error(
                Triangle(
                    0.5 + t * direction.a,
                    EQUILATERAL_HEIGHT + t * direction.b,
                ),
                4e-3,
            )
            certified = spectrum.xi - spectrum.xi_error - GAP_THRESHOLD
            assert certified > 0.0
            slopes.append(certified / t)
        assert min(slopes) >= 2.0
        outcome["ok"] = True
        outcome["detail"] = "certified slopes " + ", ".join(
            f"{s:.2f}" for s in slopes
        )


def test_criterion_7_certification_window(acceptance):
    description = (
        "certification sweep over x in [0.5, 0.85], y in [0.4, 0.95] with "
        "the exclusion ball: exit 0, every cell above threshold, audit "
        "clean, under 30 min"
    )
    with acceptance(7, description) as outcome:
        # Machinery on a subwindow away from the equilateral apex: the sweep
        # completes, every cell clears the threshold by twice its error, and
        # the disc audit finds no hole.
        t0 = time.perf_counter()
        window = SweepWindow(0.5, 0.55, 0.4, 0.44)
        result = run_sweep(window, SweepPolicy(initial_accuracy=0.25), threads=2)
        sub_elapsed = time.perf_counter() - t0
        assert result.reason == "complete"
        assert result.cells
        assert all(c.xi - GAP_THRESHOLD > 2.0 * c.err for c in result.cells)
        audit = coverage_audit(result.cells, window)
        assert audit.uncovered_count == 0

        # The corridor just below the exclusion ball: certification radii
        # shrink linearly with the distance to the equilateral apex and the
        # digit rule tightens a decade per radius decade, so the fixed
        # solver error floor stops the sweep before the ball is reached.
        t0 = time.perf_counter()
        corridor = SweepWindow(0.5, 0.5001, 0.8646, 0.8660)
        doomed = run_sweep(corridor, SweepPolicy(initial_accuracy=0.25))
        corridor_elapsed = time.perf_counter() - t0
        assert doomed.reason == "failed"
        assert doomed.failure is not None
        assert doomed.failure.reason == "accuracy"
        assert doomed.cells
        assert all(c.t_radius == 1e-4 for c in doomed.cells)
        per_cell = corridor_elapsed / (len(doomed.cells) + 1)
        fail = doomed.failure

        print()
        print("criterion 7 measurements on this machine:")
        print(
            f"  subwindow [0.5,0.55]x[0.4,0.44]: {len(result.cells)} cells, "
            f"audit 0/{audit.total_points} uncovered, {sub_elapsed:.0f}s"
        )
        print(
            f"  corridor [0.5,0.5001]x[0.8646,0.866]: digit rule unmet at "
            f"apex ({fail.x}, {fail.y}), xi={fail.xi:.6f}, gap error "
            f"{fail.err:.2e} at the refinement cap, {per_cell:.0f} s/cell"
        )
        print(
            "  radii pass below 1e-4 about 1.3e-3 from the equilateral apex "
            "(outside the 4e-4 exclusion ball); the digit rule then needs "
            "gap error <= ~2.9e-4"
        )
        print(
            f"  the solver floor at its feasible cap is {fail.err:.1e} "
            "(levels 9,10; a level-11 ladder measured 5.3e-4 in 15.9 s and "
            "1,178 MB, still above 2.9e-4, and a level-12 ladder was killed "
            "at 4.3 GB after 20 minutes)"
        )
        print(
            "  projected full window: at least 6,035 cells in 130 rows, every "
            f"near-apex cell at ~{per_cell:.0f} s -> hours, not minutes"
        )
        outcome["detail"] = (
            "machinery verified on subwindows (complete run, clean audit), "
            "but the full window is infeasible: near the exclusion ball the "
            f"digit rule needs gap error <= ~2.9e-4 while the solver floor "
            f"is {fail.err:.1e}, and the runtime projects to hours"
        )


def test_criterion_8_thin_triangle_scaling(acceptance, tmp_path, capsys):
    description = (
        "thin-triangle scaling at heights 0.1, 0.05, 0.02: gap strictly "
        "grows as height falls and xi*h^(4/3) stays bounded below"
    )
    with acceptance(8, description) as outcome:
        out = tmp_path / "scaling.csv"
        t0 = time.perf_counter()
        code = main(
            [
                "scaling",
                "--heights",
                "0.1,0.05,0.02",
                "--x0",
                "0.5",
                "--accuracy",
                "0.02",
                "--max-level",
                "10",
                "--out",
                str(out),
            ]
        )
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        heights = [float(r["height"]) for r in rows]
        xis = [float(r["xi"]) for r in rows]
        scaled = [float(r["xi_times_h43"]) for r in rows]
        assert heights == [0.1, 0.05, 0.02]
        assert xis[0] < xis[1] < xis[2]
        assert min(scaled) > 10.0
        logs = np.polyfit(np.log(heights), np.log(xis), 1)
        outcome["ok"] = True
        outcome["detail"] = (
            f"xi = {xis[0]:.1f} -> {xis[1]:.1f} -> {xis[2]:.1f}, "
            f"xi*h^(4/3) in [{min(scaled):.1f}, {max(scaled):.1f}], "
            f"log-log slope {logs[0]:.3f}, {elapsed:.0f}s"
        )


def test_criterion_9_sweep_resume_byte_identity(acceptance, tmp_path, capsys):
    description = (
        "sweep stopped at a row boundary and resumed writes the same CSV "
        "byte for byte as an uninterrupted run"
    )
    with acceptance(9, description) as outcome:
        args = ["--window", "0.5,0.51,0.4,0.41", "--accuracy", "0.25"]
        full = tmp_path / "full.csv"
        assert main(["sweep", *args, "--out", str(full)]) == EXIT_OK
        part = tmp_path / "part.csv"
        code = main(["sweep", *args, "--out", str(part), "--max-rows", "1"])
        assert code == EXIT_BUDGET
        assert main(["sweep", *args, "--out", str(part), "--resume"]) == EXIT_OK
        capsys.readouterr()
        full_bytes = full.read_bytes()
        assert full_bytes == part.read_bytes()
        outcome["ok"] = True
        outcome["detail"] = (
            f"{len(full_bytes)} bytes identical after interrupt and resume"
        )
