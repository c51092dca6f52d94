"""Command-line interface.

Subcommands
-----------
eigen           first two Dirichlet eigenvalues and the gap at one apex
sweep           certified sweep over an apex window, CSV output, resumable
scaling         thin-triangle gap growth study over a list of heights
lame-verify     quadrature check of the equilateral integral tables
lame-spectrum   distinct equilateral eigenvalues with multiplicities
deform-minimize minimum first-order gap slope over directions and eigenspace
deform-slope    slope diagnostics for one deformation direction
plot-grid       log-gap values over a uniform (tau, nu) shape lattice

Exit codes: 0 success, 1 computation or check failure, 2 usage error,
3 budget exhausted (sweep stopped early by --max-cells / --max-rows).

Configuration can come from a plain-text key=value file via --config; flags
given on the command line override file entries.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from .deformation import (
    DeformationDirection,
    SecondEigenspaceCoeffs,
    alpha_bound,
    gamma_bounds,
    lambda1_slope,
    lambda1_slope_closed_form,
    minimize_I,
    preserves_diameter,
    slope_gap_I,
    slope_gap_I_quadrature,
    slope_gap_branch_extremes,
)
from .eigensolver import (
    DEFAULT_MAX_LEVEL, RATE_WINDOW, ConvergenceError, gap_with_error, ladder_scope,
    _check_request,
)
from .geometry import EQUILATERAL_APEX, GAP_THRESHOLD, Triangle
from .lame import distinct_spectrum
from .sweep import (
    SweepFailure,
    SweepPolicy,
    SweepWindow,
    cells_from_csv,
    cells_to_csv,
    coverage_audit,
    csv_row,
    format_cell_row,
    format_value,
    gap_grid,
    resume_point,
    run_sweep,
    _check_grid_request,
    _check_run,
    _check_spacing,
)
from .tables import CSV_COLUMNS as TABLE_COLUMNS, verify_integral_tables

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_STORE_TRUE_FLAGS = {"resume", "no-audit"}


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)


class _Parser(argparse.ArgumentParser):
    """Reads option values such as -1e-4 as negative numbers, as argparse
    does from Python 3.13 on; no trigap option starts with a digit."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trigap",
        description="Certified spectral-gap computations for Euclidean triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="eigenvalues and gap at one apex")
    p.add_argument("--apex", required=True, help="apex coordinates x,y")
    p.add_argument("--accuracy", type=float, default=1e-3, help="gap error target")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--out", default=None, help="optional CSV path")

    defaults = SweepPolicy()
    p = sub.add_parser("sweep", help="certified sweep over an apex window")
    p.add_argument("--window", default="0.5,1.0,0.3,0.95", help="x0,x1,y0,y1")
    p.add_argument(
        "--accuracy",
        type=float,
        default=defaults.initial_accuracy,
        help="initial per-cell gap target",
    )
    p.add_argument("--exclusion-radius", type=float, default=defaults.exclusion_radius)
    p.add_argument("--max-level", type=int, default=defaults.max_level)
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    p.add_argument("--threads", type=int, default=cores, help="default: usable cores")
    p.add_argument("--out", default="sweep_cells.csv")
    p.add_argument("--resume", action="store_true")
    p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop at the first row boundary once this run has written this "
        "many cells (a resumed run counts from zero, as --max-rows does)",
    )
    p.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="stop after this many rows of this run",
    )
    p.add_argument("--no-audit", action="store_true")
    p.add_argument("--audit-spacing", type=float, default=1e-4)

    p = sub.add_parser("scaling", help="thin-triangle gap growth study")
    p.add_argument("--heights", default="0.1,0.05,0.02", help="descending heights")
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument(
        "--accuracy",
        type=float,
        default=0.02,
        help="relative gap target per height (absolute target set from a coarse pass)",
    )
    p.add_argument(
        "--max-level",
        type=int,
        default=DEFAULT_MAX_LEVEL,
        help="refinement cap, gap_with_error's default; level 10 at height 0.02 takes about 1 GB",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("lame-verify", help="verify equilateral integral tables")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lame-spectrum", help="distinct equilateral eigenvalues")
    p.add_argument("--count", type=int, default=5)

    p = sub.add_parser("deform-minimize", help="minimize the first-order gap slope")
    p.add_argument(
        "--grid",
        type=int,
        default=10000,
        help="directions scanned, both ends included (at least 2; exact at any count)",
    )

    p = sub.add_parser("deform-slope", help="slope diagnostics for one direction")
    p.add_argument(
        "--dir",
        default="0.8660254037844386,-0.5",
        help="deformation direction a,b (normalized)",
    )
    p.add_argument("--coeffs", default=None, help="eigenspace coefficients alpha,beta")
    p.add_argument("--t", type=float, default=4e-4, help="magnitude for metric bounds")

    p = sub.add_parser("plot-grid", help="log-gap over a (tau, nu) lattice")
    p.add_argument("--tau-steps", type=int, default=21)
    p.add_argument("--nu-steps", type=int, default=10)
    p.add_argument("--accuracy", type=float, default=0.05)
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--out", default="gap_grid.csv")

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice --config file entries in as flags right after the subcommand.

    Command-line flags appear later and therefore win (argparse keeps the
    last occurrence of a plain store option).
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    if idx == 0:
        raise ValueError("--config must follow a subcommand")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().lstrip("-")
            value = value.strip()
            if not key:
                raise ValueError(f"malformed config line: {raw!r}")
            if key in _STORE_TRUE_FLAGS:
                if value.lower() in ("1", "true", "yes", ""):
                    tokens.append(f"--{key}")
            else:
                tokens.extend([f"--{key}", value])
    return [rest[0], *tokens, *rest[1:]]


def _open_out(path: str, mode: str = "w"):
    """Open --out after the option checks and before any work: a path that
    cannot be written is a usage error like a bad option."""
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _open_csv(path: str, header: str):
    """--out with its header written; a later failure leaves just the header."""
    fh = _open_out(path)
    fh.write(header + "\n")
    return fh


def _unit_pair(text: str, flag: str, what: str) -> tuple[float, float]:
    a, b = _parse_floats(text, 2, flag)
    norm = math.hypot(a, b)
    if norm == 0.0:
        raise ValueError(f"{what} must be nonzero")
    return a / norm, b / norm


def _point(a: float, b: float) -> str:
    return f"({format_value(a)}, {format_value(b)})"


def cmd_eigen(args: argparse.Namespace) -> int:
    x, y = _parse_floats(args.apex, 2, "--apex")
    triangle = Triangle(x, y)
    _check_request(args.accuracy, args.max_level)
    header = (
        "x,y,lambda1,lambda2,err_lambda1,err_lambda2,xi,xi_error,diameter,"
        "level_coarse,level_fine,accuracy_met"
    )
    with _open_csv(args.out, header) if args.out else nullcontext() as out_fh:
        try:
            spectrum = gap_with_error(triangle, args.accuracy, max_level=args.max_level)
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        e1, e2 = spectrum.error_bounds
        print(f"apex = {_point(x, y)}")
        print(f"lambda1 = {format_value(spectrum.lambda1)} +- {format_value(e1)}")
        print(f"lambda2 = {format_value(spectrum.lambda2)} +- {format_value(e2)}")
        print(f"diameter = {format_value(spectrum.diameter)}")
        print(f"xi = {format_value(spectrum.xi)} +- {format_value(spectrum.xi_error)}")
        print(f"threshold = {format_value(GAP_THRESHOLD)}")
        print(f"levels = {csv_row(spectrum.levels)}")
        print(f"accuracy_met = {format_value(spectrum.accuracy_met)}")
        if not spectrum.accuracy_met:
            warning = "requested accuracy not reached at the level cap"
            if math.isinf(spectrum.xi_error):
                warning = (
                    f"the ladder's rates never entered RATE_WINDOW {list(RATE_WINDOW)}"
                    " by the level cap: no error bar"
                )
            print(f"warning: {warning}", file=sys.stderr)
        if out_fh is not None:
            row = (x, y, *spectrum.eigenvalues, e1, e2, spectrum.xi, spectrum.xi_error)
            row += (spectrum.diameter, *spectrum.levels, spectrum.accuracy_met)
            out_fh.write(csv_row(row) + "\n")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    window = SweepWindow(*_parse_floats(args.window, 4, "--window"))
    policy = SweepPolicy(
        initial_accuracy=args.accuracy,
        exclusion_radius=args.exclusion_radius,
        max_level=args.max_level,
    )
    _check_run(args.threads, args.max_rows, args.max_cells)
    _check_spacing(args.audit_spacing)

    # The CSV is the sweep's only record: on --resume the position is
    # replayed from its cells, and the cells of an unfinished row are dropped.
    prior_cells: tuple = ()
    resume_state = None
    if args.resume:
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                prior_text = fh.read()
            # Only newline-terminated lines were written in full: a run
            # killed in the middle of a line leaves an unterminated tail.
            written = prior_text[: prior_text.rfind("\n") + 1]
            prior_cells = cells_from_csv(written)
            resume_state = resume_point(prior_cells, window, policy)
        except (OSError, ValueError) as exc:
            print(f"error: cannot resume from {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        kept = resume_state.cells_emitted
        dropped = len(prior_cells) - kept + bool(prior_text[len(written) :].strip())
        prior_cells = prior_cells[:kept]
        if dropped:
            print(
                f"note: dropped {dropped} cells of unfinished row "
                f"{resume_state.j} from {args.out}",
                file=sys.stderr,
            )

    mode = "r+" if args.resume else "w"
    with _open_out(args.out, mode) as out_fh:
        # A fresh run writes the header at once, so a run killed before its
        # first row leaves a CSV to resume; --resume rewrites the kept cells,
        # a prefix of the file, in place and cuts off the rest.
        out_fh.write(cells_to_csv(prior_cells))
        out_fh.truncate()
        out_fh.flush()

        def sink(cell) -> None:
            out_fh.write(format_cell_row(cell) + "\n")
            out_fh.flush()

        result = run_sweep(
            window,
            policy,
            sink=sink,
            resume_from=resume_state,
            threads=args.threads,
            max_rows=args.max_rows,
            max_cells=args.max_cells,
        )

    print(f"cells this run = {len(result.cells)}")
    print(f"cells total = {result.state.cells_emitted}")
    print(f"rows completed = {result.state.j}")
    print(f"next seed y = {format_value(result.state.y)}")
    print(f"reason = {result.reason}")
    if result.reason == "failed":
        print(f"failure: {result.failure}", file=sys.stderr)
        return EXIT_FAIL
    if result.reason == "budget":
        print("stopped at the row boundary after exhausting the budget")
        return EXIT_BUDGET
    if args.no_audit:
        return EXIT_OK
    all_cells = tuple(prior_cells) + result.cells
    report = coverage_audit(
        all_cells,
        window,
        spacing=args.audit_spacing,
        exclusion_radius=args.exclusion_radius,
    )
    print(f"audit points = {report.total_points}")
    print(f"audit uncovered = {report.uncovered_count}")
    if not report.passed:
        for px, py in report.uncovered_sample:
            print(f"uncovered: {_point(px, py)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    heights = [float(p) for p in args.heights.split(",") if p.strip() != ""]
    if not heights:
        raise ValueError("no heights given")
    if any(not h >= 0.01 for h in heights):
        raise ValueError("heights below 0.01 are outside the solver's range")
    if any(b >= a for a, b in zip(heights, heights[1:])):
        raise ValueError("heights must be strictly descending")
    if not 0.5 <= args.x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0.5, 1], got {args.x0}")
    if not 0.0 < args.accuracy < 1.0:
        raise ValueError("relative accuracy must lie in (0, 1)")
    _check_request(args.accuracy, args.max_level)
    # Triangle rejects an infinite height, before any output
    triangles = [Triangle(args.x0, h) for h in heights]

    rows = []
    failures = 0
    header = "height,lambda1,lambda2,xi,xi_error,xi_times_h43,accuracy_met"
    with _open_csv(args.out, header) if args.out else nullcontext() as out_fh:
        for h, triangle in zip(heights, triangles):
            try:
                # the fine pass continues the coarse pass's ladder
                with ladder_scope():
                    coarse = gap_with_error(triangle, 1e18, max_level=min(7, args.max_level))
                    target = max(args.accuracy * coarse.xi, 1e-6)
                    s = gap_with_error(triangle, target, max_level=args.max_level)
            except ConvergenceError as exc:
                print(f"height {h}: solver failure: {exc}", file=sys.stderr)
                failures += 1
                continue
            scaled = s.xi * h ** (4.0 / 3.0)
            rows.append((h, s.xi))
            flag = "" if s.accuracy_met else "  [accuracy not met]"
            print(
                f"h = {format_value(h)}  xi = {format_value(s.xi)}"
                f" +- {format_value(s.xi_error)}"
                f"  xi*h^(4/3) = {format_value(scaled)}{flag}"
            )
            if out_fh is not None:
                row = (h, s.lambda1, s.lambda2, s.xi, s.xi_error, scaled, s.accuracy_met)
                out_fh.write(csv_row(row) + "\n")
    if len(rows) >= 2:
        logs_h, logs_xi = np.log(rows).T
        slope = float(np.polyfit(logs_h, logs_xi, 1)[0])
        print(f"log-log slope = {format_value(slope)}")
    return EXIT_FAIL if failures else EXIT_OK


def cmd_lame_verify(args: argparse.Namespace) -> int:
    header = ",".join(TABLE_COLUMNS)
    with _open_csv(args.out, header) if args.out else nullcontext() as out_fh:
        report = verify_integral_tables()
        if out_fh is not None:
            for row in report.rows:
                values = (row.stated_value, row.computed_value, row.abs_error, row.rel_error)
                out_fh.write(f"{row.name},{csv_row(values)},{row.status}\n")
    for row in report.flagged:
        print(
            f"{row.name}: {row.status}  stated={format_value(row.stated_value)} "
            f"computed={format_value(row.computed_value)}  ({row.note})"
        )
    table_rows = [row for row in report.rows if row.kind == "table"]
    table_ok = sum(row.status == "ok" for row in table_rows)
    print(f"table integrals ok = {table_ok}/{len(table_rows)}")
    print(f"quadrature converged = {format_value(report.converged)}")
    flagged = [row.name for row in report.flagged]
    print(f"flagged entries = {','.join(flagged) if flagged else 'none'}")
    return EXIT_OK if report.table_rows_ok and report.converged else EXIT_FAIL


def cmd_lame_spectrum(args: argparse.Namespace) -> int:
    for k, level in enumerate(distinct_spectrum(args.count), start=1):
        pairs = " ".join(f"({p.m},{p.n})" for p in level.representative_pairs)
        print(
            f"lambda_{k} = {format_value(level.value)}"
            f"  multiplicity = {level.multiplicity}  pairs: {pairs}"
        )
    return EXIT_OK


def cmd_deform_minimize(args: argparse.Namespace) -> int:
    result = minimize_I(grid=args.grid)
    difference = abs(result.value - result.closed_form_minimum)
    print(f"minimum I = {format_value(result.value)}")
    print(f"closed form = {format_value(result.closed_form_minimum)}")
    print(f"difference = {format_value(difference)}")
    print(f"coeffs = {_point(result.coeffs.alpha, result.coeffs.beta)}")
    print(f"direction = {_point(result.direction.a, result.direction.b)}")
    print(f"angle_s = {format_value(result.angle_s)}")
    return EXIT_OK


def cmd_deform_slope(args: argparse.Namespace) -> int:
    direction = DeformationDirection(*_unit_pair(args.dir, "--dir", "direction"))
    coeffs = None
    if args.coeffs is not None:
        pair = _unit_pair(args.coeffs, "--coeffs", "coefficients")
        coeffs = SecondEigenspaceCoeffs(*pair)
    # before any output: gamma_bounds rejects a negative --t or one that
    # collapses the triangle
    bounds = gamma_bounds(EQUILATERAL_APEX[1], direction, args.t)
    alpha = alpha_bound(direction, args.t)
    print(f"direction = {_point(direction.a, direction.b)}")
    print(f"preserves_diameter = {format_value(preserves_diameter(direction))}")
    print(f"lambda1_slope = {format_value(lambda1_slope_closed_form(direction))}")
    print(f"lambda1_slope_quadrature = {format_value(lambda1_slope(direction))}")
    lo, hi = slope_gap_branch_extremes(direction)
    print(f"I_min = {format_value(lo)}")
    print(f"I_max = {format_value(hi)}")
    if coeffs is not None:
        print(f"I = {format_value(slope_gap_I(coeffs, direction))}")
        print(f"I_quadrature = {format_value(slope_gap_I_quadrature(coeffs, direction))}")
    print(f"gamma_minus = {format_value(bounds.gamma_minus)}")
    print(f"gamma_plus = {format_value(bounds.gamma_plus)}")
    print(f"gamma_spread = {format_value(bounds.spread)}")
    print(f"alpha_bound = {format_value(alpha)}")
    return EXIT_OK


def cmd_plot_grid(args: argparse.Namespace) -> int:
    _check_grid_request(args.tau_steps, args.nu_steps, args.accuracy, args.max_level)
    with _open_csv(args.out, "tau,nu,log_xi") as out_fh:
        points = gap_grid(
            args.tau_steps,
            args.nu_steps,
            accuracy=args.accuracy,
            max_level=args.max_level,
        )
        out_fh.writelines(csv_row((p.tau, p.nu, p.log_xi)) + "\n" for p in points)
    computed = [p for p in points if p.log_xi is not None]
    print(f"grid points = {len(points)}")
    print(f"computed = {len(computed)}")
    print(f"missing = {len(points) - len(computed)}")
    if computed:
        best = min(computed, key=lambda p: p.log_xi)
        print(
            f"min log_xi = {format_value(best.log_xi)}"
            f" at tau={format_value(best.tau)}, nu={format_value(best.nu)}"
        )
        print(f"equilateral log threshold = {format_value(math.log(GAP_THRESHOLD))}")
    return EXIT_OK


_COMMANDS = {
    "eigen": cmd_eigen,
    "sweep": cmd_sweep,
    "scaling": cmd_scaling,
    "lame-verify": cmd_lame_verify,
    "lame-spectrum": cmd_lame_spectrum,
    "deform-minimize": cmd_deform_minimize,
    "deform-slope": cmd_deform_slope,
    "plot-grid": cmd_plot_grid,
}


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        raw = _apply_config(raw)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    # Commands check their options by raising ValueError, before any output
    # file is opened: every bad value is a usage error.
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
