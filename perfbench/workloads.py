"""The benchmark's workloads: inputs made from a seed, one unit of work with
its correctness gate, and the per-layer numbers of a traced unit.

Every workload is a closed loop with one caller: the next unit starts when
the previous one has returned and been checked.  The seed moves the inputs
inside a band narrow enough that every seed does the same amount of work
(same cells, same refinement levels), so run-to-run spread measures the
program and not the input.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from trigap import eigensolver, lame
from trigap.deformation import minimize_I
from trigap.geometry import Triangle
from trigap.lame import distinct_spectrum
from trigap.sweep import SweepPolicy, SweepWindow, coverage_audit, run_sweep
from trigap.tables import verify_integral_tables

from tracing import Tracer, union_length

# Closed forms, written out here rather than imported so the gate does not
# trust the constants of the code it checks.
GAP_THRESHOLD = 64.0 * math.pi**2 / 9.0
LAMBDA1_EQUILATERAL = 16.0 * math.pi**2 / 3.0
LAMBDA2_EQUILATERAL = 112.0 * math.pi**2 / 9.0
I_MINIMUM = (25600.0 * math.pi**2 - 236196.0) / (3600.0 * math.sqrt(3.0))

PER_LAYER = {
    "eigensolver.gap_with_error.calls": "count",
    "eigensolver.gap_with_error.busy_s": "s",
    "eigensolver.gap_with_error.self_s": "s",
    "eigensolver.gap_with_error.p50_s": "s",
    "eigensolver.gap_with_error.p90_s": "s",
    "eigensolver.solve_triangle.calls": "count",
    "eigensolver.solve_triangle.busy_s": "s",
    "eigensolver.solve_triangle.self_s": "s",
    "eigensolver.build_mesh.busy_s": "s",
    "eigensolver.assemble.busy_s": "s",
    "eigensolver.smallest_eigenpairs.busy_s": "s",
    "eigensolver.unknowns_solved": "count",
    "eigensolver.unknowns_per_s": "1/s",
    "eigensolver.top_level": "count",
    "eigensolver.useful_level_ratio": "ratio",
    "eigensolver.xi_error": "xi",
    "sweep.solver_calls": "count",
    "sweep.cells": "count",
    "sweep.rows": "count",
    "sweep.calls_per_cell": "ratio",
    "sweep.wasted_solve_s": "s",
    "sweep.seed_column_s": "s",
    "sweep.self_s": "s",
    "sweep.thread_utilization": "ratio",
    "sweep.speedup": "ratio",
    "sweep.coverage_audit_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.busy_s": "s",
    "tables.verify_integral_tables_s": "s",
    "deformation.minimize_I_s": "s",
    "lame.distinct_spectrum_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass
class UnitResult:
    """One unit of work: its wall time, what it delivered and what failed."""

    wall_s: float
    results: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    sweep_s: float = 0.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up() -> None:
    """One solve at the equilateral apex, checked against the closed form."""
    spectrum = eigensolver.gap_with_error(Triangle(0.5, math.sqrt(3.0) / 2.0), 0.5)
    (l1, l2), (e1, e2) = spectrum.eigenvalues, spectrum.error_bounds
    if not (abs(l1 - LAMBDA1_EQUILATERAL) <= e1 and abs(l2 - LAMBDA2_EQUILATERAL) <= e2):
        raise SystemExit(
            f"warm-up gate: equilateral eigenvalues {l1!r}, {l2!r} are not within "
            f"{e1!r}, {e2!r} of 16pi^2/3 and 112pi^2/9"
        )


def _span(tracer: Tracer | None, name: str, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def _eigensolver_patches(tracer: Tracer):
    return tracer.patched(
        eigensolver,
        {
            "solve_triangle": (
                "eigensolver.solve_triangle",
                lambda args, kwargs, result: {"level": args[1]},
            ),
            "build_mesh": (
                "eigensolver.build_mesh",
                lambda args, kwargs, result: {"level": result.level},
            ),
            "assemble": (
                "eigensolver.assemble",
                lambda args, kwargs, result: {"unknowns": result.stiffness.shape[0]},
            ),
            "smallest_eigenpairs": ("eigensolver.smallest_eigenpairs", None),
        },
    )


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _busy(tracer: Tracer, name: str) -> float:
    return sum(s.duration for s in tracer.named(name))


def eigensolver_metrics(tracer: Tracer) -> dict[str, float]:
    gaps = tracer.named("eigensolver.gap_with_error")
    levels = tracer.named("eigensolver.solve_triangle")
    level_busy = _busy(tracer, "eigensolver.solve_triangle")
    useful = 0.0
    for gap in gaps:
        kept = gap.attrs.get("levels", ())
        useful += sum(
            c.duration
            for c in tracer.children(gap)
            if c.name == "eigensolver.solve_triangle" and c.attrs["level"] in kept
        )
    unknowns = sum(s.attrs["unknowns"] for s in tracer.named("eigensolver.assemble"))
    durations = [g.duration for g in gaps]
    accepted = [g for g in gaps if g.attrs.get("accepted", True)]
    return {
        "eigensolver.gap_with_error.calls": len(gaps),
        "eigensolver.gap_with_error.busy_s": sum(durations),
        "eigensolver.gap_with_error.self_s": sum(tracer.self_time(g) for g in gaps),
        "eigensolver.gap_with_error.p50_s": statistics.median(durations) if durations else 0.0,
        "eigensolver.gap_with_error.p90_s": _quantile(durations, 0.9),
        "eigensolver.solve_triangle.calls": len(levels),
        "eigensolver.solve_triangle.busy_s": level_busy,
        "eigensolver.solve_triangle.self_s": sum(tracer.self_time(s) for s in levels),
        "eigensolver.build_mesh.busy_s": _busy(tracer, "eigensolver.build_mesh"),
        "eigensolver.assemble.busy_s": _busy(tracer, "eigensolver.assemble"),
        "eigensolver.smallest_eigenpairs.busy_s": _busy(
            tracer, "eigensolver.smallest_eigenpairs"
        ),
        "eigensolver.unknowns_solved": unknowns,
        "eigensolver.unknowns_per_s": unknowns / level_busy if level_busy else 0.0,
        "eigensolver.top_level": max((s.attrs["level"] for s in levels), default=0),
        "eigensolver.useful_level_ratio": useful / level_busy if level_busy else 0.0,
        "eigensolver.xi_error": max((g.attrs["xi_error"] for g in accepted), default=0.0),
    }


class Workload:
    """Base: subclasses set ``expected_spans`` and implement ``unit`` (one
    checked unit of work, traced when given a tracer) and ``layer_metrics``.
    A traced unit records the eigensolver layers unless overridden."""

    expected_spans: tuple[str, ...] = ()

    def unit(self, tracer: Tracer | None = None) -> UnitResult:
        raise NotImplementedError

    def traced_unit(self, tracer: Tracer) -> UnitResult:
        with _eigensolver_patches(tracer):
            return self.unit(tracer)

    def extra_reference(self) -> UnitResult | None:
        """An untraced unit run after the traced pairs, or None."""
        return None

    def layer_metrics(self, tracer: Tracer, reference: list[UnitResult]) -> dict[str, float]:
        raise NotImplementedError


class SweepWorkload(Workload):
    """``run_sweep`` plus ``coverage_audit`` on a window near ``base``."""

    expected_spans = (
        "sweep.run_sweep",
        "sweep.coverage_audit",
        "eigensolver.gap_with_error",
        "eigensolver.solve_triangle",
        "eigensolver.build_mesh",
        "eigensolver.assemble",
        "eigensolver.smallest_eigenpairs",
    )

    def __init__(
        self,
        base: tuple[float, float, float, float],
        seed: int,
        max_level: int | None,
        threads: int,
    ) -> None:
        # a y-offset below 1e-4 moves every cell centre without changing
        # any truncated radius digit or refinement level
        dy = random.Random(seed).randrange(1000) * 1e-7
        x0, x1, y0, y1 = base
        self.window = SweepWindow(x0, x1, y0 + dy, y1 + dy)
        self.policy = SweepPolicy(initial_accuracy=0.25, max_level=max_level)
        self.threads = threads
        self.one_thread_s = 0.0

    def unit(self, tracer: Tracer | None = None, threads: int | None = None) -> UnitResult:
        threads = self.threads if threads is None else threads
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with _span(tracer, "sweep.run_sweep", threads=threads) as root:
            solver = None if tracer is None else self._traced_solver(tracer, root.span_id)
            result = run_sweep(self.window, self.policy, solver=solver, threads=threads)
        t1 = time.perf_counter()
        with _span(tracer, "sweep.coverage_audit"):
            audit = coverage_audit(result.cells, self.window)
        t2 = time.perf_counter()
        problems = []
        if result.reason != "complete":
            problems.append(f"sweep ended {result.reason}: {result.failure}")
        weak = [c for c in result.cells if not c.xi - c.err > GAP_THRESHOLD]
        if weak:
            problems.append(f"{len(weak)} cells with xi - err <= 64pi^2/9")
        if audit.uncovered_count:
            problems.append(
                f"audit: {audit.uncovered_count} uncovered, e.g. {audit.uncovered_sample[:3]}"
            )
        if tracer is not None:
            self._mark_accepted(tracer)
        return UnitResult(
            wall_s=t2 - t0,
            results=len(result.cells),
            attempted=len(result.cells) + (result.failure is not None) + audit.total_points,
            failed=len(weak) + (result.failure is not None) + audit.uncovered_count,
            problems=problems,
            cpu_s=cpu_seconds() - cpu0,
            sweep_s=t1 - t0,
        )

    def _traced_solver(self, tracer: Tracer, parent: int):
        x0 = self.window.x0

        def solver(triangle, target, max_level):
            with tracer.span(
                "eigensolver.gap_with_error",
                parent=parent,
                apex=(triangle.apex_x, triangle.apex_y),
                seed_column=triangle.apex_x == x0,
            ) as record:
                spectrum = eigensolver.gap_with_error(triangle, target, max_level=max_level)
                record.attrs.update(levels=spectrum.levels, xi_error=spectrum.xi_error)
            return spectrum

        return solver

    @staticmethod
    def _mark_accepted(tracer: Tracer) -> None:
        # Each cell re-solves at tighter targets until the digit rule holds;
        # only the last solve at an apex is kept, the earlier rounds are
        # superseded.
        last = {}
        for span in sorted(tracer.named("eigensolver.gap_with_error"), key=lambda s: s.start):
            last[span.attrs["apex"]] = span
        for span in tracer.named("eigensolver.gap_with_error"):
            span.attrs["accepted"] = last[span.attrs["apex"]] is span

    def extra_reference(self) -> UnitResult:
        """The same sweep at one thread, for the speed-up figure."""
        outcome = self.unit(threads=1)
        self.one_thread_s = outcome.sweep_s
        return outcome

    def layer_metrics(self, tracer: Tracer, reference: list[UnitResult]) -> dict[str, float]:
        (root,) = tracer.named("sweep.run_sweep")
        (audit,) = tracer.named("sweep.coverage_audit")
        calls = [s for s in tracer.named("eigensolver.gap_with_error") if s.parent == root.span_id]
        cells = sum(1 for s in calls if s.attrs["accepted"])
        rows = sum(1 for s in calls if s.attrs["accepted"] and s.attrs["seed_column"])
        busy = sum(s.duration for s in calls)
        threaded_s = statistics.median(r.sweep_s for r in reference)
        metrics = eigensolver_metrics(tracer)
        metrics.update(
            {
                "sweep.solver_calls": len(calls),
                "sweep.cells": cells,
                "sweep.rows": rows,
                "sweep.calls_per_cell": len(calls) / cells,
                "sweep.wasted_solve_s": sum(s.duration for s in calls if not s.attrs["accepted"]),
                "sweep.seed_column_s": sum(s.duration for s in calls if s.attrs["seed_column"]),
                "sweep.self_s": root.duration - union_length((s.start, s.end) for s in calls),
                "sweep.thread_utilization": busy / (root.duration * root.attrs["threads"]),
                "sweep.speedup": self.one_thread_s / threaded_s,
                "sweep.coverage_audit_s": audit.duration,
            }
        )
        return metrics


class CapSolveWorkload(Workload):
    """One ``gap_with_error`` close to the equilateral corner, where the
    refinement cap is reached.  ``reference`` is (xi, xi_error) recorded at
    the band's base apex with levels (9, 10)."""

    expected_spans = (
        "eigensolver.gap_with_error",
        "eigensolver.solve_triangle",
        "eigensolver.build_mesh",
        "eigensolver.assemble",
        "eigensolver.smallest_eigenpairs",
    )

    def __init__(
        self,
        apex: tuple[float, float],
        target: float,
        max_level: int | None,
        reference: tuple[float, float],
        seed: int,
    ) -> None:
        rng = random.Random(seed)
        # a shift below 1e-6 moves xi by about 1e-4, far inside the error bars
        self.apex = (apex[0] + rng.randrange(1000) * 1e-9, apex[1] + rng.randrange(1000) * 1e-9)
        self.target = target
        self.max_level = max_level
        self.reference = reference

    def unit(self, tracer: Tracer | None = None) -> UnitResult:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with _span(tracer, "eigensolver.gap_with_error") as record:
            try:
                spectrum = eigensolver.gap_with_error(
                    Triangle(*self.apex), self.target, max_level=self.max_level
                )
            except eigensolver.ConvergenceError as exc:
                return UnitResult(time.perf_counter() - t0, 0, 1, 1, [f"ConvergenceError: {exc}"])
            if record is not None:
                record.attrs.update(levels=spectrum.levels, xi_error=spectrum.xi_error)
        wall = time.perf_counter() - t0
        ref_xi, ref_err = self.reference
        problems = []
        if not spectrum.accuracy_met:
            problems.append(f"accuracy not met: xi_error {spectrum.xi_error!r} > {self.target!r}")
        if not spectrum.xi - spectrum.xi_error > GAP_THRESHOLD:
            problems.append(f"xi - xi_error = {spectrum.xi - spectrum.xi_error!r} <= 64pi^2/9")
        if not abs(spectrum.xi - ref_xi) <= spectrum.xi_error + ref_err:
            problems.append(
                f"xi {spectrum.xi!r} +- {spectrum.xi_error!r} disagrees with the "
                f"reference {ref_xi!r} +- {ref_err!r}"
            )
        return UnitResult(
            wall_s=wall,
            results=1 if not problems else 0,
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            cpu_s=cpu_seconds() - cpu0,
        )

    def layer_metrics(self, tracer: Tracer, reference: list[UnitResult]) -> dict[str, float]:
        return eigensolver_metrics(tracer)


class AnalyticWorkload(Workload):
    """Integral tables, the deformation minimum and the equilateral spectrum.

    No eigensolver call is made, so this is the no-change control for
    solver work.
    """

    expected_spans = (
        "tables.verify_integral_tables",
        "quadrature.integrate",
        "deformation.minimize_I",
        "lame.distinct_spectrum",
    )

    def __init__(self, grid: int, count: int, seed: int) -> None:
        rng = random.Random(seed)
        self.grid = grid + rng.randrange(8)
        self.count = count + rng.randrange(8)

    def unit(self, tracer: Tracer | None = None) -> UnitResult:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with _span(tracer, "tables.verify_integral_tables"):
            report = verify_integral_tables()
        with _span(tracer, "deformation.minimize_I"):
            minimum = minimize_I(self.grid)
        with _span(tracer, "lame.distinct_spectrum"):
            spectrum = distinct_spectrum(self.count)
        wall = time.perf_counter() - t0
        problems = []
        flagged = len(report.flagged)
        if (len(report.rows) - flagged, flagged) != (36, 4):
            problems.append(f"tables: {len(report.rows) - flagged} reproduced, {flagged} flagged")
        if not abs(minimum.value - I_MINIMUM) <= 1e-5:
            problems.append(f"minimize_I: {minimum.value!r} vs closed form {I_MINIMUM!r}")
        values = [e.value for e in spectrum]
        if not (
            len(values) == self.count
            and all(a < b for a, b in zip(values, values[1:]))
            and abs(values[0] - LAMBDA1_EQUILATERAL) <= 1e-9 * LAMBDA1_EQUILATERAL
            and abs(values[1] - LAMBDA2_EQUILATERAL) <= 1e-9 * LAMBDA2_EQUILATERAL
            and spectrum[1].multiplicity == 2
        ):
            problems.append("distinct_spectrum: wrong count, order or leading values")
        return UnitResult(
            wall_s=wall,
            results=1 if not problems else 0,
            attempted=3,
            failed=len(problems),
            problems=problems,
            cpu_s=cpu_seconds() - cpu0,
        )

    def traced_unit(self, tracer: Tracer) -> UnitResult:
        with tracer.patched(lame, {"integrate": ("quadrature.integrate", None)}):
            return self.unit(tracer)

    def layer_metrics(self, tracer: Tracer, reference: list[UnitResult]) -> dict[str, float]:
        return {
            "quadrature.integrate.calls": len(tracer.named("quadrature.integrate")),
            "quadrature.integrate.busy_s": _busy(tracer, "quadrature.integrate"),
            "tables.verify_integral_tables_s": _busy(tracer, "tables.verify_integral_tables"),
            "deformation.minimize_I_s": _busy(tracer, "deformation.minimize_I"),
            "lame.distinct_spectrum_s": _busy(tracer, "lame.distinct_spectrum"),
        }


def build(name: str, seed: int, smoke: bool, nproc: int) -> Workload:
    """The workload ``name`` for ``seed``; ``smoke`` swaps in a tiny window
    and a low refinement cap so the whole harness runs in seconds."""
    threads = min(2, nproc)
    if name == "sweep_coarse":
        base = (0.5, 0.501, 0.4, 0.401) if smoke else (0.5, 0.55, 0.4, 0.44)
        return SweepWorkload(base, seed, 8 if smoke else None, threads)
    if name == "sweep_tighten":
        base = (0.5, 0.501, 0.4, 0.401) if smoke else (0.5, 0.5005, 0.70, 0.7005)
        return SweepWorkload(base, seed, 8 if smoke else None, threads)
    if name == "cap_solve":
        if smoke:
            return CapSolveWorkload(
                (0.5, 0.8), 0.2, 7, (73.28230728560378, 0.002277115916456296), seed
            )
        return CapSolveWorkload(
            (0.5, 0.8647), 2.5e-3, None, (70.24115200873224, 0.0021311531068022305), seed
        )
    if name == "analytic":
        return AnalyticWorkload(500, 20, seed) if smoke else AnalyticWorkload(10000, 200, seed)
    raise ValueError(f"unknown workload {name!r}")
