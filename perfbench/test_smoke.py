"""Smoke test of the benchmark harness (tiny inputs, low refinement cap).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "sweep": [
        "eigensolver.gap_with_error.calls",
        "eigensolver.solve_triangle.calls",
        "eigensolver.build_mesh.busy_s",
        "eigensolver.assemble.busy_s",
        "eigensolver.smallest_eigenpairs.busy_s",
        "eigensolver.unknowns_solved",
        "sweep.solver_calls",
        "sweep.cells",
        "sweep.rows",
        "sweep.seed_column_s",
        "sweep.speedup",
        "sweep.coverage_audit_s",
    ],
    "cap_solve": [
        "eigensolver.gap_with_error.calls",
        "eigensolver.solve_triangle.calls",
        "eigensolver.smallest_eigenpairs.busy_s",
        "eigensolver.unknowns_per_s",
        "eigensolver.top_level",
        "eigensolver.xi_error",
    ],
    "analytic": [
        "quadrature.integrate.calls",
        "tables.verify_integral_tables_s",
        "deformation.minimize_I_s",
        "lame.distinct_spectrum_s",
    ],
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    metrics = result_of(bench("cap_solve", 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer(workload):
    metrics = result_of(bench(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    kind = "sweep" if workload.startswith("sweep") else workload
    for name in EXERCISED[kind]:
        assert metrics[name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_spans_fail_the_traced_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import child
    import workloads

    class Renamed(workloads.AnalyticWorkload):
        expected_spans = ("tables.renamed_entry_point",)

    units, metrics = child.traced(Renamed(500, 20, seed=0), 0.0, None)
    assert metrics is None
    assert "tables.renamed_entry_point" in capsys.readouterr().err


def test_self_time_subtracts_covered_children(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Span, Tracer, union_length

    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    tracer = Tracer()
    tracer.spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),
        Span(4, "c", 2.0, 3.0, parent=2),
    ]
    assert tracer.self_time(tracer.spans[0]) == 5.0
    assert tracer.self_time(tracer.spans[1]) == 2.0
