"""The trajectory summary of ``tools/bench_pairs.py``, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _write_run(runs_dir, side, seed, wall, correct=True):
    metrics = {
        "setup_s": {"value": 0.5, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "results_per_s": {"value": 4.0 / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": 100.0, "unit": "MB"},
    }
    env = {"workload": "sweep_tighten", "seed": seed, "env": {"nproc": 2}}
    result = {"correct": correct, "attempted": 1, "failed": 0}
    if correct:
        result["metrics"] = metrics
    path = bench_pairs.run_file(runs_dir, side, "sweep_tighten", seed)
    path.write_text(f"{json.dumps(env)}\n{json.dumps(result)}\n")


def test_summary_keeps_every_run_with_its_quartiles_and_wins(tmp_path):
    parent = [1.6, 1.7, 1.8, 1.5, 1.9]
    change = [1.2, 1.1, 1.3, 1.6, 1.2]
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        _write_run(tmp_path, "parent", seed, p)
        _write_run(tmp_path, "change", seed, c)
    summary = bench_pairs.summarize(tmp_path, ["sweep_tighten"], range(1, 6))
    entry = summary["workloads"]["sweep_tighten"]
    assert summary["env"] == {"nproc": 2}
    assert entry["parent"]["wall_s"]["runs"] == parent
    assert entry["parent"]["wall_s"]["median"] == 1.7
    assert (entry["parent"]["wall_s"]["q1"], entry["parent"]["wall_s"]["q3"]) == (1.6, 1.8)
    assert entry["change"]["wall_s"]["median"] == 1.2
    # the change is faster in four pairs, equal in none, slower in one
    assert entry["change_better_pairs"]["wall_s"] == 4
    assert entry["change_better_pairs"]["results_per_s"] == 4
    assert entry["change_better_pairs"]["setup_s"] == 0


def test_summary_refuses_a_failed_or_missing_run(tmp_path):
    _write_run(tmp_path, "parent", 1, 1.5)
    _write_run(tmp_path, "change", 1, 1.2, correct=False)
    with pytest.raises(ValueError, match="change_sweep_tighten_1"):
        bench_pairs.summarize(tmp_path, ["sweep_tighten"], [1])
    with pytest.raises(ValueError, match="parent_sweep_tighten_2"):
        bench_pairs.summarize(tmp_path, ["sweep_tighten"], [2])

