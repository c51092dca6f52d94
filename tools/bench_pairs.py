"""Summarize alternating benchmark pairs of two checkouts as a trajectory file.

Pair ``N`` (N = 1..10) runs ``python3 perfbench/run.py --workload W --seed N
--seconds 15`` for each of the four workloads in a checkout of the parent
commit and in one of the change, the parent first for odd N and the change
first for even N, so machine drift falls on both sides alike.  Each run's
stdout goes to ``<runs-dir>/<side>_<workload>_<N>.txt`` (``side`` is
``parent`` or ``change``).  Then, from the root of the change's checkout:

    python3 tools/bench_pairs.py --runs-dir DIR \\
        --out BENCH_<parent-short-sha>.json --label "what the change is"

The file keeps, per workload and side, every run's end-to-end metrics, and
their median and quartiles (``statistics.quantiles``, inclusive method), and
per metric the number of pairs in which the change was better.  A missing
or failed run is an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WORKLOADS = ("sweep_coarse", "sweep_tighten", "cap_solve", "analytic")
SIDES = ("parent", "change")
SEEDS = range(1, 11)
SECONDS = 15
#: Each end-to-end metric and whether lower is better.
LOWER_IS_BETTER = {"setup_s": True, "wall_s": True, "results_per_s": False, "peak_rss_mb": True}


def run_file(runs_dir: Path, side: str, workload: str, seed: int) -> Path:
    return runs_dir / f"{side}_{workload}_{seed}.txt"


def read_run(path: Path) -> tuple[dict, dict] | None:
    """The environment line and the result line of one run, or None when
    the file holds no correct result."""
    if not path.exists():
        return None
    lines = path.read_text().strip().splitlines()
    if len(lines) < 2:
        return None
    result = json.loads(lines[-1])
    return (json.loads(lines[-2]), result) if result.get("correct") else None


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs_dir: Path, workloads=WORKLOADS, seeds=SEEDS) -> dict:
    """Every run's end-to-end metrics with their medians and quartiles, per
    workload and side, and the pairs the change won; a missing or failed
    run raises ValueError."""
    summary: dict = {}
    env = None
    for workload in workloads:
        samples = {side: {name: [] for name in LOWER_IS_BETTER} for side in SIDES}
        for seed in seeds:
            for side in SIDES:
                path = run_file(runs_dir, side, workload, seed)
                run = read_run(path)
                if run is None:
                    raise ValueError(f"{path} holds no correct result")
                env = env or run[0]["env"]
                for name in LOWER_IS_BETTER:
                    samples[side][name].append(run[1]["metrics"][name]["value"])
        entry = {"seeds": list(seeds)}
        for side in SIDES:
            entry[side] = {
                name: {**_spread(values), "runs": values}
                for name, values in samples[side].items()
            }
        entry["change_better_pairs"] = {
            name: sum(
                (c < p) if lower else (c > p)
                for p, c in zip(samples["parent"][name], samples["change"][name])
            )
            for name, lower in LOWER_IS_BETTER.items()
        }
        summary[workload] = entry
    return {"env": env, "workloads": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runs-dir", type=Path, required=True, help="where each run's output is")
    parser.add_argument("--out", type=Path, required=True, help="the trajectory JSON to write")
    parser.add_argument("--label", default="", help="what the change is, for the file")
    args = parser.parse_args(argv)
    summary = summarize(args.runs_dir)
    record = {
        "change": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS}",
        "order": "pair N runs the parent first for odd N, the change first for even N",
        **summary,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
