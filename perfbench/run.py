"""Benchmark harness for trigap.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_coarse --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep_coarse``, ``sweep_tighten``,
``cap_solve`` and ``analytic``.  Every process is started fresh with the
checkout's ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP thread variables
removed, so the program runs as a user would start it.

``--trace 0`` runs up to ``PROCESSES`` workload processes back to back, each
measuring units of work for ``--seconds / PROCESSES`` (at least one unit),
and stops starting new ones once ``--seconds`` have passed.  Each process
times its own start-up: ``import trigap`` plus one checked warm-up solve.
Set-up-only probes top the set-up samples up to ``SETUP_SAMPLES``.  The
end-to-end metrics are medians over units (``wall_s``, ``results_per_s``)
and over processes (``setup_s``, ``peak_rss_mb``), so neither a slow unit nor
a process-wide effect such as thread placement decides a run.

``--trace 1`` runs one process that records spans for the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the raw samples.  A failed correctness gate prints
``"correct": false`` with no metrics and exits 1.  ``--smoke`` runs tiny
inputs with a low refinement cap.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("sweep_coarse", "sweep_tighten", "cap_solve", "analytic")
SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TRIGAP_THREADS")
PROCESSES = 3
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "results_per_s": "1/s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> tuple[int, dict]:
    """Run ``child.py`` to completion and parse its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a workload process")
    command = [sys.executable, str(HERE / "child.py"), *argv, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"workload process exited {proc.returncode} without a result") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, low refinement cap")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trigap" / "__init__.py").is_file():
        print(f"no trigap sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    workload_argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        workload_argv.append("--smoke")
    trace_file = None
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-{args.seed}.json"
        workload_argv += ["--trace-out", str(trace_file)]

    try:
        if args.trace:
            code, result = run_child(workload_argv + ["--seconds", repr(args.seconds)], env, deadline)
            runs = [result]
        else:
            runs = []
            start = time.monotonic()
            share = ["--seconds", repr(args.seconds / PROCESSES)]
            while True:
                code, result = run_child(workload_argv + share, env, deadline)
                runs.append(result)
                if code or len(runs) == PROCESSES or time.monotonic() - start >= args.seconds:
                    break
            setup = [r["setup_s"] for r in runs]
            while not code and len(setup) < SETUP_SAMPLES:
                probe_code, probe = run_child(["--setup-only"], env, deadline)
                if probe_code:
                    raise ChildFailed(f"set-up probe exited {probe_code}")
                setup.append(probe["setup_s"])
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    if not code:
        if args.trace:
            metrics = result["metrics"]
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(w for r in runs for w in r["wall_samples"]),
                "results_per_s": statistics.median(x for r in runs for x in r["rate_samples"]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": result["env"],
        "setup_samples": None if args.trace else setup,
        "wall_samples": [r.get("wall_samples") for r in runs],
        "peak_rss_samples": [r.get("peak_rss_mb") for r in runs],
        "problems": [p for r in runs for p in r["problems"]],
        "trace_file": os.path.relpath(trace_file, root) if trace_file else None,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": bool(metrics),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
