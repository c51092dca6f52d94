"""One workload process: import trigap, warm up, then measure or trace.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  Prints
one JSON object as its last line: the set-up time, the raw samples of an
untraced run or the per-layer metrics of a traced one.  Exits 1, after
printing the problems to stderr, when a correctness gate fails or a traced
layer recorded no spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
    }


def measure(workload, seconds: float):
    """Units back to back for ``seconds``: at least one, and no further unit
    once the median unit so far would end past the window.  Stops at the
    first unit that fails its gate."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit())
        if units[-1].problems:
            return units
        typical = statistics.median(u.wall_s for u in units)
        if time.perf_counter() - start + typical > seconds:
            return units


def traced(workload, seconds: float, trace_out: str | None):
    """Pairs of an untraced and a traced unit for ``seconds`` (at least one
    pair), then the workload's extra reference unit.

    The per-layer metrics come from the last traced unit; the tracing
    overhead compares the medians of the two halves of the pairs, which ran
    side by side.  Returns the units run and the metrics; the metrics are
    empty when a gate failed and None when an expected layer recorded no
    spans.
    """
    from tracing import Tracer
    import workloads

    plain, traced_units = [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.unit())
        if plain[-1].problems:
            return plain + traced_units, {}
        tracer = Tracer()
        traced_units.append(workload.traced_unit(tracer))
        if traced_units[-1].problems:
            return plain + traced_units, {}
        pair = statistics.median(a.wall_s + b.wall_s for a, b in zip(plain, traced_units))
        if time.perf_counter() - start + pair > seconds:
            break
    units = plain + traced_units
    extra = workload.extra_reference()
    if extra is not None:
        units.append(extra)
        if extra.problems:
            return units, {}
    if trace_out:
        tracer.dump(trace_out)
    missing = [name for name in workload.expected_spans if not tracer.named(name)]
    if missing:
        print(f"traced run recorded no spans for {missing}", file=sys.stderr)
        return units, None
    unit = traced_units[-1]
    untraced = statistics.median(u.wall_s for u in plain)
    traced_wall = statistics.median(u.wall_s for u in traced_units)
    metrics = dict.fromkeys(workloads.PER_LAYER, 0.0)
    metrics.update(workload.layer_metrics(tracer, plain))
    metrics.update(
        {
            "process.cpu_s": unit.cpu_s,
            "process.cpu_per_wall": unit.cpu_s / unit.wall_s,
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced_wall - untraced,
            "trace.overhead_share": (traced_wall - untraced) / untraced,
        }
    )
    return units, metrics


def main(argv=None) -> int:
    args = parse(argv)
    import trigap

    src = Path.cwd() / "src"
    if Path(trigap.__file__).resolve().parent != (src / "trigap").resolve():
        print(f"trigap imported from {trigap.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workloads.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = workloads.build(args.workload, args.seed, args.smoke, os.cpu_count() or 1)
    out = {"setup_s": setup_s, "env": environment()}
    if args.trace:
        units, metrics = traced(workload, args.seconds, args.trace_out)
        if metrics is None:
            return 1
        out["metrics"] = {
            name: {"value": value, "unit": workloads.PER_LAYER[name]}
            for name, value in metrics.items()
        }
    else:
        units = measure(workload, args.seconds)
        out["wall_samples"] = [u.wall_s for u in units]
        out["rate_samples"] = [u.results / u.wall_s for u in units]
        out["peak_rss_mb"] = workloads.peak_rss_mb()
    problems = [p for u in units for p in u.problems]
    out.update(
        {
            "correct": not problems,
            "attempted": sum(u.attempted for u in units),
            "failed": sum(u.failed for u in units),
            "problems": problems,
        }
    )
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
