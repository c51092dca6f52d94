"""Reference eigenvalues and gaps for triangles of the criterion-7 window.

Run from the root of a checkout (about 13 minutes and 1.2 GB on 2 vCPUs):

    PYTHONPATH=src python3 tools/reference_spectra.py > tests/data/reference_spectra.json

Each triangle (0, 0), (1, 0), apex is solved on every level from
``eigensolver.MIN_LEVEL`` to ``TOP_LEVEL``, each level started from the
level below's Ritz block as in ``gap_with_error``.  A shape whose smallest
angle is below ``eigensolver.MULTIGRID_MIN_ANGLE`` is preconditioned by a
sparse factor at every level, whose level 11 was never tried on this
machine, so it stops at level 10.

An eigenvalue's reference is the Richardson value R_{L-1} of the two
levels below the top level L, where R_K = f_K + (f_K - f_{K-1}) / 3.  Its
error bar is the larger of two: the observed tail |R_{L-1} - R_{L-2}| /
(rho - 1), with rho = (R_{L-2} - R_{L-3}) / (R_{L-1} - R_{L-2}) the
eigenvalue's own ratio of successive differences clipped to [2, 16], and
the next step |R_L - R_{L-1}|, which the top level measures.  The top
level only checks: its values carry rounding errors of about 1e-9 at
level 11, which bend the ratio of the last step away from 16.  One source
is the stiffness stencil, whose rows do not sum to exactly zero: the
remainder acts as a constant potential that grows fourfold per level.
xi's reference is d^2 (lambda2 - lambda1) with bar d^2 (bar1 + bar2).
Every level's pair of discrete eigenvalues is kept as well, so a bar can
be recomputed at every level triple without solving again.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

from trigap import eigensolver
from trigap.geometry import EQUILATERAL_APEX, Triangle, diameter

TOP_LEVEL = 11
FACTOR_TOP_LEVEL = 10

COMMAND = "PYTHONPATH=src python3 tools/reference_spectra.py > tests/data/reference_spectra.json"


def _circle(x: float) -> tuple[float, float]:
    return (x, math.sqrt(1.0 - x * x))


def _from_apex(distance: float, degrees: float) -> tuple[float, float]:
    """The point ``distance`` from the equilateral apex, in direction
    ``degrees`` counter-clockwise from +x."""
    ex, ey = EQUILATERAL_APEX
    a = math.radians(degrees)
    return (ex + distance * math.cos(a), ey + distance * math.sin(a))


def _along_circle(distance: float) -> tuple[float, float]:
    """The point of the unit circle ``distance`` (arc length) right of the apex."""
    a = math.pi / 3.0 - distance
    return (math.cos(a), math.sin(a))


#: (group, apex); every apex lies in the window [0.5, 0.85] x [0.4, 0.95]
#: and in the sweep region (x^2 + y^2 <= 1, so (0.5, 0.95) and (0.85,
#: 0.95) are left out).
TRIANGLES = (
    ("corner", (0.5, 0.4)),
    ("corner", (0.85, 0.4)),
    ("corner", _circle(0.85)),
    ("circle", _circle(0.55)),
    ("circle", _circle(0.6)),
    ("circle", _circle(0.65)),
    ("circle", _circle(0.7)),
    ("circle", _circle(0.75)),
    ("circle", _circle(0.8)),
    ("apex", _from_apex(1e-3, -90.0)),
    ("apex", (0.5, 0.8647)),
    ("apex", _from_apex(5e-3, -90.0)),
    ("apex", _from_apex(2e-2, -90.0)),
    ("apex", _from_apex(5e-2, -90.0)),
    ("apex", _along_circle(1e-3)),
    ("apex", _along_circle(1e-2)),
    ("apex", _along_circle(5e-2)),
    ("apex", _from_apex(2e-3, -45.0)),
    ("apex", _from_apex(1e-2, -45.0)),
    ("apex", _from_apex(3e-2, -45.0)),
    ("band", (0.8, 0.42)),
    ("band", (0.75, 0.41)),
    ("band", (0.7, 0.4)),
    ("factor", (0.8, 0.4)),
    ("factor", (0.83, 0.41)),
    ("obtuse", (0.52, 0.41)),
    ("obtuse", (0.55, 0.42)),
    ("obtuse", (0.5, 0.45)),
    ("interior", (0.6, 0.6)),
    ("interior", (0.7, 0.5)),
)


def smallest_angle(apex: tuple[float, float]) -> float:
    """The smallest angle of the triangle, in degrees."""
    x, y = apex
    left, right = math.atan2(y, x), math.atan2(y, 1.0 - x)
    return math.degrees(min(left, right, math.pi - left - right))


def ladder(apex: tuple[float, float], top: int) -> list[tuple[float, float]]:
    """The two smallest discrete eigenvalues on levels MIN_LEVEL..top."""
    verts = Triangle(*apex).vertices
    values: list[tuple[float, float]] = []
    block, shift = None, 0.0
    for level in range(eigensolver.MIN_LEVEL, top + 1):
        start = None if block is None else eigensolver.prolongate(block, level - 1)
        solved = eigensolver.solve_triangle(verts, level, k=2, shift=shift, start=start)
        block = solved.block
        values.append(solved.values)
        if len(values) >= 2:
            # the flat shapes' factor is shifted just below the extrapolated
            # first eigenvalue, which lies below every level's
            shift = 0.99 * richardson([v[0] for v in values])[-1]
    return values


def richardson(values: list[float]) -> list[float]:
    return [f + (f - c) / 3.0 for c, f in zip(values, values[1:])]


def reference_bar(r: list[float]) -> tuple[list[float], float]:
    """The last three ratios of successive differences of r, and the error
    bar of r[-2]: the larger of its observed tail (rate clipped to [2, 16])
    and the step |r[-1] - r[-2]|."""
    d = [b - a for a, b in zip(r, r[1:])]
    ratios = [d[k - 1] / d[k] for k in (-3, -2, -1)]
    tail = abs(d[-2]) / (min(max(ratios[1], 2.0), 16.0) - 1.0)
    return ratios, max(tail, abs(d[-1]))


def reference(group: str, apex: tuple[float, float]) -> dict:
    """The table entry of one triangle."""
    angle = smallest_angle(apex)
    top = TOP_LEVEL if angle >= eigensolver.MULTIGRID_MIN_ANGLE else FACTOR_TOP_LEVEL
    t0 = time.perf_counter()
    values = ladder(apex, top)
    seconds = time.perf_counter() - t0
    d = diameter(Triangle(*apex).vertices)
    entry = {
        "group": group,
        "apex": list(apex),
        "smallest_angle": angle,
        "top_level": top,
        "diameter": d,
        "levels": [list(v) for v in values],
    }
    bars = []
    for i, name in enumerate(("lambda1", "lambda2")):
        r = richardson([v[i] for v in values])
        ratios, bar = reference_bar(r)
        entry[name] = r[-2]
        entry[name + "_bar"] = bar
        entry[name + "_ratios"] = ratios
        bars.append(bar)
    entry["xi"] = d * d * (entry["lambda2"] - entry["lambda1"])
    entry["xi_bar"] = d * d * sum(bars)
    entry["seconds"] = seconds
    return entry


def main() -> None:
    entries = []
    for group, apex in TRIANGLES:
        entry = reference(group, apex)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{group:8s} ({apex[0]:.6f}, {apex[1]:.6f}) {entry['smallest_angle']:5.1f} deg "
            f"level {entry['top_level']}: xi {entry['xi']:.12f} +- {entry['xi_bar']:.1e}, "
            f"ratios {entry['lambda1_ratios'][1]:.2f} {entry['lambda2_ratios'][1]:.2f}, "
            f"{entry['seconds']:.1f} s, peak {rss:.0f} MB",
            file=sys.stderr,
            flush=True,
        )
        entries.append(entry)
    json.dump({"command": COMMAND, "triangles": entries}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
