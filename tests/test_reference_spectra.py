"""Error bars checked against reference spectra of the criterion-7 window.

``data/reference_spectra.json`` holds 30 triangles (0, 0), (1, 0), apex of
the window [0.5, 0.85] x [0.4, 0.95]: its corners, points on the unit
circle, points 1e-3 to 0.05 from the equilateral apex, the [27, 30) degree
band and the obtuse corner near (0.5, 0.4).  Each eigenvalue's reference is
the Richardson value of levels (9, 10) with a bar from the observed tail
and the step to level 11 (levels (8, 9) and 10 for shapes below 27
degrees), and every level's discrete values are kept.
``tools/reference_spectra.py`` made it; the command is in the file.  Unlike
the closed-form shapes, these have corners whose singular terms set the
convergence rate, so the bars are checked where the sweep uses them.
"""

import json
from pathlib import Path

import pytest

from trigap import eigensolver
from trigap.eigensolver import gap_with_error
from trigap.geometry import Triangle

TABLE = json.loads((Path(__file__).parent / "data" / "reference_spectra.json").read_text())

TRIANGLES = TABLE["triangles"]


def _id(entry: dict) -> str:
    x, y = entry["apex"]
    return f"{entry['group']}-{x:.4f}-{y:.4f}"


def _encloses(spectrum, entry: dict) -> list[str]:
    """The names of the values whose bar does not cover the reference
    together with the reference's own bar."""
    misses = []
    values = zip(("lambda1", "lambda2"), spectrum.eigenvalues, spectrum.error_bounds)
    for name, value, bar in (*values, ("xi", spectrum.xi, spectrum.xi_error)):
        if not abs(value - entry[name]) + entry[name + "_bar"] <= bar:
            misses.append(name)
    return misses


def test_the_table_covers_the_window_and_records_its_command():
    assert TABLE["command"].startswith("PYTHONPATH=src python3 tools/reference_spectra.py")
    assert len(TRIANGLES) == 30
    groups = {entry["group"] for entry in TRIANGLES}
    assert groups == {"corner", "circle", "apex", "band", "factor", "obtuse", "interior"}
    for entry in TRIANGLES:
        below = entry["smallest_angle"] < eigensolver.MULTIGRID_MIN_ANGLE
        assert entry["top_level"] == (10 if below else 11)
        assert len(entry["levels"]) == entry["top_level"] - eigensolver.MIN_LEVEL + 1


@pytest.mark.parametrize("entry", TRIANGLES, ids=_id)
def test_every_bar_at_caps_6_to_9_encloses_the_reference(entry, monkeypatch):
    # a ladder to level 9 builds, at each level L, the spectrum that
    # max_level=L returns, so one ladder serves every cap
    built = []
    spectrum_type = eigensolver.Spectrum

    def recording(**fields):
        built.append(spectrum_type(**fields))
        return built[-1]

    monkeypatch.setattr(eigensolver, "Spectrum", recording)
    final = gap_with_error(Triangle(*entry["apex"]), 1e-12, max_level=9)
    assert final is built[-1]
    by_cap = {spectrum.levels[1]: spectrum for spectrum in built}
    assert sorted(by_cap) == [5, 6, 7, 8, 9]
    misses = {cap: _encloses(by_cap[cap], entry) for cap in range(6, 10)}
    assert not any(misses.values()), misses
    # at cap 9 every shape's last two ratios pass the gate, so the bar
    # checked there is the observed tail with its safety factor
    assert by_cap[9].tail_ratios is not None
