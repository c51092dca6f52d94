"""The call path the benchmark's tracer records.

The traced benchmark run swaps the module attributes of
``trigap.eigensolver`` for timing wrappers, so every refinement level of
``gap_with_error`` must pass through ``solve_triangle(verts, level, ...)``,
which reaches ``build_mesh`` (result with ``.level``), ``assemble`` (result
with ``.stiffness``) and ``smallest_eigenpairs`` by attribute lookup.  The
sweep workloads call ``run_sweep`` with a solver hook and audit its cells.
"""

import pytest

from trigap import eigensolver
from trigap.geometry import Triangle
from trigap.sweep import SweepPolicy, SweepWindow, coverage_audit, run_sweep

LAYERS = ("solve_triangle", "build_mesh", "assemble", "smallest_eigenpairs")


def _traced_layers(monkeypatch):
    """Each layer's (args, result) of every call, recorded through the
    module attribute as the benchmark's wrappers record it."""
    calls = {name: [] for name in LAYERS}
    for name in LAYERS:
        original = getattr(eigensolver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls[_name].append((args, result))
            return result

        monkeypatch.setattr(eigensolver, name, counted)
    return calls


def _unknowns(level):
    return (2**level - 1) * (2**level - 2) // 2


@pytest.mark.parametrize(
    "target, max_level",
    # the second ladder reaches level 9, which multigrid LOBPCG solves
    [(0.5, None), (1e-12, 9)],
    ids=["default-cap", "multigrid-level-9"],
)
def test_every_level_passes_through_the_traced_attributes(target, max_level, monkeypatch):
    calls = _traced_layers(monkeypatch)
    spectrum = eigensolver.gap_with_error(Triangle(0.5, 0.6), target, max_level=max_level)

    levels = list(range(4, spectrum.levels[1] + 1))
    assert len(levels) >= 2
    if max_level is not None:
        assert levels[-1] == max_level
    assert [args[1] for args, _ in calls["solve_triangle"]] == levels
    assert [mesh.level for _, mesh in calls["build_mesh"]] == levels
    unknowns = [_unknowns(L) for L in levels]
    assert [system.stiffness.shape[0] for _, system in calls["assemble"]] == unknowns
    assert len(calls["smallest_eigenpairs"]) == len(levels)
    # each level's record is the object the eigensolver returned, not a copy
    for (_, solved), (_, pairs) in zip(
        calls["solve_triangle"], calls["smallest_eigenpairs"], strict=True
    ):
        assert solved is pairs
    assert [solve[:2] for solve in spectrum.solves] == list(zip(levels, unknowns))


def test_a_continued_round_passes_through_the_traced_attributes(monkeypatch):
    # a sweep cell's second round continues its first round's ladder: the
    # levels above the first round's top still pass through every layer
    calls = _traced_layers(monkeypatch)
    with eigensolver.ladder_scope():
        first = eigensolver.gap_with_error(Triangle(0.5, 0.7), 0.25, max_level=8)
        seen = {name: len(records) for name, records in calls.items()}
        second = eigensolver.gap_with_error(Triangle(0.5, 0.7), 1e-5, max_level=8)
    above = list(range(first.levels[1] + 1, second.levels[1] + 1))
    assert above == [8]
    new = {name: records[seen[name]:] for name, records in calls.items()}
    assert [args[1] for args, _ in new["solve_triangle"]] == above
    assert [mesh.level for _, mesh in new["build_mesh"]] == above
    assert [system.stiffness.shape[0] for _, system in new["assemble"]] == [
        _unknowns(L) for L in above
    ]
    assert len(new["smallest_eigenpairs"]) == len(above)
    levels = range(4, second.levels[1] + 1)
    assert [args[1] for args, _ in calls["solve_triangle"]] == list(levels)
    assert [solve[:2] for solve in second.solves] == [(L, _unknowns(L)) for L in levels]


def test_sweep_call_shape_of_the_benchmark():
    # The benchmark's sweep workloads pass a (triangle, target, max_level)
    # hook to run_sweep at two threads, read .cells, .reason and .failure,
    # and audit the cells.
    window = SweepWindow(0.5, 0.5005, 0.70, 0.7005)
    policy = SweepPolicy(initial_accuracy=0.25, max_level=8)
    calls = []

    def hook(triangle, target, max_level):
        calls.append((triangle.apex_x, triangle.apex_y, target, max_level))
        return eigensolver.gap_with_error(triangle, target, max_level=max_level)

    result = run_sweep(window, policy, solver=hook, threads=2)
    assert result.reason == "complete"
    assert result.failure is None
    assert len(calls) >= len(result.cells) > 0
    assert all(max_level == 8 for *_, max_level in calls)
    assert coverage_audit(result.cells, window).passed
