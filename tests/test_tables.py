"""Tests for the reference integral table verification."""

import csv
import math

import pytest

from trigap.cli import EXIT_OK, main
from trigap.sweep import format_value
from trigap.tables import CSV_COLUMNS, TableReport, verify_integral_tables


@pytest.fixture(scope="module")
def report() -> TableReport:
    return verify_integral_tables()


def test_every_table_integral_matches(report):
    assert report.table_rows_ok
    for row in report.rows:
        if row.kind != "table":
            continue
        if row.stated_value == 0.0:
            assert abs(row.computed_value) < 1e-9
        else:
            assert row.rel_error < 1e-6


def test_quadrature_convergence_certified(report):
    assert report.converged
    for row in report.rows:
        assert row.convergence_gap < 1e-10


def test_frozen_spot_values(report):
    # two independent hand-checked entries pin the normalization convention
    row = report.row("int_phi1_x_sq")
    assert row.computed_value == pytest.approx(26.31894506957162, rel=1e-12)
    assert row.computed_value == pytest.approx(row.stated_value, rel=1e-9)
    cross = report.row("int_u_x_v_y")
    assert cross.computed_value == pytest.approx(8.20125, rel=1e-9)
    # int_u_x_v_y is 6561/800 exactly
    assert cross.stated_value == pytest.approx(6561.0 / 800.0, rel=1e-15)


def test_first_eigenvalue_identity(report):
    # the gradient-square entries integrate to the first eigenvalue
    gx = report.row("int_phi1_x_sq").computed_value
    gy = report.row("int_phi1_y_sq").computed_value
    assert gx + gy == pytest.approx(16.0 * math.pi**2 / 3.0, rel=1e-10)


def test_second_level_gradient_identity(report):
    # same identity on the degenerate eigenspace basis
    lam2 = 112.0 * math.pi**2 / 9.0
    assert report.row("int_u_x_sq").computed_value + report.row(
        "int_u_y_sq"
    ).computed_value == pytest.approx(lam2, rel=1e-10)
    assert report.row("int_v_x_sq").computed_value + report.row(
        "int_v_y_sq"
    ).computed_value == pytest.approx(lam2, rel=1e-10)


def test_adjudication_rows_are_flagged(report):
    flagged = {row.name for row in report.flagged}
    assert flagged == {
        "int_v_xx_sq_variant_54049",
        "int_phi1_sum_times_printed_product",
        "int_A3_printed_sq",
        "phi1_product_form_constant",
    }
    for row in report.flagged:
        assert row.kind == "adjudication"
        assert row.status != "ok"
        # both values are reported so the discrepancy is auditable
        assert math.isfinite(row.stated_value)
        assert math.isfinite(row.computed_value)


def test_normalization_rows_ok(report):
    for row in report.rows:
        if row.kind == "normalization":
            assert row.status == "ok"


def test_lame_verify_csv_export(report, tmp_path, capsys):
    out = tmp_path / "tables.csv"
    assert main(["lame-verify", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(report.rows) + 1
    # the CLI's line ends, and every number written by the one formatter
    raw = out.read_bytes().decode()
    assert raw.endswith("\n")
    assert "\r" not in raw
    assert raw.count("\n") == len(lines)
    for fields, r in zip(csv.reader(lines[1:]), report.rows):
        values = (r.stated_value, r.computed_value, r.abs_error, r.rel_error)
        assert fields == [r.name, *map(format_value, values), r.status]


def test_runtime_is_interactive(report):
    # the fixture already ran; a second full pass must stay well under budget
    import time

    start = time.time()
    verify_integral_tables()
    assert time.time() - start < 30.0
