"""Tests for the benchmark metrics, suite runner, and report round-trip."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.bench import (
    CSV_HEADER,
    PROFILES,
    Profile,
    aggregate,
    emit_report,
    error_metrics,
    mcs_applicable,
    parse_report,
    run_suite,
)
from ccsolve.matrices import DenseMatrix, TridiagonalMatrix
from ccsolve.systems import generate_system

EPS1 = 2.0 ** -52


def test_error_metrics_exact_solution():
    s = generate_system(10, 3)
    dl, dm, dr = error_metrics(s.x_exact, s.x_exact, s.matrix, s.y)
    assert (dl, dm, dr) == (0.0, 0.0, 0.0)


def test_error_metrics_orthogonal_error():
    w = DenseMatrix(np.eye(2))
    x = np.array([1.0, 0.0])
    x_tilde = np.array([0.0, 1.0])
    dl, dm, dr = error_metrics(x_tilde, x, w, x.copy())
    assert dl == 0.0
    assert_allclose(dm, np.sqrt(2.0), rtol=1e-15)
    assert_allclose(dr, np.sqrt(2.0), rtol=1e-15)


def test_error_metrics_ordering_well_posed():
    rng = np.random.default_rng(801)
    for _ in range(50):
        m = int(rng.integers(3, 12))
        arr = rng.standard_normal((m, m)) + np.eye(m) * (m + 2.0)
        x = rng.standard_normal(m)
        y = arr @ x
        x_tilde = x + rng.standard_normal(m) * 1e-6
        dl, dm, dr = error_metrics(x_tilde, x, DenseMatrix(arr), y)
        assert dl <= dm + 4.0 * EPS1 * (1.0 + dm)
        assert dm <= dr * (1.0 + 1e-10) + 1e-20


def test_error_metrics_singular_matrix_infinite_upper_bound():
    # an exactly zero smallest singular value makes the upper bound infinite
    w = DenseMatrix(np.zeros((2, 2)))
    dl, dm, dr = error_metrics(np.array([2.0, 2.0]), np.ones(2), w, np.zeros(2))
    assert dr == np.inf
    # a zero residual with a nonsingular matrix keeps it at zero
    w2 = DenseMatrix(np.eye(2))
    assert error_metrics(np.ones(2), np.ones(2), w2, np.ones(2))[2] == 0.0


def test_error_metrics_rejects_zero_exact_norm():
    w = DenseMatrix(np.eye(2))
    with pytest.raises(ValueError):
        error_metrics(np.ones(2), np.zeros(2), w, np.zeros(2))


def test_mcs_applicability():
    assert mcs_applicable(generate_system(17, 4).matrix)
    assert not mcs_applicable(generate_system(11, 4).matrix)
    assert not mcs_applicable(generate_system(10, 4).matrix)


def test_smoke_profile_records():
    records = run_suite("smoke", seed=7)
    # systems 5, 9, 10 at m=3 for the banded direct solver and elimination
    assert len(records) == 6
    assert {r.solver_id for r in records} == {"MCC", "GS"}
    assert {r.system_id for r in records} == {5, 9, 10}
    for r in records:
        assert not r.failed
        assert r.delta_m <= 1e-10
        assert r.wall_time_s == 0.0


def test_nonfinite_solution_is_a_failed_record():
    # On system 2 at m=200 elimination and QR overflow to inf; the cell must
    # record them as failed instead of aborting the suite.
    records = run_suite(Profile(name="cell-2-200", cells=((2, 200),)), seed=7)
    by_solver = {r.solver_id: r for r in records}
    for solver_id in ("GS", "QR"):
        assert by_solver[solver_id].failed
        assert by_solver[solver_id].notes == "error: non-finite solution"


def test_empty_solver_list_gives_no_records():
    assert run_suite("smoke", solvers=(), seed=7) == []


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_suite("nonexistent-profile", seed=7)
    with pytest.raises(ValueError, match="unknown solver id"):
        run_suite("smoke", solvers=("LU",), seed=7)


def test_records_sorted_and_deterministic():
    a = run_suite("smoke", seed=7)
    b = run_suite("smoke", seed=7)
    keys = [(r.system_id, r.m, r.solver_id) for r in a]
    assert keys == sorted(keys)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_aggregate_single_record_copies_values():
    records = run_suite("smoke", seed=7)
    one = [r for r in records if r.solver_id == "MCC" and r.system_id == 10]
    rows = aggregate(one)
    assert len(rows) == 1
    row = rows[0]
    assert row.count == 1
    assert row.failures == 0
    assert row.mean_delta_m == one[0].delta_m
    assert row.mean_norm_x == one[0].norm_x


def test_aggregate_two_records_mean():
    records = [r for r in run_suite("smoke", seed=7)
               if r.solver_id == "MCC" and r.system_id in (9, 10)]
    assert len(records) == 2
    rows = aggregate(records)
    # same solver, same regime, same family -> one row
    assert len(rows) == 1
    assert_allclose(rows[0].mean_delta_m,
                    (records[0].delta_m + records[1].delta_m) / 2.0,
                    rtol=1e-15)


def rows_equal(a, b):
    """Field-wise row comparison treating NaN means as equal."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for name in ra.__dataclass_fields__:
            va, vb = getattr(ra, name), getattr(rb, name)
            if isinstance(va, float) and np.isnan(va) and np.isnan(vb):
                continue
            if va != vb:
                return False
    return True


def test_aggregate_permutation_invariant_and_linear():
    records = run_suite("small", seed=7)
    rows_fwd = aggregate(records)
    rows_rev = aggregate(list(reversed(records)))
    assert rows_equal(rows_fwd, rows_rev)
    # concatenation equals weighted mean per group
    half = len(records) // 2
    first, second = records[:half], records[half:]
    whole = {(r.solver_id, r.regime, r.family): r for r in aggregate(records)}
    for key, row in whole.items():
        parts = [r for rows in (aggregate(first), aggregate(second)) for r in rows
                 if (r.solver_id, r.regime, r.family) == key]
        count = sum(p.count for p in parts)
        assert count == row.count


def test_aggregate_excludes_nonfinite_from_means_counts_failures():
    records = run_suite("pathological", seed=7)
    svd_rows = [r for r in aggregate(records) if r.solver_id == "SVD"]
    assert svd_rows
    assert all(row.failures > 0 for row in svd_rows)
    mcc_rows = [r for r in aggregate(records) if r.solver_id == "MCC"]
    assert all(np.isfinite(row.mean_delta_m) for row in mcc_rows)


def test_csv_round_trip():
    rows = aggregate(run_suite("smoke", seed=7))
    text = emit_report(rows, format="csv")
    assert text.splitlines()[0] == CSV_HEADER
    assert parse_report(text) == rows


def test_markdown_report_shape():
    rows = aggregate(run_suite("smoke", seed=7))
    text = emit_report(rows, format="markdown")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # header + separator + one line per row
    assert len(lines) == 2 + len(rows)
    assert lines[0].startswith("|")


def test_report_header_and_round_trip_with_nan_and_failures():
    # pathological has a group whose every record failed (all means nan)
    # and groups with some failures; the CSV text survives parse and emit.
    rows = aggregate(run_suite("pathological", seed=7))
    assert any(row.count == 0 and np.isnan(row.mean_delta_m) for row in rows)
    assert any(row.count > 0 and row.failures > 0 for row in rows)
    text = emit_report(rows, format="csv")
    assert emit_report(parse_report(text), format="csv") == text
    markdown = emit_report(rows, format="markdown").splitlines()
    assert markdown[0] == (
        "| solver | regime | family | count | mean δ_L | mean δ_M | mean δ_R "
        "| mean ‖x̃‖ | mean ‖x‖ | mean t(s) | failures |"
    )
    assert markdown[1] == "|" + " --- |" * 11
    assert len(markdown) == 2 + len(rows)
    header, first, *_ = text.splitlines()
    for bad in ("", "solver,regime\n" + first, header.upper() + "\n" + first):
        with pytest.raises(ValueError, match="header"):
            parse_report(bad)
    with pytest.raises(ValueError, match="expected 11 fields"):
        parse_report(header + "\n" + first.rsplit(",", 1)[0] + "\n")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report([], format="xml")


def test_empty_rows_give_header_only_csv():
    assert emit_report([], format="csv").strip() == CSV_HEADER


def test_profiles_table():
    for name in ("smoke", "small", "table13-small", "pathological", "paper-like"):
        assert name in PROFILES


def test_perturbed_profile_records_target():
    records = run_suite("table13-small", seed=7)
    targets = {r.target_dx for r in records}
    assert targets == {0.10, 0.20, 0.30, 0.39, 0.60}
    assert all(r.system_id == 17 for r in records)


@pytest.mark.parametrize("cell, expected", [
    ((6, 20), ["values", "vectors"]),
    ((17, 8), ["solve", "values", "vectors"]),
], ids=["cell0", "cell1"])
def test_cell_shares_one_svd_and_solves_no_normal_equations(monkeypatch, cell, expected):
    # All six solvers on one paper-like cell: the SVD and TRM solvers share
    # one SVD with vectors, the oracle adds its values-only SVD, and TRM's
    # filter factors need no linear solve.  The one solve is GS's LAPACK LU
    # on the dense cell; on a band cell GS runs the banded elimination.
    calls = []
    svd, solve = np.linalg.svd, np.linalg.solve

    def counting_svd(a, *args, **kwargs):
        calls.append("values" if kwargs.get("compute_uv") is False else "vectors")
        return svd(a, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        calls.append("solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    records = run_suite(Profile(name="one-cell", cells=(cell,)), seed=7)
    assert {r.solver_id for r in records} >= {"SVD", "TRM"}
    assert sorted(calls) == expected
