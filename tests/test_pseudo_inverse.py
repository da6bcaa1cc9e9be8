"""The lock-step pseudo-inverse against the column loop it replaced.

``explicit_pseudo_inverse`` solves each unit column on its own; the
lock-step sweep must give the same matrix bit for bit (``tobytes``, so
signed zeros and NaN count), re-solving on its own only a column that one
of its checks rejects.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from ccsolve import tridiagonal
from ccsolve.matrices import BidiagonalMatrix, TridiagonalMatrix
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import pseudo_inverse_tridiagonal
from explicit_solve import explicit_pseudo_inverse


def catalogued(sid, m):
    """System sid at order m; below the catalogue's smallest order 3, the
    leading m-by-m block of the order-3 system."""
    w = generate_system(sid, max(m, 3)).matrix
    if m >= 3:
        return w
    if isinstance(w, BidiagonalMatrix):
        return BidiagonalMatrix(q=w.q[:m], r=w.r[:m - 1])
    return TridiagonalMatrix(q=w.q[:m], p=w.p[:m - 1], r=w.r[:m - 1])


def assert_same(w, **thresholds):
    got = pseudo_inverse_tridiagonal(w, **thresholds).a
    want = explicit_pseudo_inverse(w, **thresholds).a
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 30, 45, 60, 200])
def test_matches_column_loop_on_catalogued_systems(m):
    for sid in range(1, 11):
        assert_same(catalogued(sid, m))


@pytest.mark.parametrize(
    "thresholds",
    [{"phi_threshold": 1e-12}, {"phi_threshold": 1e-3},
     {"growth_threshold": 0.0}, {"growth_threshold": 1e3}],
)
def test_matches_column_loop_with_thresholds(thresholds):
    for m in (2, 5, 30, 60):
        for sid in range(1, 11):
            assert_same(catalogued(sid, m), **thresholds)


@pytest.mark.parametrize("knob", ["phi_threshold", "growth_threshold"])
def test_nan_threshold_rejected(knob):
    with pytest.raises(ValueError, match="must not be NaN"):
        pseudo_inverse_tridiagonal(generate_system(2, 5).matrix, **{knob: np.nan})


def test_matches_column_loop_on_degenerate_bands():
    # Bands of both types with entries from small integers (exact zeros in
    # lam and G, perturbed structure elements, truncated diagonals) or from
    # a few values spread over 400 decades (overflowing inverse rows), so
    # every check of the lock-step group fires on some column.
    rng = np.random.default_rng(20261018)
    wide = [0.0, 1e-200, 1e200, -1e150, 3.0]
    for t in range(300):
        m = int(rng.integers(1, 41))
        hi = 1 + t % 2

        def band(n):
            if t % 5 == 4:
                return rng.choice(wide, n)
            return rng.integers(-hi, hi + 1, n).astype(float)

        if t % 3 == 0:
            w = BidiagonalMatrix(q=band(m), r=band(m - 1))
        else:
            w = TridiagonalMatrix(q=band(m), p=band(m - 1), r=band(m - 1))
        assert_same(w)


def test_overflowing_columns_run_warning_free():
    # System 2 at m=200 overflows in many unit columns (their own solves
    # log non-finite rows); in the lock-step arrays that is data, sent to
    # the per-column solve, never a warning.
    w = generate_system(2, 200).matrix
    e_last = np.zeros(200)
    e_last[-1] = 1.0
    events = tridiagonal.solve_cc_tridiagonal(w, e_last).events
    assert any(label.startswith("nonfinite") for label, _ in events)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pseudo_inverse_tridiagonal(w).a
    assert got.tobytes() == explicit_pseudo_inverse(w).a.tobytes()


def count_solves(monkeypatch):
    # a column's own solve runs through tridiagonal._solve, the body of
    # solve_cc_tridiagonal, on the matrix part the group already built
    calls = []
    solve = tridiagonal._solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(tridiagonal, "_solve", counting)
    return calls


def test_one_block_columns_skip_the_per_column_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    pseudo_inverse_tridiagonal(generate_system(6, 60).matrix)
    assert len(calls) == 0
    # growth_threshold <= 0 rejects every row below the bottom one
    pseudo_inverse_tridiagonal(generate_system(6, 60).matrix, growth_threshold=0.0)
    assert len(calls) == 60
    calls.clear()
    # system 2 splits some unit columns and keeps others in one block
    pseudo_inverse_tridiagonal(generate_system(2, 60).matrix)
    assert 1 <= len(calls) <= 59


def test_working_set_is_a_few_dense_matrices():
    m = 400
    w = generate_system(6, m).matrix
    tracemalloc.start()
    try:
        pseudo_inverse_tridiagonal(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * m * m, peak / (8 * m * m)
