"""Tests for the reference solvers: elimination, QR, truncated SVD, and
discrepancy-principle regularization."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ccsolve.matrices import (
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    dense_array,
    matvec,
)
from ccsolve.reference import (
    solve_gauss,
    solve_qr,
    solve_svd_truncated,
    solve_tikhonov,
)
from ccsolve.systems import generate_system

EPS1 = 2.0 ** -52


def hilbert(m):
    i = np.arange(1, m + 1, dtype=float)
    return DenseMatrix(1.0 / (i[:, None] + i[None, :] - 1.0))


def test_gauss_identity_returns_rhs():
    y = np.array([3.0, -1.0, 2.0])
    out = solve_gauss(DenseMatrix(np.eye(3)), y)
    assert not out.failed
    assert_allclose(out.x, y, rtol=0, atol=0)


def test_gauss_banded_well_posed_exact():
    s = generate_system(10, 3)
    out = solve_gauss(s.matrix, s.y)
    assert not out.failed
    assert np.max(np.abs(out.x - 1.0)) <= 1e-13


def test_gauss_tridiagonal_matches_dense_elimination():
    rng = np.random.default_rng(701)
    for _ in range(40):
        m = int(rng.integers(2, 40))
        p = rng.standard_normal(m - 1)
        r = rng.standard_normal(m - 1)
        q = rng.standard_normal(m)
        w = TridiagonalMatrix(q=q, p=p, r=r)
        x = rng.standard_normal(m)
        y = matvec(w, x)
        banded = solve_gauss(w, y)
        dense = solve_gauss(DenseMatrix(dense_array(w)), y)
        assert banded.failed == dense.failed
        if not banded.failed:
            scale = max(1.0, np.max(np.abs(dense.x)))
            assert_allclose(banded.x, dense.x, rtol=0, atol=1e-8 * scale)


def test_gauss_bidiagonal_back_substitution():
    rng = np.random.default_rng(702)
    w = BidiagonalMatrix(q=rng.standard_normal(8) + 3.0, r=rng.standard_normal(7))
    x = rng.standard_normal(8)
    y = matvec(w, x)
    out = solve_gauss(w, y)
    assert_allclose(out.x, x, rtol=0, atol=1e-12)


def test_gauss_overflow_reads_non_finite_without_warning():
    # System 2 at m = 200 overflows in the back substitution; the banded
    # elimination runs on Python floats, so x comes back non-finite and no
    # numpy RuntimeWarning is raised.
    s = generate_system(2, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_gauss(s.matrix, s.y)
    assert not out.failed
    assert not np.all(np.isfinite(out.x))


def test_gauss_hilbert_matches_numpy():
    h = hilbert(4)
    y = h.a @ (1.0 / np.arange(1.0, 5.0))
    out = solve_gauss(h, y)
    assert not out.failed
    assert np.max(np.abs(out.x - np.linalg.solve(h.a, y))) <= 1e-9


def test_gauss_fails_only_on_exact_zero_pivot():
    out = solve_gauss(DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])),
                      np.array([1.0, 2.0]))
    assert out.failed
    assert out.x is None
    assert "singular" in out.note
    # bidiagonal with a zero diagonal entry cannot back-substitute
    w = BidiagonalMatrix(q=np.array([1.0, 0.0]), r=np.array([1.0]))
    assert solve_gauss(w, np.ones(2)).failed
    # tridiagonal: a zero first pivot with a zero entry below it, no swap
    w = TridiagonalMatrix(q=[0.0, 1.0, 1.0], p=[0.0, 1.0], r=[1.0, 1.0])
    out = solve_gauss(w, np.ones(3))
    assert out.failed
    assert out.note == "exactly singular pivot"


def test_qr_well_posed_dense():
    s = generate_system(16, 5)
    out = solve_qr(s.matrix, s.y)
    assert not out.failed
    rel = np.linalg.norm(out.x - s.x_exact) / np.linalg.norm(s.x_exact)
    assert rel <= 1e-8


def test_qr_fails_on_exactly_rank_deficient():
    out = solve_qr(DenseMatrix(np.array([[1.0, 2.0], [0.0, 0.0]])),
                   np.array([1.0, 1.0]))
    assert out.failed
    assert "zero" in out.note


def test_qr_matches_numpy_lstsq_on_full_rank():
    rng = np.random.default_rng(703)
    for _ in range(20):
        m = int(rng.integers(2, 20))
        arr = rng.standard_normal((m, m)) + np.eye(m) * 3.0
        x = rng.standard_normal(m)
        y = arr @ x
        out = solve_qr(DenseMatrix(arr), y)
        assert_allclose(out.x, np.linalg.solve(arr, y), rtol=0, atol=1e-9)


def test_qr_skips_exactly_zero_column_tails():
    rng = np.random.default_rng(704)
    m = 9
    # Upper-triangular input: every column tail is exactly zero, so no
    # reflector is applied and QR is plain back substitution, bit for bit.
    upper = np.triu(rng.standard_normal((m, m))) + np.eye(m) * 3.0
    y = rng.standard_normal(m)
    want = np.zeros(m)
    for i in range(m - 1, -1, -1):
        want[i] = (y[i] - upper[i, i + 1 :] @ want[i + 1 :]) / upper[i, i]
    assert np.array_equal(solve_qr(DenseMatrix(upper), y).x, want)
    # Block upper-triangular input: the reflectors of the leading 4 x 4
    # block leave rows 4.. alone, so column 3's tail stays exactly zero
    # mid-way and is skipped before the trailing block is reduced.
    arr = rng.standard_normal((m, m)) + np.eye(m) * 3.0
    arr[4:, :4] = 0.0
    want, *_ = np.linalg.lstsq(arr, y, rcond=None)
    assert_allclose(solve_qr(DenseMatrix(arr), y).x, want, rtol=0, atol=1e-9)


def test_svd_truncated_minimal_norm_on_singular():
    s = generate_system(20, 5)
    out = solve_svd_truncated(s.matrix, s.y)
    assert not out.failed
    assert "rank 4 of 5" in out.note
    oracle, *_ = np.linalg.lstsq(dense_array(s.matrix), s.y, rcond=None)
    rel = np.linalg.norm(out.x - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-4
    # the zero matrix keeps no singular value: x = 0, rank 0
    out = solve_svd_truncated(DenseMatrix(np.zeros((3, 3))), np.ones(3))
    assert not out.failed
    assert out.note == "numerical rank 0 of 3"
    assert np.array_equal(out.x, np.zeros(3))


def test_svd_full_rank_matches_solve():
    rng = np.random.default_rng(704)
    arr = rng.standard_normal((6, 6)) + np.eye(6) * 5.0
    y = rng.standard_normal(6)
    out = solve_svd_truncated(DenseMatrix(arr), y)
    assert "rank 6 of 6" in out.note
    assert_allclose(out.x, np.linalg.solve(arr, y), rtol=0, atol=1e-10)


def test_svd_emulation_declines_rank_deficient():
    h = hilbert(13)
    y = h.a @ np.ones(13)
    out = solve_svd_truncated(h, y, emulate_failure=True)
    assert out.failed
    assert "declined" in out.note
    # emulation mode does not decline genuinely full-rank input
    ok = solve_svd_truncated(DenseMatrix(np.eye(4)), np.ones(4),
                             emulate_failure=True)
    assert not ok.failed


def test_svd_custom_tolerance_controls_rank():
    # With a huge relative tolerance everything below the top singular
    # value is discarded.
    arr = np.diag([1.0, 1e-3, 1e-6])
    out = solve_svd_truncated(DenseMatrix(arr), np.ones(3), rel_tol=1e-2)
    assert "rank 1 of 3" in out.note
    assert_allclose(out.x, [1.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_tikhonov_recovers_well_posed_solution():
    rng = np.random.default_rng(705)
    arr = rng.standard_normal((5, 5)) + np.eye(5) * 5.0
    x = rng.standard_normal(5)
    y = arr @ x
    out = solve_tikhonov(DenseMatrix(arr), y, delta_star=0.0)
    assert not out.failed
    gauss = solve_gauss(DenseMatrix(arr), y)
    assert np.linalg.norm(out.x - gauss.x) / np.linalg.norm(gauss.x) <= 1e-6


def test_tikhonov_identity_smallest_alpha():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    out = solve_tikhonov(DenseMatrix(np.eye(4)), y, delta_star=0.0)
    assert np.max(np.abs(out.x - y)) <= 1e-12
    assert "alpha" in out.note


def test_tikhonov_meets_discrepancy_target():
    h = hilbert(8)
    y = h.a @ np.ones(8)
    target = 1e-8 * np.linalg.norm(y)
    out = solve_tikhonov(h, y, delta_star=target)
    assert not out.failed
    residual = np.linalg.norm(h.a @ out.x - y)
    assert abs(residual - target) <= 2e-3 * target


def test_tikhonov_residual_grows_with_alpha():
    # The discrepancy function is monotone in the regularization weight;
    # the solver's bracketing relies on it.
    h = hilbert(6)
    y = h.a @ np.ones(6)
    ata = h.a.T @ h.a
    aty = h.a.T @ y
    residuals = []
    for alpha in (1e-12, 1e-8, 1e-4, 1.0):
        z = np.linalg.solve(ata + alpha * np.eye(6), aty)
        residuals.append(np.linalg.norm(h.a @ z - y))
    assert all(a < b for a, b in zip(residuals, residuals[1:]))


def test_tikhonov_below_minimal_residual_note():
    # An unreachably small positive target reports the smallest-alpha
    # iterate instead of failing.
    h = hilbert(6)
    y = h.a @ np.ones(6)
    out = solve_tikhonov(h, y, delta_star=1e-40)
    assert not out.failed
    assert "below minimal" in out.note


def test_solver_ids():
    y = np.ones(3)
    eye = DenseMatrix(np.eye(3))
    assert solve_gauss(eye, y).solver_id == "GS"
    assert solve_qr(eye, y).solver_id == "QR"
    assert solve_svd_truncated(eye, y).solver_id == "SVD"
    assert solve_tikhonov(eye, y).solver_id == "TRM"


def test_wrong_length_rhs_and_negative_target_rejected():
    eye = DenseMatrix(np.eye(3))
    for solve in (solve_gauss, solve_qr, solve_svd_truncated, solve_tikhonov):
        with pytest.raises(ValueError, match="y must have length 3"):
            solve(eye, np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            solve(eye, [1.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_tikhonov(eye, np.ones(3), delta_star=-1.0)
    with pytest.raises(ValueError, match="NaN"):
        solve_tikhonov(eye, np.ones(3), delta_star=np.nan)
    with pytest.raises(ValueError, match="NaN"):
        solve_svd_truncated(eye, np.ones(3), rel_tol=np.nan)


@pytest.mark.parametrize("solve", [solve_qr, solve_svd_truncated, solve_tikhonov])
@pytest.mark.parametrize("m", [5, 30])
def test_band_input_matches_its_dense_container(solve, m):
    # QR, SVD and TRM read a band container through dense_array, so band
    # input gives the x and note (or the error) of the same entries in a
    # DenseMatrix.
    def run(w, y):
        try:
            with np.errstate(all="ignore"):
                out = solve(w, y)
        except np.linalg.LinAlgError as exc:  # TRM on an exactly singular W
            return repr(exc)
        return out.note, None if out.failed else out.x.tobytes()

    for sid in range(1, 11):
        s = generate_system(sid, m)
        assert run(s.matrix, s.y) == run(DenseMatrix(dense_array(s.matrix)), s.y)
