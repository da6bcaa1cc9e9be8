"""Tests for the matrix containers, products, and norms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve import matrices
from ccsolve.matrices import (
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    condition_number,
    condition_number_inf,
    dense_array,
    frobenius_norm,
    matvec,
    norm_inf,
)
from ccsolve.reduction import reduce_general, reduce_symmetric, solve_dense
from ccsolve.reference import (
    solve_gauss,
    solve_qr,
    solve_svd_truncated,
    solve_tikhonov,
)
from ccsolve.systems import classify, generate_system
from ccsolve.tridiagonal import pseudo_inverse_tridiagonal, solve_cc_tridiagonal

EPS1 = 2.0 ** -52


def random_tridiagonal(rng, m):
    return TridiagonalMatrix(
        q=rng.standard_normal(m),
        p=rng.standard_normal(m - 1),
        r=rng.standard_normal(m - 1),
    )


def random_bidiagonal(rng, m):
    return BidiagonalMatrix(q=rng.standard_normal(m), r=rng.standard_normal(m - 1))


def test_tridiagonal_dense_layout():
    w = TridiagonalMatrix(q=np.array([1.0, 2.0, 3.0]),
                          p=np.array([4.0, 5.0]),
                          r=np.array([6.0, 7.0]))
    a = dense_array(w)
    assert_array_equal(a, np.array([[1.0, 6.0, 0.0],
                                    [4.0, 2.0, 7.0],
                                    [0.0, 5.0, 3.0]]))


def test_bidiagonal_dense_layout():
    w = BidiagonalMatrix(q=np.array([1.0, 2.0, 3.0]), r=np.array([6.0, 7.0]))
    a = dense_array(w)
    assert_array_equal(a, np.array([[1.0, 6.0, 0.0],
                                    [0.0, 2.0, 7.0],
                                    [0.0, 0.0, 3.0]]))


def test_band_length_validation():
    with pytest.raises(ValueError):
        TridiagonalMatrix(q=np.ones(3), p=np.ones(3), r=np.ones(2))
    with pytest.raises(ValueError):
        BidiagonalMatrix(q=np.ones(3), r=np.ones(3))
    with pytest.raises(ValueError):
        DenseMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="one-dimensional"):
        TridiagonalMatrix(q=np.ones((2, 2)), p=np.ones(3), r=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        BidiagonalMatrix(q=np.array([1.0, np.inf]), r=np.ones(1))
    for make in (
        lambda: TridiagonalMatrix(q=[], p=[], r=[]),
        lambda: BidiagonalMatrix(q=[], r=[]),
        lambda: DenseMatrix(np.ones((0, 0))),
    ):
        with pytest.raises(ValueError, match="order must be at least 1"):
            make()
    with pytest.raises(ValueError, match="finite"):
        TridiagonalMatrix(q=[1.0, np.nan], p=[0.0], r=[0.0])
    with pytest.raises(ValueError, match="finite"):
        BidiagonalMatrix(q=[1.0, 1.0], r=[np.nan])
    with pytest.raises(ValueError, match="finite"):
        DenseMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_matvec_matches_dense_product():
    rng = np.random.default_rng(101)
    for _ in range(40):
        m = int(rng.integers(1, 65))
        if m == 1:
            w = TridiagonalMatrix(q=rng.standard_normal(1), p=np.zeros(0), r=np.zeros(0))
        else:
            w = random_tridiagonal(rng, m)
        x = rng.standard_normal(m)
        got = matvec(w, x)
        want = dense_array(w) @ x
        rowsum = np.max(np.abs(dense_array(w)) @ np.abs(x)) + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2.0 * EPS1 * max(rowsum, 1.0)


def test_matvec_bidiagonal_matches_dense_product():
    rng = np.random.default_rng(102)
    for _ in range(40):
        m = int(rng.integers(2, 65))
        w = random_bidiagonal(rng, m)
        x = rng.standard_normal(m)
        got = matvec(w, x)
        want = dense_array(w) @ x
        rowsum = np.max(np.abs(dense_array(w)) @ np.abs(x)) + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2.0 * EPS1 * max(rowsum, 1.0)


def test_matvec_dense_container():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    assert_allclose(matvec(DenseMatrix(a), x), a @ x, rtol=1e-14)
    with pytest.raises(TypeError, match="unsupported matrix type"):
        matvec(a, x)


def test_norms_match_numpy():
    rng = np.random.default_rng(104)
    for _ in range(20):
        m = int(rng.integers(2, 33))
        w = random_tridiagonal(rng, m)
        a = dense_array(w)
        assert_allclose(norm_inf(w), np.max(np.sum(np.abs(a), axis=1)), rtol=1e-14)
        assert_allclose(frobenius_norm(w), np.linalg.norm(a, "fro"), rtol=1e-14)


def test_band_norms_match_dense_formula():
    # The band formulas for both band containers, and the dense path, agree
    # with the dense row-sum and Frobenius formulas, down to order 1; so do
    # the band product and the banded elimination with their dense
    # counterparts, and a bidiagonal's p reads as m - 1 zeros.
    rng = np.random.default_rng(107)
    rng_x = np.random.default_rng(108)
    for m in (1, 2, 3, 7, 40):
        q = rng.standard_normal(m)
        p, r = rng.standard_normal((2, m - 1))
        for w in (TridiagonalMatrix(q=q, p=p, r=r), BidiagonalMatrix(q=q, r=r),
                  DenseMatrix(rng.standard_normal((m, m)))):
            a = dense_array(w)
            assert_allclose(norm_inf(w), np.max(np.sum(np.abs(a), axis=1)), rtol=1e-15)
            assert_allclose(frobenius_norm(w), np.sqrt(np.sum(a * a)), rtol=1e-15)
            if isinstance(w, DenseMatrix):
                continue
            x, y = rng_x.standard_normal((2, m))
            assert_allclose(matvec(w, x), a @ x, rtol=0,
                            atol=4 * EPS1 * norm_inf(w) * np.max(np.abs(x)))
            ref = np.linalg.solve(a, y)
            assert_allclose(solve_gauss(w, y).x, ref, rtol=0,
                            atol=m * EPS1 * condition_number_inf(w) * np.max(np.abs(ref)))
        bi = BidiagonalMatrix(q=q, r=r)
        assert_array_equal(bi.p, np.zeros(m - 1))
        with pytest.raises(AttributeError):
            bi.p = p


BAND = TridiagonalMatrix(q=np.ones(3), p=np.ones(2), r=np.ones(2))
DENSE = DenseMatrix(np.eye(3))


@pytest.mark.parametrize("call", [
    lambda: solve_cc_tridiagonal(DENSE, np.ones(3)),
    lambda: pseudo_inverse_tridiagonal(DENSE),
    lambda: solve_dense(BAND, np.ones(3)),
    lambda: reduce_general(BAND, np.ones(3)),
    lambda: reduce_symmetric(BAND, np.ones(3)),
    lambda: dense_array(np.eye(3)),
    lambda: norm_inf(np.eye(3)),
    lambda: frobenius_norm(np.eye(3)),
    lambda: solve_gauss(np.eye(3), np.ones(3)),
    lambda: solve_qr(np.eye(3), np.ones(3)),
    lambda: solve_svd_truncated(np.eye(3), np.ones(3)),
    lambda: solve_tikhonov(np.eye(3), np.ones(3)),
], ids=["cc-dense", "pinv-dense", "solve_dense-band", "reduce_general-band",
        "reduce_symmetric-band", "dense_array-ndarray", "norm_inf-ndarray",
        "frobenius_norm-ndarray", "gauss-ndarray", "qr-ndarray", "svd-ndarray", "trm-ndarray"])
def test_wrong_container_raises_type_error(call):
    with pytest.raises(TypeError, match="unsupported matrix type"):
        call()


def test_condition_number_scale_invariant_in_ratio():
    # mu(alpha * A) = mu(A): scaling cancels in the ratio of singular values.
    rng = np.random.default_rng(106)
    a = rng.standard_normal((8, 8))
    base = condition_number(DenseMatrix(a))
    for alpha in (1e-3, 1.0, 1e3):
        scaled = condition_number(DenseMatrix(alpha * a))
        assert_allclose(scaled, base, rtol=1e-12)


def test_condition_number_orthogonal_is_one():
    rng = np.random.default_rng(107)
    a = rng.standard_normal((10, 10))
    qmat, _ = np.linalg.qr(a)
    assert_allclose(condition_number(DenseMatrix(qmat)), 1.0, rtol=1e-10)


def test_condition_number_singular_is_infinite():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert condition_number(DenseMatrix(a)) == np.inf
    assert condition_number(DenseMatrix(np.zeros((3, 3)))) == np.inf


def test_condition_number_banded_matches_dense():
    rng = np.random.default_rng(108)
    w = random_tridiagonal(rng, 12)
    assert_allclose(condition_number(w),
                    condition_number(DenseMatrix(dense_array(w))),
                    rtol=1e-12)


def _kappa_inf_oracle(w):
    """||W||_inf times the largest row sum of an explicit dense inverse."""
    inv = np.linalg.inv(dense_array(w))
    return norm_inf(w) * float(np.max(np.sum(np.abs(inv), axis=1)))


def test_condition_number_inf_matches_explicit_inverse_on_catalogued_systems():
    compared = 0
    for sid in range(1, 11):
        for m in (3, 5, 10, 50, 200):
            w = generate_system(sid, m).matrix
            try:
                oracle = _kappa_inf_oracle(w)
            except np.linalg.LinAlgError:
                continue
            if oracle * m * EPS1 < 1e-3:
                assert_allclose(condition_number_inf(w), oracle, rtol=1e-12,
                                err_msg=f"system {sid} m={m}")
                compared += 1
    assert compared >= 25


def test_condition_number_inf_matches_explicit_inverse_on_random_bands():
    rng = np.random.default_rng(109)
    compared = 0
    for k in range(200):
        m = int(rng.integers(2, 60))
        w = random_tridiagonal(rng, m) if k % 2 else random_bidiagonal(rng, m)
        oracle = _kappa_inf_oracle(w)
        if oracle * m * EPS1 < 1e-3:
            assert_allclose(condition_number_inf(w), oracle, rtol=1e-12,
                            err_msg=f"band {k} m={m}")
            compared += 1
    assert compared >= 100


@pytest.mark.parametrize("w", [
    # the leading 2x2 minor vanishes, but the matrix is not singular
    TridiagonalMatrix(q=[1.0, 4.0, 2.0], p=[2.0, 1.0], r=[2.0, 3.0]),
    TridiagonalMatrix(q=[0.0, 0.0], p=[1.0], r=[1.0]),
    # subnormal first and last pivots: dividing by them would overflow
    TridiagonalMatrix(q=[1e-310, 1.0], p=[1.0], r=[1.0]),
    TridiagonalMatrix(q=[1.0, 1e-310], p=[1.0], r=[1.0]),
    BidiagonalMatrix(q=[2.0, -3.0, 0.5], r=[0.0, 7.0]),
], ids=["zero-leading-minor", "swap", "tiny-leading-pivot", "tiny-trailing-pivot",
        "bidiagonal"])
def test_condition_number_inf_zero_pivots_and_small_orders(w):
    assert_allclose(condition_number_inf(w), _kappa_inf_oracle(w), rtol=1e-12)


def test_condition_number_inf_singular_is_infinite():
    singular = [
        TridiagonalMatrix(q=[1.0, 1.0, 1.0], p=[1.0, 0.0], r=[1.0, 0.0]),
        # exactly zero two-sided pivots: inf, not a division by zero
        TridiagonalMatrix(q=[1.0, 0.0, 1.0], p=[0.0, 0.0], r=[0.0, 0.0]),
        BidiagonalMatrix(q=[1.0, 0.0, 2.0], r=[3.0, 4.0]),
        TridiagonalMatrix(q=np.zeros(4), p=np.zeros(3), r=np.zeros(3)),
        generate_system(10, 5).matrix,
        DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])),
        DenseMatrix(np.zeros((3, 3))),
    ]
    for w in singular:
        assert condition_number_inf(w) == np.inf


def test_condition_number_inf_is_scale_invariant():
    # kappa of W is that of W/||W||_inf: 49 * (1/49) would round to 1 - eps1/2,
    # and the inverse of a well-conditioned W near the underflow threshold
    # would overflow
    for w in (DenseMatrix(49.0 * np.eye(3)),
              TridiagonalMatrix(q=np.full(3, 49.0), p=np.zeros(2), r=np.zeros(2))):
        assert condition_number_inf(w) == 1.0
    tiny = 1e-308
    for w in (DenseMatrix(tiny * np.array([[1.0, 1.0], [0.0, 1.0]])),
              BidiagonalMatrix(q=[tiny, tiny], r=[tiny])):
        assert condition_number_inf(w) == 4.0


@pytest.mark.filterwarnings("error")
def test_condition_number_inf_overflowing_inverse_is_infinite():
    # a row sum of the inverse overflows: inf, and no RuntimeWarning
    s = 1.67e-308
    a = np.array([[1.0, 1.0, 0.0], [0.0, s, s], [0.0, 0.0, s]])
    assert condition_number_inf(DenseMatrix(a)) == np.inf
    # a row sum of W itself overflows, banded or dense: the same
    big = 1e308
    for w in (TridiagonalMatrix(q=[big] * 3, p=[big] * 2, r=[big] * 2),
              DenseMatrix(big * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                                          [1.0, 1.0, -1.0]]))):
        assert norm_inf(w) == np.inf
        assert condition_number_inf(w) == np.inf


@pytest.mark.filterwarnings("error")
def test_condition_number_inf_never_raises_on_catalogued_systems():
    for sid in range(1, 21):
        for m in (3, 5, 50, 200, 800):
            kappa = condition_number_inf(generate_system(sid, m).matrix)
            assert isinstance(kappa, float) and kappa >= 1.0, (sid, m, kappa)


def test_condition_number_inf_regime_labels_match_svd():
    for sid in range(1, 21):
        for m in (5, 50, 200):
            w = generate_system(sid, m).matrix
            assert (classify(condition_number_inf(w)).label
                    == classify(condition_number(w)).label), (sid, m)


def test_precision_defaults():
    assert matrices.EPS1 == EPS1
    assert 0.0 < matrices.EPS0 < 1e-300
