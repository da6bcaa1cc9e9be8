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
    dense_array,
    frobenius_norm,
    matvec,
    norm_inf,
    to_dense,
)

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
    # with the dense row-sum and Frobenius formulas, down to order 1.
    rng = np.random.default_rng(107)
    for m in (1, 2, 3, 7, 40):
        q = rng.standard_normal(m)
        p, r = rng.standard_normal((2, m - 1))
        for w in (TridiagonalMatrix(q=q, p=p, r=r), BidiagonalMatrix(q=q, r=r),
                  DenseMatrix(rng.standard_normal((m, m)))):
            a = dense_array(w)
            assert_allclose(norm_inf(w), np.max(np.sum(np.abs(a), axis=1)), rtol=1e-15)
            assert_allclose(frobenius_norm(w), np.sqrt(np.sum(a * a)), rtol=1e-15)


def test_to_dense_round_trip():
    rng = np.random.default_rng(105)
    w = random_tridiagonal(rng, 6)
    d = to_dense(w)
    assert isinstance(d, DenseMatrix)
    assert_array_equal(d.a, dense_array(w))
    assert to_dense(d) is d


def test_dense_array_accepts_plain_square_array():
    a = np.arange(9.0).reshape(3, 3)
    out = dense_array(a)
    assert_array_equal(out, a)
    with pytest.raises(ValueError):
        dense_array(np.ones((2, 3)))


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


def test_precision_defaults():
    assert matrices.EPS1 == EPS1
    assert 0.0 < matrices.EPS0 < 1e-300
