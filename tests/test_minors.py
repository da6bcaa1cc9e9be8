"""Tests for the corner minor-ratio sequences and block inverse rows."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import TridiagonalMatrix, dense_array, norm_inf
from ccsolve.minors import (
    band_scale,
    fresh_block_g,
    g_sequence,
    inverse_row,
    lambda_sequence,
    padded_bands,
)

EPS1 = 2.0 ** -52


def random_dominant(rng, m):
    p = rng.standard_normal(m - 1)
    r = rng.standard_normal(m - 1)
    q = rng.standard_normal(m)
    q += np.sign(q) * (np.abs(p).max() + np.abs(r).max() + 1.0)
    return TridiagonalMatrix(q=q, p=p, r=r)


def block_inverse_rows(w, top, bottom):
    """Rows top..bottom of the block inverse over columns 1..bottom, built
    from inverse_row with the global lambda and the block's G sequence."""
    _, qq, pp, rr = padded_bands(w)
    lam = lambda_sequence(w)
    g = g_sequence(w, top, bottom)
    scale = band_scale(w)
    rows = [
        inverse_row(i, bottom, qq, pp, rr, lam, g, scale, EPS1, [])
        for i in range(top, bottom + 1)
    ]
    return np.array([row[1:] for row in rows])


def brute_leading_ratios(a):
    """lam[k] = det(A[:k-1,:k-1]) / det(A[:k-2,:k-2]) for k = 2..m+1."""
    m = a.shape[0]
    d = [1.0] + [float(np.linalg.det(a[:i, :i])) for i in range(1, m + 1)]
    return {k: d[k - 1] / d[k - 2] for k in range(2, m + 2)}


def brute_trailing_ratios(a):
    """g[k] = det(A[k:,k:]) / det(A[k+1:,k+1:]) with 0-based k."""
    m = a.shape[0]
    t = [float(np.linalg.det(a[i:, i:])) for i in range(m)] + [1.0]
    return {k: t[k] / t[k + 1] for k in range(m)}


def test_minor_ratio_oracle():
    rng = np.random.default_rng(20260825)
    for _ in range(200):
        m = int(rng.integers(3, 13))
        w = random_dominant(rng, m)
        a = dense_array(w)
        lam = lambda_sequence(w)
        g = g_sequence(w, 1, m)
        for k, want in brute_leading_ratios(a).items():
            assert abs(lam[k] - want) <= 1e-9 * abs(want)
        for k, want in brute_trailing_ratios(a).items():
            assert abs(g[k] - want) <= 1e-9 * abs(want)


def test_lambda_zero_marks_successor_undefined():
    # Leading 1x1 minor is 0, so the next ratio is undefined and the
    # sequence restarts from the following diagonal entry.
    w = TridiagonalMatrix(q=np.array([0.0, 1.0, 1.0]),
                          p=np.array([1.0, 1.0]),
                          r=np.array([1.0, 1.0]))
    lam = lambda_sequence(w)
    assert lam[2] == 0.0
    assert np.isnan(lam[3])
    assert lam[4] == 1.0


def test_g_zero_marks_predecessor_undefined():
    w = TridiagonalMatrix(q=np.array([1.0, 1.0, 0.0]),
                          p=np.array([1.0, 1.0]),
                          r=np.array([1.0, 1.0]))
    g = g_sequence(w, 1, 3)
    assert g[3] == 1.0
    assert g[2] == 0.0
    assert np.isnan(g[1])
    assert g[0] == 1.0


def test_fresh_block_g_base_entries():
    q = np.zeros(8)
    q[5] = 7.0
    g = fresh_block_g(5, q)
    assert g[5] == 1.0
    assert g[4] == 7.0


def test_single_block_inverse_matches_numpy():
    rng = np.random.default_rng(301)
    for _ in range(60):
        m = int(rng.integers(2, 21))
        w = random_dominant(rng, m)
        a = dense_array(w)
        binv = block_inverse_rows(w, 1, m)
        rho = np.max(np.abs(binv))
        err = np.max(np.abs(a @ binv - np.eye(m)))
        assert err <= m * 1e-10 * max(1.0, norm_inf(w) * rho)


def test_block_inverse_row_solves_unit_systems():
    rng = np.random.default_rng(302)
    w = random_dominant(rng, 8)
    a = dense_array(w)
    binv = block_inverse_rows(w, 1, 8)
    inv = np.linalg.inv(a)
    for i in (1, 4, 8):
        assert_allclose(binv[i - 1], inv[i - 1, :], rtol=1e-10, atol=1e-12)


def test_block_inverse_with_interior_zero_minors():
    # All-ones bands make the leading minors cycle 1, 0, -1, ... so several
    # ratios are zero or undefined; the inverse rows must still reproduce
    # the exact inverse (order 6 itself is nonsingular).
    w = TridiagonalMatrix(q=np.ones(6), p=np.ones(5), r=np.ones(5))
    a = dense_array(w)
    assert abs(np.linalg.det(a)) > 0.1
    binv = block_inverse_rows(w, 1, 6)
    assert np.max(np.abs(a @ binv - np.eye(6))) <= 1e-12


def test_regularized_blocks_reconstruction():
    # For a nonsingular matrix cut at an arbitrary boundary: the top block's
    # rows invert the standalone leading submatrix; the bottom block's rows
    # over its own columns invert the trailing submatrix with the coupled
    # corner q - p*r*(last diagonal of the top block's inverse); and over
    # all columns they reproduce the true inverse rows.
    rng = np.random.default_rng(303)
    for _ in range(20):
        m = int(rng.integers(4, 13))
        cut = int(rng.integers(1, m - 1))
        w = random_dominant(rng, m)
        a = dense_array(w)
        top_inv = np.linalg.inv(a[:cut, :cut])
        assert_allclose(block_inverse_rows(w, 1, cut), top_inv, rtol=0, atol=1e-10)
        bottom = block_inverse_rows(w, cut + 1, m)
        lower = a[cut:, cut:].copy()
        lower[0, 0] -= a[cut, cut - 1] * a[cut - 1, cut] * top_inv[-1, -1]
        assert_allclose(bottom[:, cut:], np.linalg.inv(lower), rtol=0, atol=1e-10)
        true_inv = np.linalg.inv(a)
        assert_allclose(bottom, true_inv[cut:, :], rtol=0, atol=1e-10)
