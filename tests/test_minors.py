"""Tests for the corner minor-ratio sequences and block inverse rows.

The block inverse rows and the G sequences come from the oracles of
``explicit_minors``; ``ccsolve.minors`` holds what the sweep reads.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import BidiagonalMatrix, TridiagonalMatrix, dense_array, norm_inf
import explicit_minors as oracle
from ccsolve.minors import (
    _beta_hat,
    _diag_and_omega,
    beta_sequence,
    lambda_sequence,
    padded_bands,
)
from ccsolve.tridiagonal import _Bands, _RowSweep
from explicit_minors import band_scale, fresh_block_g, g_sequence, inverse_row
from explicit_solve import explicit_lambda_sequence
from test_sweep import degenerate_inputs

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


def test_lambda_sequence_matches_numpy_scalar_loop():
    # The recurrence on Python floats gives the numpy-scalar loop's array
    # bit for bit, NaN markers and signed zeros included, on bands of both
    # types with about 15% exact-zero diagonal entries.
    rng = np.random.default_rng(20261018)
    zeros = 0
    for t in range(500):
        m = int(rng.integers(1, 301))
        if t % 2:
            q, p, r = (rng.integers(-2, 3, n).astype(float) for n in (m, m - 1, m - 1))
        else:
            q, p, r = (rng.standard_normal(n) for n in (m, m - 1, m - 1))
        q[rng.random(m) < 0.15] = 0.0
        if t % 4 >= 2:
            w = BidiagonalMatrix(q=q, r=r)
        else:
            w = TridiagonalMatrix(q=q, p=p, r=r)
        lam = lambda_sequence(w)
        assert lam.tobytes() == explicit_lambda_sequence(w).tobytes()
        zeros += int(np.sum(lam == 0.0))
    assert zeros > 1000


def decade_bands(seed, count):
    """Bands of both types with entries +-10^U(-200, 200), a fifth of them
    exact zeros: the structure elements overflow, underflow and hit the
    zero rules."""
    rng = np.random.default_rng(seed)

    def band(n):
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-200.0, 200.0, n)
        v[rng.random(n) < 0.2] = 0.0
        return v

    for t in range(count):
        m = int(rng.integers(1, 41))
        if t % 3 == 2:
            yield BidiagonalMatrix(q=band(m), r=band(m - 1))
        else:
            yield TridiagonalMatrix(q=band(m), p=band(m - 1), r=band(m - 1))


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_structure_elements_match_scalar_oracles():
    # beta over the whole matrix, the list G of every block bottom, and
    # beta_hat, B_ii and omega of every row of every block are bit-equal to
    # the scalar oracles, NaN markers and perturbed rows included.
    bands = [w for w, _ in degenerate_inputs(13, 150)] + list(decade_bands(14, 150))
    zeros = nans = perturbed_rows = 0
    for w in bands:
        m, qq, pp, rr = padded_bands(w)
        lam = lambda_sequence(w)
        scale = band_scale(w)
        beta, perturbed = beta_sequence(lam, pp, rr, scale)
        qq, pp, rr, lam = qq.tolist(), pp.tolist(), rr.tolist(), lam.tolist()
        for i in range(2, m + 1):
            events: list = []
            ref = oracle._beta(i, qq, pp, rr, lam, scale, EPS1, events)
            assert _bits(beta[i]) == _bits(ref)
            assert perturbed[i] == (events[0][1] if events else 0)
            perturbed_rows += bool(events)
        sweep = _RowSweep(_Bands(w), np.zeros(m))
        g = sweep.g
        for bottom in range(m, 0, -1):
            with np.errstate(over="ignore", invalid="ignore"):
                # the oracle runs on numpy scalars, which warn on overflow
                ref_g = oracle.g_sequence(w, 1, bottom)
            ref_g = {k: float(v) for k, v in ref_g.items()}
            sweep.open_block(bottom)
            for i in range(bottom, 0, -1):
                if i < bottom:
                    sweep.extend(i)
                    events = []
                    ref = oracle._beta_hat(
                        i + 1, qq, pp, rr, ref_g, scale, EPS1, events
                    )
                    value, row = _beta_hat(i + 1, pp, rr, g, scale)
                    assert _bits(value) == _bits(ref)
                    assert row == (events[0][1] if events else 0)
                events = []
                ref = oracle._diag_and_omega(
                    i, qq, pp, rr, lam, ref_g, scale, EPS1, events
                )
                b_ii, omega, label = _diag_and_omega(
                    i, qq, pp, rr, lam[i], lam[i + 1], g[i], g[i - 1], scale
                )
                assert _bits(b_ii, omega) == _bits(*ref)
                assert events == ([(label, i)] if label else [])
            ref_list = [ref_g[k] for k in range(bottom + 1)]
            assert _bits(*g[: bottom + 1]) == _bits(*ref_list)
            # beta_hat of the block is beta of the mirrored leading block
            # J*W*J: G bottom-up as its lam, the bands r and p reversed
            mirrored = (
                np.concatenate(([0.0], np.array(band)[bottom + 1 : 0 : -1]))
                for band in (rr, pp)
            )
            g_up = np.array([math.nan] + g[bottom::-1])
            beta_hat, pert = beta_sequence(g_up, *mirrored, scale)
            for xi in range(2, bottom + 1):
                value, row = _beta_hat(xi, pp, rr, g, scale)
                k = bottom + 2 - xi
                assert _bits(beta_hat[k]) == _bits(value)
                assert (bottom + 1 - pert[k] if pert[k] else 0) == row
            zeros += ref_list.count(0.0)
            nans += sum(math.isnan(v) for v in ref_list)
    assert zeros > 5000 and nans > 5000 and perturbed_rows > 200
