"""Minor-ratio sequences and block-inverse elements for tridiagonal matrices.

These are the building blocks of the block-separation solver: the leading
minor-ratio sequence Lambda, the per-block trailing minor-ratio sequence G,
the structure elements beta/beta_hat/omega, and the explicit rows of each
block inverse (:func:`inverse_row`, the oracle the solver's O(m) sweep is
tested against).  Everything here works on 1-based padded band arrays
(qq[i] = q_i and so on) produced by :func:`padded_bands`; NaN marks an
undefined sequence entry (the entry immediately after an exact zero).

Exact zeros in Lambda/G encode structural rank deficiencies and get
dedicated zero rules; near-zero values are the business of the solver's
separation probes, not of this module.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import EPS1, BidiagonalMatrix, TridiagonalMatrix

__all__ = [
    "g_sequence",
    "lambda_sequence",
]


def padded_bands(w: TridiagonalMatrix | BidiagonalMatrix):
    """1-based padded copies of the bands: (m, qq, pp, rr)."""
    m = w.m
    qq = np.full(m + 2, np.nan)
    qq[1 : m + 1] = w.q
    pp = np.zeros(m + 2)
    if isinstance(w, TridiagonalMatrix):
        pp[2 : m + 1] = w.p
    rr = np.zeros(m + 2)
    rr[2 : m + 1] = w.r
    return m, qq, pp, rr


def band_scale(w: TridiagonalMatrix | BidiagonalMatrix) -> float:
    """max(1, max|p|, max|q|, max|r|), the scale used for zero perturbations."""
    scale = max(1.0, float(np.max(np.abs(w.q))))
    if isinstance(w, TridiagonalMatrix) and w.p.size:
        scale = max(scale, float(np.max(np.abs(w.p))))
    if w.r.size:
        scale = max(scale, float(np.max(np.abs(w.r))))
    return scale


def perturbation_magnitude(scale: float) -> float:
    """Magnitude eps1*scale used to replace a structurally zero quantity."""
    return EPS1 * max(1.0, scale)


def is_exact_zero(value: float) -> bool:
    """True for a defined entry equal to exactly 0.0 (NaN means undefined,
    and compares unequal to everything)."""
    return value == 0.0


def lambda_sequence(c3) -> np.ndarray:
    """Leading minor-ratio sequence as a padded array.

    With all minors nonzero, lam[i+1] equals d_i/d_{i-1}, the ratio of
    consecutive leading principal minors.  The recurrence restarts after a
    zero: lam[i] == 0 makes lam[i+1] undefined (NaN) and lam[i+2] = q_{i+1}.
    Entries outside 2..m+1 are NaN.
    """
    m, qq, pp, rr = padded_bands(c3)
    qq, pp, rr = qq.tolist(), pp.tolist(), rr.tolist()
    lam = [math.nan] * (m + 2)
    lam[2] = qq[1]
    for i in range(2, m + 1):
        li = lam[i]
        if li != li:
            lam[i + 1] = qq[i]
        elif li == 0.0:
            lam[i + 1] = math.nan
        else:
            lam[i + 1] = qq[i] - pp[i] * rr[i] / li
    return np.array(lam)


def fresh_block_g(block_bottom: int, qq) -> dict[int, float]:
    """G sequence holding only the base entries for a block bottom row:
    the sentinel G[bottom] = 1 and G[bottom-1] = q_bottom."""
    return {block_bottom: 1.0, block_bottom - 1: qq[block_bottom]}


def extend_g(g: dict[int, float], i: int, qq, pp, rr):
    """Add G[i-1], computed from G[i], to a block-local sequence.

    Mirrors the lambda recurrence on trailing minors: with nonzero entries,
    G[i-1] = q_i - r_{i+1}*p_{i+1}/G[i]; a zero G[i] makes G[i-1] undefined
    and the following entry restarts from the diagonal.
    """
    gi = g[i]
    if math.isnan(gi):
        g[i - 1] = qq[i]
    elif gi == 0.0:
        g[i - 1] = np.nan
    else:
        g[i - 1] = qq[i] - rr[i + 1] * pp[i + 1] / gi


def g_sequence(c3, block_top: int, block_bottom: int) -> dict[int, float]:
    """Trailing minor-ratio sequence of the block rows block_top..block_bottom.

    Returns a dict keyed by paper index with entries G[bottom] = 1
    (sentinel), G[bottom-1] = q_bottom, down to G[top-1]; with all trailing
    principal minors e_i of the block nonzero, G[i] = e_{i+1}/e_{i+2}.
    """
    m, qq, pp, rr = padded_bands(c3)
    if not 1 <= block_top <= block_bottom <= m:
        raise ValueError("block bounds must satisfy 1 <= top <= bottom <= m")
    g = fresh_block_g(block_bottom, qq)
    for i in range(block_bottom - 1, block_top - 1, -1):
        extend_g(g, i, qq, pp, rr)
    return g


def _omega_zero_lambda(i, qq, pp, rr, scale, eps1, events):
    """Off-diagonal scale of row i when lam[i] == 0: (-p_i*r_i)^-1, with the
    exactly-zero denominator replaced by -eps1*scale."""
    d = -pp[i] * rr[i]
    if d == 0.0:
        d = -(eps1 * scale)
        events.append(("perturbed-zero", i))
    return 1.0 / d


def _omega_zero_g(i, qq, pp, rr, scale, eps1, events):
    """Off-diagonal scale of row i when G[i] == 0: (-r_{i+1}*p_{i+1})^-1,
    with the exactly-zero denominator replaced by -eps1*scale."""
    d = -rr[i + 1] * pp[i + 1]
    if d == 0.0:
        d = -(eps1 * scale)
        events.append(("perturbed-zero", i))
    return 1.0 / d


def _diag_and_omega(i, qq, pp, rr, lam, g, scale, eps1, events):
    """Diagonal entry B_ii and off-diagonal scale omega_i of row i.

    Three cases: lam[i] == 0 and G[i] == 0 zero the diagonal and take omega
    from the adjacent band products; otherwise B_ii = omega_i =
    (lam[i+1] + G[i-1] - q_i)^-1, truncated to zero when that denominator
    vanishes exactly (the determinant through row i is zero).
    """
    if is_exact_zero(lam[i]):
        return 0.0, _omega_zero_lambda(i, qq, pp, rr, scale, eps1, events)
    if is_exact_zero(g[i]):
        return 0.0, _omega_zero_g(i, qq, pp, rr, scale, eps1, events)
    den = lam[i + 1] + g[i - 1] - qq[i]
    if den == 0.0:
        events.append(("truncated-diagonal", i))
        return 0.0, 0.0
    b_ii = 1.0 / den
    return b_ii, b_ii


def _beta(xi, qq, pp, rr, lam, scale, eps1, events):
    """Left structure element beta_xi (sub-diagonal direction)."""
    if xi >= 2 and is_exact_zero(lam[xi - 1]):
        return -pp[xi] * _omega_zero_lambda(xi - 1, qq, pp, rr, scale, eps1, events)
    if is_exact_zero(lam[xi]):
        return -pp[xi]
    return -pp[xi] / lam[xi]


def _beta_hat(xi, qq, pp, rr, g, scale, eps1, events):
    """Right structure element beta_hat_xi (super-diagonal direction)."""
    g_prev = g.get(xi - 1, np.nan)
    g_xi = g.get(xi, np.nan)
    if is_exact_zero(g_xi):
        return -rr[xi] * _omega_zero_g(xi, qq, pp, rr, scale, eps1, events)
    if is_exact_zero(g_prev):
        return -rr[xi]
    return -rr[xi] / g_prev


def inverse_row(i, bottom, qq, pp, rr, lam, g, scale, eps1, events) -> np.ndarray:
    """Row i of the block inverse over columns 1..bottom (padded, 1-based).

    The diagonal follows the three-case rule of :func:`_diag_and_omega`; the
    off-diagonal entries are telescoping products of structure elements,
    accumulated incrementally, with zero rules: a zero lam[xi] zeroes column
    xi below the diagonal, a zero G[xi] zeroes column xi above the diagonal,
    a zero lam[i] zeroes the right part of row i, and a zero G[i] zeroes the
    left part.  Products short-circuit once the running value is exactly 0.
    """
    row = np.zeros(bottom + 1)
    b_ii, omega = _diag_and_omega(i, qq, pp, rr, lam, g, scale, eps1, events)
    row[i] = b_ii
    if not is_exact_zero(lam[i]):
        run = omega
        for xi in range(i + 1, bottom + 1):
            run = run * _beta_hat(xi, qq, pp, rr, g, scale, eps1, events)
            row[xi] = 0.0 if is_exact_zero(g.get(xi, np.nan)) else run
            if run == 0.0:
                break
    if not is_exact_zero(g[i]):
        run = omega
        for xi in range(i - 1, 0, -1):
            run = run * _beta(xi + 1, qq, pp, rr, lam, scale, eps1, events)
            row[xi] = 0.0 if is_exact_zero(lam[xi]) else run
            if run == 0.0:
                break
    return row
