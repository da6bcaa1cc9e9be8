"""Explicit block-inverse rows, the oracle the O(m) sweep is tested against.

``inverse_row`` builds row i of a block inverse over columns 1..l_k from the
structure elements beta/beta_hat/omega, with the trailing minor-ratio
sequence G of ``g_sequence`` held in a dict keyed by paper index.  This is
the scalar machinery that lived in ``ccsolve.minors`` before the sweep took
over, kept verbatim: every helper still takes the ``eps1`` of the
perturbation and appends its events to a list.  None of this is part of the
package.
"""

from __future__ import annotations

import math

import numpy as np

from ccsolve.matrices import band_maxima
from ccsolve.minors import padded_bands


def band_scale(w) -> float:
    """max(1, max|p|, max|q|, max|r|), the scale used for zero perturbations."""
    _, max_q, max_p, max_r = band_maxima(w)
    return max(1.0, max_q, max_p, max_r)


def is_exact_zero(value: float) -> bool:
    """True for a defined entry equal to exactly 0.0 (NaN means undefined,
    and compares unequal to everything)."""
    return value == 0.0


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
