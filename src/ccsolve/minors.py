"""Minor-ratio sequences and structure elements for tridiagonal matrices.

What the block-separation sweep reads: the leading minor-ratio sequence
Lambda, the block-local trailing minor-ratio sequence G, and the structure
elements beta/beta_hat/omega of the block inverse rows (the explicit rows,
the oracle of the sweep, live in ``tests/explicit_minors.py``).  Everything
works on 1-based padded bands (qq[i] = q_i and so on, :func:`padded_bands`);
NaN marks an undefined sequence entry (the entry after an exact zero).

Exact zeros in Lambda/G encode structural rank deficiencies and get
dedicated zero rules; an exactly-zero denominator is replaced by
-eps1*scale, and the element reports the row it perturbed (0 for none).
Near-zero values are the business of the solver's separation probes.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .matrices import EPS1, _BANDED, BidiagonalMatrix, TridiagonalMatrix, _require

__all__ = [
    "lambda_sequence",
]


def padded_bands(w: TridiagonalMatrix | BidiagonalMatrix):
    """1-based padded copies of the bands: (m, qq, pp, rr)."""
    m = _require(w, _BANDED).m
    qq = np.full(m + 2, np.nan)
    qq[1 : m + 1] = w.q
    pp = np.zeros(m + 2)
    pp[2 : m + 1] = w.p
    rr = np.zeros(m + 2)
    rr[2 : m + 1] = w.r
    return m, qq, pp, rr


def perturbation_magnitude(scale: float) -> float:
    """Magnitude eps1*scale used to replace a structurally zero quantity."""
    return EPS1 * max(1.0, scale)


def lambda_sequence(c3) -> np.ndarray:
    """Leading minor-ratio sequence as a padded array.

    With all minors nonzero, lam[i+1] equals d_i/d_{i-1}, the ratio of
    consecutive leading principal minors.  The recurrence restarts after a
    zero: lam[i] == 0 makes lam[i+1] undefined (NaN) and lam[i+2] = q_{i+1}.
    Entries outside 2..m+1 are NaN.
    """
    _, qq, pp, rr = padded_bands(c3)
    return lambda_values(qq, band_products(pp, rr))


def band_products(pp: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """prod[i] = p_i*r_i of the padded bands.  An overflow to inf is data,
    as it is in the scalar arithmetic of the recurrences."""
    with np.errstate(over="ignore"):
        return pp * rr


def lambda_values(qq: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """:func:`lambda_sequence` from the padded diagonal qq and the padded
    band products prod[i] = p_i*r_i (:func:`band_products`)."""
    m = qq.size - 2
    lam = array("d", [math.nan, math.nan])
    minor_ratios(lam, float(qq[1]), qq[2 : m + 1], prod[2 : m + 1])
    return np.frombuffer(lam)


def minor_ratios(out: array, x: float, qq: np.ndarray, prod: np.ndarray) -> array:
    """Append x and the minor ratios that follow it to out, an array('d'):
    x' = q - pr/x over the paired entries of qq and prod, in their order.
    A zero x makes x' undefined (NaN), and the entry after a NaN restarts
    from q.  The leading sequence lam runs it over the bands top-down, a
    block's trailing sequence G (see :func:`extend_g`) over them bottom-up.
    """
    out.append(x)
    for q, pr in zip(memoryview(qq), memoryview(prod)):
        if x != x:
            x = q
        elif x == 0.0:
            x = math.nan
        else:
            x = q - pr / x
        out.append(x)
    return out


def extend_g(g: list[float], i: int, qq, prod):
    """Set G[i-1] from G[i] in g, a block's G as a list by paper row.

    Mirrors the lambda recurrence on trailing minors: with nonzero entries,
    G[i-1] = q_i - r_{i+1}*p_{i+1}/G[i] (prod[i+1] = p_{i+1}*r_{i+1}); a
    zero G[i] makes G[i-1] undefined and the following entry restarts from
    the diagonal.
    """
    gi = g[i]
    if gi != gi:
        g[i - 1] = qq[i]
    elif gi == 0.0:
        g[i - 1] = math.nan
    else:
        g[i - 1] = qq[i] - prod[i + 1] / gi


def _omega_zero(d: float, i: int, scale: float) -> tuple[float, int]:
    """Off-diagonal scale d^-1 of row i where lam[i] or G[i] is exactly zero,
    with the band product d; an exactly-zero d is replaced by -eps1*scale.
    Returns (omega_i, perturbed row), the row being i or 0 for none."""
    if d == 0.0:
        return 1.0 / -perturbation_magnitude(scale), i
    return 1.0 / d, 0


def beta_sequence(lam, pp, rr, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Left structure elements beta_i (sub-diagonal direction) of rows 2..m,
    and the row each one perturbed, as arrays indexed by paper row.

    beta_i = -p_i/lam[i]; a zero lam[i] gives -p_i, and a zero lam[i-1]
    gives -p_i*omega_{i-1} with omega_{i-1} = (-p_{i-1}*r_{i-1})^-1.  lam
    depends on the matrix alone, so one pass serves every block.  On the
    mirrored matrix J*W*J (J the exchange matrix: lam is G bottom-up, the
    bands are r and p reversed) beta_{m+2-xi} is beta_hat_xi (:func:`_beta_hat`).
    """
    m = lam.size - 2
    beta = np.zeros(m + 1)
    perturbed = np.zeros(m + 1, dtype=np.int64)
    lam_i = lam[2 : m + 1]
    # Overflow and inf*0 are data here, as in the scalar arithmetic of the
    # sweep; the zero rules keep every exact zero out of the divisions.
    with np.errstate(over="ignore", invalid="ignore"):
        np.negative(pp[2 : m + 1], out=beta[2:])
        np.divide(beta[2:], lam_i, out=beta[2:], where=lam_i != 0.0)
        above = np.flatnonzero(lam[1:m] == 0.0) + 1  # rows i-1 with lam 0
        if above.size:
            d = -pp[above] * rr[above]
            pert = d == 0.0
            d[pert] = -perturbation_magnitude(scale)
            beta[above + 1] = -pp[above + 1] * (1.0 / d)
            perturbed[above[pert] + 1] = above[pert]
    return beta, perturbed


def _beta_hat(xi, pp, rr, g, scale) -> tuple[float, int]:
    """Right structure element beta_hat_xi (super-diagonal direction) and
    the row it perturbed (0 for none): -r_xi/G[xi-1], with the zero rules
    -r_xi*omega_xi for G[xi] == 0 and -r_xi for G[xi-1] == 0."""
    g_prev = g[xi - 1]
    if g[xi] == 0.0:
        omega, pert = _omega_zero(-rr[xi + 1] * pp[xi + 1], xi, scale)
        return -rr[xi] * omega, pert
    if g_prev == 0.0:
        return -rr[xi], 0
    return -rr[xi] / g_prev, 0


def _diag_and_omega(i, qq, pp, rr, lam_i, lam_next, g_i, g_prev, scale):
    """Diagonal entry B_ii, off-diagonal scale omega_i and event label (None
    for a routine row) of row i, from lam[i], lam[i+1], G[i] and G[i-1].

    Three cases: lam[i] == 0 and G[i] == 0 zero the diagonal and take omega
    from the adjacent band product ("perturbed-zero" if that is exactly
    zero); otherwise B_ii = omega_i = (lam[i+1] + G[i-1] - q_i)^-1,
    truncated to zero when that denominator vanishes exactly (the
    determinant through row i is zero; "truncated-diagonal").
    """
    if lam_i == 0.0 or g_i == 0.0:
        d = -pp[i] * rr[i] if lam_i == 0.0 else -rr[i + 1] * pp[i + 1]
        omega, pert = _omega_zero(d, i, scale)
        return 0.0, omega, "perturbed-zero" if pert else None
    den = lam_next + g_prev - qq[i]
    if den == 0.0:
        return 0.0, 0.0, "truncated-diagonal"
    b_ii = 1.0 / den
    return b_ii, b_ii, None
