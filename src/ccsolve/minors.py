"""Minor-ratio sequences and block-inverse elements for tridiagonal matrices.

These are the building blocks of the block-separation solver: the leading
minor-ratio sequence Lambda, the per-block trailing minor-ratio sequence G,
the structure elements beta/beta_hat/omega, and the explicit rows of each
block inverse.  Everything here works on 1-based padded band arrays
(qq[i] = q_i and so on) produced by :func:`padded_bands`; NaN marks an
undefined sequence entry (the entry immediately after an exact zero).

Exact zeros in Lambda/G encode structural rank deficiencies and get
dedicated zero rules; near-zero values are the business of the solver's
separation probes, not of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    BidiagonalMatrix,
    DEFAULT_PRECISION,
    Precision,
    TridiagonalMatrix,
)

__all__ = [
    "BlockInverse",
    "RegularizedBlocks",
    "StructureElements",
    "block_inverse",
    "coupled_diagonal",
    "g_sequence",
    "lambda_sequence",
    "regularized_blocks",
    "structure_elements",
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


def perturbation_magnitude(scale: float, prec: Precision = DEFAULT_PRECISION) -> float:
    """Magnitude eps1*scale used to replace a structurally zero quantity."""
    return prec.eps1 * max(1.0, scale)


def is_exact_zero(value: float) -> bool:
    """True for a defined entry equal to exactly 0.0 (NaN means undefined,
    and compares unequal to everything)."""
    return value == 0.0


def lambda_sequence(c3, start_row: int = 1) -> np.ndarray:
    """Leading minor-ratio sequence as a padded array.

    With all minors nonzero, lam[i+1] equals d_i/d_{i-1}, the ratio of
    consecutive leading principal minors.  The recurrence restarts after a
    zero: lam[i] == 0 makes lam[i+1] undefined (NaN) and lam[i+2] = q_{i+1}.
    Entries outside start_row+1..m+1 are NaN.
    """
    m, qq, pp, rr = padded_bands(c3)
    if not 1 <= start_row <= m:
        raise ValueError(f"start_row must be in 1..{m}, got {start_row}")
    lam = np.full(m + 2, np.nan)
    lam[start_row + 1] = qq[start_row]
    for i in range(start_row + 1, m + 1):
        if np.isnan(lam[i]):
            lam[i + 1] = qq[i]
        elif lam[i] == 0.0:
            lam[i + 1] = np.nan
        else:
            lam[i + 1] = qq[i] - pp[i] * rr[i] / lam[i]
    return lam


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
    if np.isnan(gi):
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


@dataclass
class StructureElements:
    """Structure elements of one block: beta/beta_hat/omega and the diagonal
    entries, as padded arrays indexed by paper row/column index."""

    block_top: int
    block_bottom: int
    beta: np.ndarray
    beta_hat: np.ndarray
    omega: np.ndarray
    diag: np.ndarray


def structure_elements(
    c3,
    lam: np.ndarray,
    g: dict[int, float],
    block_top: int,
    block_bottom: int,
    prec: Precision = DEFAULT_PRECISION,
) -> StructureElements:
    """Structure elements for the block rows block_top..block_bottom.

    beta[xi] is defined for xi = 2..block_bottom (it reaches left across
    earlier blocks), beta_hat[xi] and omega/diag for the block rows.
    """
    m, qq, pp, rr = padded_bands(c3)
    scale = band_scale(c3)
    events: list = []
    beta = np.full(m + 2, np.nan)
    beta_hat = np.full(m + 2, np.nan)
    omega = np.full(m + 2, np.nan)
    diag = np.full(m + 2, np.nan)
    for xi in range(2, block_bottom + 1):
        beta[xi] = _beta(xi, qq, pp, rr, lam, scale, prec.eps1, events)
    for xi in range(block_top, block_bottom + 1):
        beta_hat[xi] = _beta_hat(xi, qq, pp, rr, g, scale, prec.eps1, events)
    for i in range(block_top, block_bottom + 1):
        diag[i], omega[i] = _diag_and_omega(
            i, qq, pp, rr, lam, g, scale, prec.eps1, events
        )
    return StructureElements(block_top, block_bottom, beta, beta_hat, omega, diag)


@dataclass
class BlockInverse:
    """Inverse rows of one block: rows block_top..block_bottom over columns
    1..block_bottom, stored densely, with the largest magnitude seen."""

    block_top: int
    block_bottom: int
    values: np.ndarray
    max_abs: float
    events: list = field(default_factory=list)

    def row(self, i: int) -> np.ndarray:
        """Row i as a plain array over columns 1..block_bottom."""
        return self.values[i - self.block_top]


def block_inverse(
    c3,
    block_top: int,
    block_bottom: int,
    lam: np.ndarray | None = None,
    prec: Precision = DEFAULT_PRECISION,
) -> BlockInverse:
    """All inverse rows of the block rows block_top..block_bottom.

    lam defaults to the global lambda_sequence of c3; passing it in lets
    callers share one sequence across blocks.
    """
    m, qq, pp, rr = padded_bands(c3)
    if not 1 <= block_top <= block_bottom <= m:
        raise ValueError("block bounds must satisfy 1 <= top <= bottom <= m")
    if lam is None:
        lam = lambda_sequence(c3)
    g = g_sequence(c3, block_top, block_bottom)
    scale = band_scale(c3)
    events: list = []
    rows = np.zeros((block_bottom - block_top + 1, block_bottom))
    for i in range(block_top, block_bottom + 1):
        padded = inverse_row(
            i, block_bottom, qq, pp, rr, lam, g, scale, prec.eps1, events
        )
        rows[i - block_top] = padded[1:]
    if not np.all(np.isfinite(rows)):
        raise FloatingPointError(
            "non-finite block-inverse element; the block must be re-partitioned"
        )
    max_abs = float(np.max(np.abs(rows))) if rows.size else 0.0
    return BlockInverse(block_top, block_bottom, rows, max_abs, events)


def coupled_diagonal(q_next: float, p_next: float, r_next: float, last_diag: float) -> float:
    """Replacement diagonal entry for the first row of a block, folding in
    the inverse last diagonal of the block above: q - p*last_diag*r."""
    return q_next - p_next * last_diag * r_next


@dataclass
class RegularizedBlocks:
    """A full partition with its per-block inverses and the explicit coupled
    diagonals (one per block boundary, keyed by the row they replace)."""

    boundaries: tuple[int, ...]
    coupled: dict[int, float]
    blocks: list[BlockInverse]

    @property
    def n(self) -> int:
        return len(self.boundaries)

    @property
    def max_abs(self) -> float:
        return max((b.max_abs for b in self.blocks), default=0.0)


def regularized_blocks(
    c3, boundaries, prec: Precision = DEFAULT_PRECISION
) -> RegularizedBlocks:
    """Block inverses and coupled diagonals for a given partition.

    boundaries is the decreasing sequence l_1 = m > l_2 > ... > l_n >= 1;
    block k spans rows l_{k+1}+1..l_k.  Blocks are built topmost first so
    each coupled diagonal can be reported from the block above, and are
    returned in partition order (bottom block first).
    """
    m, qq, pp, rr = padded_bands(c3)
    bounds = tuple(int(b) for b in boundaries)
    if not bounds or bounds[0] != m or bounds[-1] < 1:
        raise ValueError("boundaries must run from m down to at least 1")
    if any(a <= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be strictly decreasing")
    lam = lambda_sequence(c3)
    n = len(bounds)
    spans = []
    for k in range(n):
        bottom = bounds[k]
        top = (bounds[k + 1] + 1) if k + 1 < n else 1
        spans.append((top, bottom))
    blocks = [block_inverse(c3, top, bottom, lam, prec) for top, bottom in spans]
    # coupled diagonals: block k's first row folds in block k+1's last diagonal
    coupled: dict[int, float] = {}
    for k in range(n - 1):
        top, _ = spans[k]
        below_bottom = bounds[k + 1]
        last_diag = blocks[k + 1].row(below_bottom)[below_bottom - 1]
        coupled[top] = coupled_diagonal(qq[top], pp[top], rr[top], last_diag)
    return RegularizedBlocks(bounds, coupled, blocks)
