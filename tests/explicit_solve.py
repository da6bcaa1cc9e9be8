"""Reference for the O(m) sweep: the explicit inverse-row solve loop.

This is the block-separation loop as it stood before the sweep replaced it,
kept verbatim apart from its name, its docstring and the fixed float64
precision (EPS1 in place of a precision argument).  The equivalence tests
compare ``solve_cc_tridiagonal`` against it; it is not part of the package.
"""

from __future__ import annotations

import numpy as np

from ccsolve.matrices import EPS1, TridiagonalMatrix
from ccsolve.minors import (
    band_scale,
    extend_g,
    fresh_block_g,
    inverse_row,
    is_exact_zero,
    lambda_sequence,
    padded_bands,
    perturbation_magnitude,
)
from ccsolve.tridiagonal import (
    BlockPartition,
    CCSolution,
    SolveFlags,
    _build_bound,
    probe_discrepancy,
    rounding_budget,
)


def explicit_solve_cc_tridiagonal(
    c3: TridiagonalMatrix,
    y,
    *,
    phi_threshold: float | None = None,
    growth_threshold: float | None = None,
) -> CCSolution:
    """Block-separation solve that builds every inverse row explicitly
    over columns 1..l_k with inverse_row and dots it with y: O(m*w) time."""
    m, qq, pp, rr = padded_bands(c3)
    yv = np.full(m + 1, np.nan)
    yv[1:] = np.asarray(y, dtype=float)
    if yv[1:].size != m:
        raise ValueError(f"y must have length {m}")
    if not np.all(np.isfinite(yv[1:])):
        raise ValueError("y must contain only finite values")
    eps1 = EPS1
    phi_thr = (
        2.0 * float(np.sqrt(eps1)) if phi_threshold is None else float(phi_threshold)
    )
    growth_thr = 1.0 / eps1 if growth_threshold is None else float(growth_threshold)
    lam = lambda_sequence(c3)
    scale = band_scale(c3)

    x_plus = np.full(m + 1, np.nan)
    x_reg = np.full(m + 1, np.nan)
    phi_v = np.full(m + 1, np.nan)
    boundaries: list[int] = []
    events: list = []
    rho = 0.0
    degenerate: set[int] = set()
    severed: set[int] = set()

    k = 0
    i = m
    new_block = True
    g: dict[int, float] = {}
    cand = np.zeros(m + 2)
    lk = m

    def compute_row(row_i, bottom, g_use, lam_use):
        row_events: list = []
        row = inverse_row(
            row_i, bottom, qq, pp, rr, lam_use, g_use, scale, eps1, row_events
        )
        return row, row_events

    while i >= 1:
        if new_block:
            lk = i
            boundaries.append(lk)
            k += 1
            g = fresh_block_g(lk, qq)
            cand = np.zeros(m + 2)
            new_block = False
        else:
            extend_g(g, i, qq, pp, rr)

        row, row_events = compute_row(i, lk, g, lam)
        events.extend(row_events)
        if row_events or is_exact_zero(lam[i]) or is_exact_zero(g[i]):
            degenerate.add(i)
        x_i = float(row[1 : lk + 1] @ yv[1 : lk + 1])
        phi_i = 0.0 if k == 1 else float(-row[lk] * rr[lk + 1] * x_plus[lk + 1])

        if not (np.isfinite(x_i) and np.isfinite(phi_i)):
            if i == lk:
                x_i, phi_i, row = 0.0, 0.0, np.zeros(lk + 1)
                events.append(("nonfinite-truncated", i))
            else:
                new_block = True
                events.append(("nonfinite-split", i))
                continue

        if i != lk:
            if abs(phi_i) >= growth_thr:
                new_block = True
                events.append(("growth-split", i))
                continue
            j = i + 1
            x_below = cand[j + 1] if j + 1 <= lk else 0.0
            row_value = pp[j] * x_i + qq[j] * cand[j] + rr[j + 1] * x_below
            discrepancy = probe_discrepancy(yv[j], row_value)
            if abs(discrepancy) > phi_thr:
                if j == lk and j in degenerate and j not in severed:
                    # The block bottom is structurally degenerate and its own
                    # equation cannot be met: re-derive it with the coupling
                    # from below folded in through a severed local sequence.
                    severed.add(j)
                    lam_local = lam.copy()
                    lam_j = lam[j]
                    if np.isnan(lam_j) or lam_j == 0.0:
                        lam_j = perturbation_magnitude(scale)
                        events.append(("perturbed-zero", j))
                    lam_local[j] = 1.0
                    lam_local[j + 1] = qq[j] - pp[j] * rr[j] / lam_j
                    g_local = fresh_block_g(j, qq)
                    row_2, _ = compute_row(j, lk, g_local, lam_local)
                    x_j = float(row_2[1 : lk + 1] @ yv[1 : lk + 1])
                    phi_j = (
                        0.0
                        if k == 1
                        else float(-row_2[lk] * rr[lk + 1] * x_plus[lk + 1])
                    )
                    if np.isfinite(x_j) and np.isfinite(phi_j):
                        cand[j] = x_j
                        x_reg[j] = x_j
                        phi_v[j] = phi_j
                        x_plus[j] = x_j + phi_j
                        rho = max(rho, float(np.max(np.abs(row_2))))
                        events.append(("severed-bottom", j))
                new_block = True
                events.append(("probe-split", i))
                continue

        cand[i] = x_i
        rho = max(rho, float(np.max(np.abs(row))))
        x_reg[i] = x_i
        phi_v[i] = phi_i
        x_plus[i] = x_i + phi_i
        if i == 1:
            # The probes above validated rows 2..m; check the first row's own
            # equation, splitting once if the block can still be shortened.
            x_2 = cand[2] if lk >= 2 else 0.0
            row_value = qq[1] * cand[1] + rr[2] * x_2
            discrepancy = probe_discrepancy(yv[1], row_value)
            if abs(discrepancy) > phi_thr and lk > 1:
                events.append(("top-row-split", 1))
                new_block = True
                continue
            if abs(discrepancy) > phi_thr:
                events.append(("top-row-unresolved", 1))
        i -= 1

    partition = BlockPartition(tuple(boundaries))
    flags = SolveFlags(
        perturbed_singular=any(e[0] == "perturbed-zero" for e in events),
        truncated_zero=any(
            e[0] in ("truncated-diagonal", "nonfinite-truncated") for e in events
        ),
        unresolved_top_row=any(e[0] == "top-row-unresolved" for e in events),
    )
    max_y = float(np.max(np.abs(yv[1:])))
    bound = _build_bound(
        c3, partition, rho, max_y, x_plus[1:], rounding_budget(c3, y)
    )
    return CCSolution(
        x_plus=x_plus[1:],
        x_regular=x_reg[1:],
        phi=phi_v[1:],
        partition=partition,
        rho=rho,
        bound=bound,
        flags=flags,
        events=events,
    )
