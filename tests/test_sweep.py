"""The O(m) block-separation sweep against the explicit inverse rows.

Two oracles: ``explicit_minors.inverse_row``, which builds each
block-inverse row over columns 1..l_k from the G sequence of
``explicit_minors.g_sequence``, and ``explicit_solve``, the solve loop that
dotted those rows with y before the sweep replaced it.
"""

import math

import numpy as np
import pytest

from ccsolve.matrices import TridiagonalMatrix, matvec
from ccsolve.tridiagonal import _RowSweep, solve_cc_tridiagonal
from explicit_minors import fresh_block_g, g_sequence, inverse_row
from explicit_solve import explicit_solve_cc_tridiagonal

EPS1 = 2.0 ** -52


def integer_tridiagonal(rng, m, hi):
    """Tridiagonal with entries drawn from -hi..hi: exact zeros in lam and G
    are common, and so are perturbed structure elements."""
    def band(n):
        return rng.integers(-hi, hi + 1, n).astype(float)
    return TridiagonalMatrix(q=band(m), p=band(m - 1), r=band(m - 1)), band(m)


def degenerate_inputs(seed, count):
    rng = np.random.default_rng(seed)
    for t in range(count):
        m = int(rng.integers(1, 41))
        yield integer_tridiagonal(rng, m, 1 if t % 2 == 0 else 2)


def _close(new, old, scale, m):
    """|new - old| within the rounding of two (m+2)-term evaluations of the
    same sum whose absolute terms add up to scale."""
    return abs(new - old) <= 4 * (m + 2) * EPS1 * scale


def _explicit_row_check(sweep, i, y, g):
    """Compare sweep.row(i) with inverse_row over the same lam and the
    oracle G of the block [.., bottom]."""
    m, bottom, lam = len(y), sweep.bottom, sweep.lam
    x_i, corner, rho_i, events, degenerate = sweep.row(i)
    ref_events: list = []
    row = inverse_row(i, bottom, sweep.qq, sweep.pp, sweep.rr, lam, g,
                      sweep.scale, EPS1, ref_events)
    terms = row[1:bottom + 1] * y[:bottom]
    ref_degenerate = bool(ref_events) or lam[i] == 0.0 or g[i] == 0.0
    assert degenerate == ref_degenerate
    assert {e[0] for e in events} == {e[0] for e in ref_events}
    assert set(events) <= set(ref_events)
    finite = math.isfinite(x_i) and math.isfinite(rho_i)
    assert finite == bool(np.all(np.isfinite(row)) and np.isfinite(terms.sum()))
    if finite:
        assert _close(x_i, float(terms.sum()), float(np.abs(terms).sum()), m)
        assert _close(corner, row[bottom], abs(row[bottom]), m)
        assert _close(rho_i, float(np.max(np.abs(row))), float(np.max(np.abs(row))), m)


def test_rows_match_explicit_inverse_rows():
    # Every row of every block [top..bottom] of 150 degenerate tridiagonals:
    # the chains give the explicit row's product with y, its column-l_k
    # entry, its largest entry, its events and its degenerate verdict.
    rows = 0
    for w, y in degenerate_inputs(11, 150):
        m = w.m
        sweep = _RowSweep(w, y)
        for bottom in range(m, 0, -1):
            g = g_sequence(w, 1, bottom)
            sweep.open_block(bottom)
            for i in range(bottom, 0, -1):
                if i < bottom:
                    sweep.extend(i)
                _explicit_row_check(sweep, i, y, g)
                rows += 1
    assert rows > 30_000


def test_severed_rows_match_explicit_recipe():
    # The severed-bottom row against the explicit recipe: a full copy of lam
    # with lam[j] = 1, a fresh G and inverse_row over the one-row block.
    checked = 0
    for w, y in degenerate_inputs(12, 300):
        sweep = _RowSweep(w, y)
        qq, pp, rr = sweep.qq, sweep.pp, sweep.rr
        for j in range(1, w.m + 1):
            lam_j = sweep.lam[j]
            if math.isnan(lam_j) or lam_j == 0.0:
                lam_j = EPS1 * sweep.scale
            x_j, b_jj, rho_j = sweep.severed_row(j, lam_j)
            lam_local = list(sweep.lam)
            lam_local[j] = 1.0
            lam_local[j + 1] = qq[j] - pp[j] * rr[j] / lam_j
            row = inverse_row(j, j, qq, pp, rr, lam_local, fresh_block_g(j, qq),
                              sweep.scale, EPS1, [])
            terms = row[1:j + 1] * y[:j]
            if not (np.all(np.isfinite(row)) and np.isfinite(terms.sum())):
                assert not (math.isfinite(x_j) and math.isfinite(rho_j))
                continue
            assert b_jj == row[j]
            assert _close(x_j, float(terms.sum()), float(np.abs(terms).sum()), w.m)
            row_max = float(np.max(np.abs(row)))
            assert _close(rho_j, row_max, row_max, w.m)
            checked += 1
    assert checked > 5_000


def _within_bound(w, y, sol):
    if not np.all(np.isfinite(sol.x_plus)):
        return False
    return float(np.max(np.abs(matvec(w, sol.x_plus) - y))) <= sol.bound.bound_value


def _signature(sol):
    return (sol.partition.boundaries, sol.flags, {label for label, _ in sol.events})


def test_degenerate_solves_match_explicit_loop():
    # 1,500 tridiagonals with entries in -1..1 or -2..2.  Where no zero is
    # perturbed, every decision matches the explicit loop.  A perturbed zero
    # puts entries of order 1/eps1 in the rows, and the probes then compare
    # x values that cancel to rounding noise at that scale, so the two
    # roundings can split differently; the shares below bound how often.
    n = 1500
    unperturbed = partitions = flags = kinds = worse = 0
    for w, y in degenerate_inputs(0, n):
        ref = explicit_solve_cc_tridiagonal(w, y)
        sol = solve_cc_tridiagonal(w, y)
        if not (ref.flags.perturbed_singular or sol.flags.perturbed_singular):
            unperturbed += 1
            assert _signature(sol) == _signature(ref)
        partitions += sol.partition == ref.partition
        flags += sol.flags == ref.flags
        kinds += _signature(sol)[2] == _signature(ref)[2]
        worse += _within_bound(w, y, ref) and not _within_bound(w, y, sol)
    assert unperturbed >= 300
    assert partitions >= 0.9 * n
    assert flags >= 0.99 * n
    assert kinds >= 0.98 * n
    assert worse <= 0.005 * n


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 20, 50, 100, 200, 400])
def test_well_posed_solves_match_explicit_loop(m):
    rng = np.random.default_rng(1000 + m)
    w = TridiagonalMatrix(q=rng.uniform(-1, 1, m), p=rng.uniform(-1, 1, m - 1),
                          r=rng.uniform(-1, 1, m - 1))
    y = rng.uniform(-1, 1, m)
    ref = explicit_solve_cc_tridiagonal(w, y)
    sol = solve_cc_tridiagonal(w, y)
    assert sol.partition == ref.partition
    assert sol.flags == ref.flags
    scale = np.max(np.abs(ref.x_plus))
    assert np.max(np.abs(sol.x_plus - ref.x_plus)) <= 1e-12 * scale
    assert abs(sol.rho - ref.rho) <= 1e-12 * ref.rho


def test_large_dominant_system_solves_in_one_block():
    # m = 2*10**4 is far beyond what the explicit O(m^2) rows could reach in
    # a test; the sweep takes well under a second.
    m = 20_000
    rng = np.random.default_rng(2024)
    p = rng.uniform(-1, 1, m - 1)
    r = rng.uniform(-1, 1, m - 1)
    q = rng.uniform(2.5, 3.5, m) * rng.choice([-1.0, 1.0], m)
    w = TridiagonalMatrix(q=q, p=p, r=r)
    y = rng.standard_normal(m)
    sol = solve_cc_tridiagonal(w, y)
    assert sol.partition.boundaries == (m,)
    residual = np.max(np.abs(matvec(w, sol.x_plus) - y))
    assert residual <= 1e-13 * np.max(np.abs(y))
