"""The O(m) block-separation sweep against the explicit inverse rows.

Two oracles: ``explicit_minors.inverse_row``, which builds each
block-inverse row over columns 1..l_k from the G sequence of
``explicit_minors.g_sequence``, and ``explicit_solve``, the solve loop that
dotted those rows with y before the sweep replaced it.  The speculative
first-block pass is checked against the scalar loop it stands in for.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ccsolve import tridiagonal
from ccsolve.matrices import BidiagonalMatrix, TridiagonalMatrix, matvec
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import _Bands, _RowSweep, solve_cc_tridiagonal
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
        sweep = _RowSweep(_Bands(w), y)
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
        sweep = _RowSweep(_Bands(w), y)
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


def test_lock_step_left_chains_match_one_column_chains():
    # The left chains of the identity, whose columns run in lock-step as in
    # the pseudo-inverse, against the chains of each unit column on its own:
    # column j of the sums equals the sums for e_j to the bit, and the
    # maxima, which do not depend on y, are the same for every y.  The
    # bidiagonal copies have every beta zero.
    inputs = list(degenerate_inputs(13, 200))
    inputs += [(BidiagonalMatrix(q=w.q, r=w.r), y) for w, y in inputs[:60]]
    columns = 0
    for w, y in inputs:
        m = w.m
        bands = _Bands(w)
        sums, maxes = bands.left_chains(np.eye(m))
        assert len(sums) == len(maxes) == m + 1
        assert bands.left_chains(y)[1].tobytes() == maxes.tobytes()
        for j in range(m):
            e_j = np.zeros(m)
            e_j[j] = 1.0
            col_sums, col_maxes = bands.left_chains(e_j)
            lock = np.array([np.broadcast_to(run, (m,))[j] for run in sums])
            assert lock.tobytes() == col_sums.tobytes()
            assert col_maxes.tobytes() == maxes.tobytes()
            columns += 1
    assert columns > 4_000


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


def catalogued(sid, m):
    """System sid at order m with its own right-hand side; below the
    catalogue's smallest order 3, the leading m-by-m block of order 3."""
    s = generate_system(sid, max(m, 3))
    w, y = s.matrix, s.y
    if m >= 3:
        return w, y
    if isinstance(w, BidiagonalMatrix):
        return BidiagonalMatrix(q=w.q[:m], r=w.r[:m - 1]), y[:m]
    return TridiagonalMatrix(q=w.q[:m], p=w.p[:m - 1], r=w.r[:m - 1]), y[:m]


def pass_inputs():
    for sid in range(1, 11):
        for m in list(range(1, 41)) + [50, 100, 200, 400]:
            w, y = catalogued(sid, m)
            yield w, y
            yield w, np.ones(m)
    yield from degenerate_inputs(0, 1500)
    # seeded random bands, one in four from a few values spread over 400
    # decades, whose inverse rows overflow, and one in eight with such a
    # right-hand side too, whose x overflows where the rows do not
    rng = np.random.default_rng(5150)
    wide = [0.0, 1e-200, 1e200, -1e150, 3.0]
    for t in range(700):
        m = int(rng.integers(1, 160))

        def band(n):
            if t % 4 == 3:
                return rng.choice(wide, n)
            return rng.uniform(-1, 1, n)

        y = rng.choice(wide, m) if t % 8 == 7 else rng.uniform(-1, 1, m)
        q, r = band(m), band(m - 1)
        if t % 2:
            yield BidiagonalMatrix(q=q, r=r), y
        else:
            yield TridiagonalMatrix(q=q, p=band(m - 1), r=r), y


def _fields(sol):
    return (
        sol.x_plus.tobytes(), sol.x_regular.tobytes(), sol.phi.tobytes(),
        sol.partition, repr(sol.rho), repr(sol.bound), sol.flags, sol.events,
    )


@pytest.mark.parametrize(
    "thresholds",
    [{}, {"phi_threshold": 1e-3}, {"growth_threshold": 1e3}, {"growth_threshold": 0.0}],
)
def test_first_block_pass_is_bit_identical_to_the_scalar_loop(monkeypatch, thresholds):
    # Every field of every solve, with the pass and with the pass switched
    # off so that the scalar loop runs every row: x as bytes (signed zeros
    # count), partition, rho, bound, flags and events.  The pass runs at
    # every order here, below its usual minimum too.
    monkeypatch.setattr(tridiagonal, "_PASS_MIN_ROWS", 1)
    inputs = list(pass_inputs())
    for sid in (1, 4, 6, 8, 10):
        s = generate_system(sid, 1500)
        inputs.append((s.matrix, s.y))
    fast = [_fields(solve_cc_tridiagonal(w, y, **thresholds)) for w, y in inputs]
    monkeypatch.setattr(
        tridiagonal, "_first_block", lambda bands, *args: (bands.m, 0.0, None)
    )
    slow = [_fields(solve_cc_tridiagonal(w, y, **thresholds)) for w, y in inputs]
    assert len(fast) == len(slow) == 3_085
    for got, want in zip(fast, slow):
        assert got == want


def test_well_posed_systems_never_reach_the_scalar_rows(monkeypatch):
    # Systems 6-10 at m = 400 are one block with no event; systems 8 and 10
    # carry exact lam zeros every 3rd and 6th row, which the pass takes
    # through its zero rules.
    def row(self, i):
        raise AssertionError(f"scalar row {i}")

    monkeypatch.setattr(_RowSweep, "row", row)
    for sid in (6, 7, 8, 9, 10):
        s = generate_system(sid, 400)
        sol = solve_cc_tridiagonal(s.matrix, s.y)
        assert sol.partition.boundaries == (400,)
    assert np.any(_Bands(generate_system(8, 400).matrix).lam == 0.0)


@pytest.mark.parametrize("sid, per_row", [(6, 400), (1, 455)])
def test_solve_memory_per_row(sid, per_row):
    # tracemalloc peak of one solve at m = 4000, after a warm-up solve:
    # system 6 is one block and runs in the pass, system 1 splits into 3,705
    # blocks and runs mostly in the scalar loop.
    m = 4000
    s = generate_system(sid, m)
    solve_cc_tridiagonal(s.matrix, s.y)
    tracemalloc.start()
    try:
        solve_cc_tridiagonal(s.matrix, s.y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / m <= per_row
