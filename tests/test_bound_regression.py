"""The a-priori residual bound on the band systems across orders 3..258."""

import numpy as np
import pytest

from ccsolve.matrices import TridiagonalMatrix, matvec
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import solve_cc_tridiagonal

ORDERS = range(3, 261, 3)


def _within_bound(w, y):
    """Whether the solve of W x = y meets its residual bound; a non-finite
    x_plus (which matvec rejects) counts as a violation."""
    sol = solve_cc_tridiagonal(w, y)
    if not np.all(np.isfinite(sol.x_plus)):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(matvec(w, sol.x_plus) - y)))
    return residual <= sol.bound.bound_value


def _violations(system_id):
    systems = (generate_system(system_id, m) for m in ORDERS)
    return [s.m for s in systems if not _within_bound(s.matrix, s.y)]


@pytest.mark.parametrize(
    "system_id",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: growth compounds across blocks, each "
                "within growth_threshold, and x_plus overflows for m >= 165",
            ),
        ),
        3, 4, 5, 6, 7, 8, 9, 10,
    ],
)
def test_residual_within_bound_up_to_order_260(system_id):
    assert _violations(system_id) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: growth compounds across the one-row blocks of the "
    "bidiagonal systems at scale; the residual is inf, NaN or 1.4e308 against "
    "bounds of 1e292-1e295 and only truncated_zero is set",
)
@pytest.mark.parametrize("system_id", [1, 3, 4, 5])
def test_residual_within_bound_at_order_2000(system_id):
    s = generate_system(system_id, 2000)
    assert _within_bound(s.matrix, s.y)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 1 and 16: the bound is not scale invariant; p*r "
    "underflows to 0 at 2^-565 (lam = q; error 0.70, residual 9.5e13 times "
    "the bound, no event) and overflows at 2^530 (error 6.0, residual 2.0e15 "
    "times the bound, only the truncated_zero flag set)",
)
@pytest.mark.parametrize("k", [-565, 530])
def test_uniformly_scaled_band_within_bound(k):
    # tridiag(-1, 4, -1) at m = 6 (kappa_inf 2.93) with x = 1..6, W and y
    # scaled by 2^k, which is exact.
    w = TridiagonalMatrix(q=np.full(6, 4.0), p=np.full(5, -1.0), r=np.full(5, -1.0))
    y = matvec(w, np.arange(1.0, 7.0))
    scaled = TridiagonalMatrix(*(np.ldexp(band, k) for band in (w.q, w.p, w.r)))
    assert _within_bound(scaled, np.ldexp(y, k))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: system 10 at m=5 is singular and e_1..e_5 are "
    "inconsistent right-hand sides; the residual is 0.67-1.0 against a bound "
    "near 1e-15 and only truncated_zero is set",
)
def test_inconsistent_unit_rhs_within_bound():
    s = generate_system(10, 5)
    for e in np.eye(5):
        sol = solve_cc_tridiagonal(s.matrix, e)
        residual = float(np.max(np.abs(matvec(s.matrix, sol.x_plus) - e)))
        assert residual <= sol.bound.bound_value
