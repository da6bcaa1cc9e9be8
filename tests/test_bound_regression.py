"""The a-priori residual bound on the band systems across orders 3..258."""

import numpy as np
import pytest

from ccsolve.tridiagonal import solve_cc_bidiagonal
from ccsolve.matrices import matvec
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import solve_cc_tridiagonal

ORDERS = range(3, 261, 3)


def _violations(system_id):
    solve = solve_cc_bidiagonal if system_id <= 5 else solve_cc_tridiagonal
    failed = []
    for m in ORDERS:
        s = generate_system(system_id, m)
        sol = solve(s.matrix, s.y)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = (
                float(np.max(np.abs(matvec(s.matrix, sol.x_plus) - s.y)))
                if np.all(np.isfinite(sol.x_plus))
                else np.inf
            )
        if not residual <= sol.bound.bound_value:
            failed.append(m)
    return failed


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
