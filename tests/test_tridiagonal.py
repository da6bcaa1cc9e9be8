"""Tests for the tridiagonal direct solver and its residual bound."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import TridiagonalMatrix, dense_array, matvec, norm_inf
from ccsolve.minors import perturbation_magnitude
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import (
    BlockPartition,
    probe_discrepancy,
    pseudo_inverse_tridiagonal,
    solve_cc_tridiagonal,
)

EPS1 = 2.0 ** -52


def random_dominant(rng, m):
    p = rng.standard_normal(m - 1)
    r = rng.standard_normal(m - 1)
    q = rng.standard_normal(m)
    q += np.sign(q) * (np.abs(p).max() + np.abs(r).max() + 1.0)
    return TridiagonalMatrix(q=q, p=p, r=r)


def test_partition_properties():
    part = BlockPartition((5, 2))
    assert part.n == 2
    assert part.m == 5
    # gamma^2 = sum over blocks of l_k * (l_k - l_{k+1}) = 5*3 + 2*2 = 19
    assert_allclose(part.gamma(), np.sqrt(19.0), rtol=1e-15)
    assert BlockPartition((4,)).gamma() == 4.0
    for bounds in ((), (3, 0)):
        with pytest.raises(ValueError, match="row >= 1"):
            BlockPartition(bounds)
    for bounds in ((3, 3), (2, 5)):
        with pytest.raises(ValueError, match="strictly decreasing"):
            BlockPartition(bounds)


def test_single_block_identity_returns_rhs():
    w = TridiagonalMatrix(q=np.ones(6), p=np.zeros(5), r=np.zeros(5))
    y = np.arange(1.0, 7.0)
    sol = solve_cc_tridiagonal(w, y)
    assert sol.partition.boundaries == (6,)
    assert_array_equal(sol.x_plus, y)
    assert_array_equal(sol.phi, np.zeros(6))


def test_well_posed_system_single_block_no_correction():
    s = generate_system(10, 3)
    sol = solve_cc_tridiagonal(s.matrix, s.y)
    assert sol.partition.boundaries == (3,)
    assert sol.partition.n == 1
    assert_array_equal(sol.phi, np.zeros(3))
    assert np.max(np.abs(sol.x_plus - 1.0)) <= 1e-14
    assert not sol.flags.perturbed_singular
    assert not sol.flags.unresolved_top_row


def test_solution_is_regular_part_plus_correction():
    rng = np.random.default_rng(401)
    for _ in range(25):
        m = int(rng.integers(3, 30))
        w = random_dominant(rng, m)
        y = rng.standard_normal(m)
        sol = solve_cc_tridiagonal(w, y)
        assert_array_equal(sol.x_plus, sol.x_regular + sol.phi)


def test_bottom_block_has_zero_correction():
    rng = np.random.default_rng(402)
    for _ in range(25):
        m = int(rng.integers(3, 30))
        w = random_dominant(rng, m)
        y = rng.standard_normal(m)
        sol = solve_cc_tridiagonal(w, y)
        bottom = sol.partition.boundaries[0]
        top = sol.partition.boundaries[1] + 1 if sol.partition.n > 1 else 1
        assert_array_equal(sol.phi[top - 1:bottom], np.zeros(bottom - top + 1))


def test_random_well_conditioned_accuracy():
    rng = np.random.default_rng(403)
    for _ in range(100):
        m = int(rng.integers(3, 50))
        w = random_dominant(rng, m)
        x = rng.standard_normal(m)
        y = matvec(w, x)
        sol = solve_cc_tridiagonal(w, y)
        rel = np.linalg.norm(sol.x_plus - x) / np.linalg.norm(x)
        assert rel <= 1e-12


def test_near_singular_perturbed_system():
    # Off-diagonal product within 1e-14 of making every leading minor
    # degenerate; the solve stays in one piece and recovers the solution.
    s = generate_system(9, 10)
    sol = solve_cc_tridiagonal(s.matrix, s.y)
    rel = np.linalg.norm(sol.x_plus - s.x_exact) / np.linalg.norm(s.x_exact)
    assert rel <= 1e-6


def test_probe_discrepancy_small_and_large_rhs():
    # |y_j| <= 1 compares absolute magnitudes; larger RHS switches to the
    # relative form.
    assert probe_discrepancy(0.5, 0.5) == 0.0
    assert_allclose(probe_discrepancy(0.5, 0.25), 0.25, rtol=1e-15)
    assert_allclose(probe_discrepancy(4.0, 3.0), 0.25, rtol=1e-15)
    assert probe_discrepancy(4.0, 4.0) == 0.0


def test_probe_discrepancy_bounded_by_equation_error():
    # |Phi_j| never exceeds |y_j - row_value| (for |y| > 1 it is the same
    # quantity scaled down by |y|).
    rng = np.random.default_rng(404)
    for _ in range(500):
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        y_j, row_value = rng.standard_normal(2) * scale
        phi = probe_discrepancy(y_j, row_value)
        assert abs(phi) <= abs(y_j - row_value) + 1e-15


def test_perturb_singular_zero():
    # a structurally zero quantity is replaced by eps1*max(1, scale)
    scale = 10.0
    out = perturbation_magnitude(scale)
    assert out != 0.0
    assert abs(out) == EPS1 * scale
    assert perturbation_magnitude(0.5) == EPS1


def test_rounding_budget_values():
    # the bound's delta covers the representation rounding of W and y:
    # eps1*norm_inf(W)*max|x_plus| + eps1*max|y|
    w = TridiagonalMatrix(q=np.array([2.0, 2.0]), p=np.array([1.0]),
                          r=np.array([1.0]))
    y = np.array([3.0, -5.0])
    sol = solve_cc_tridiagonal(w, y)
    want = EPS1 * norm_inf(w) * np.max(np.abs(sol.x_plus)) + EPS1 * 5.0
    assert_allclose(sol.bound.delta, want, rtol=1e-15)


def test_residual_bound_formula_and_coverage():
    rng = np.random.default_rng(405)
    for _ in range(50):
        m = int(rng.integers(3, 40))
        w = random_dominant(rng, m)
        x = rng.standard_normal(m)
        y = matvec(w, x)
        sol = solve_cc_tridiagonal(w, y)
        bound = sol.bound
        # formula: eps1 * tau * rho * gamma * max|y| + Delta
        tau = max(np.max(np.abs(w.p)), np.max(np.abs(w.r)))
        assert_allclose(bound.tau, tau, rtol=1e-15)
        assert_allclose(bound.gamma, sol.partition.gamma(), rtol=1e-15)
        assert_allclose(bound.max_y, np.max(np.abs(y)), rtol=1e-15)
        want = EPS1 * bound.tau * bound.rho * bound.gamma * bound.max_y + bound.delta
        assert_allclose(bound.bound_value, want, rtol=1e-15)
        # the measured residual is covered
        residual = np.max(np.abs(matvec(w, sol.x_plus) - y))
        delta_term = (EPS1 * norm_inf(w) * np.max(np.abs(sol.x_plus))
                      + EPS1 * np.max(np.abs(y)))
        assert residual <= EPS1 * tau * bound.rho * bound.gamma * bound.max_y + delta_term + 1e-30


def test_exactly_singular_diagonal_pseudo_inverse():
    # diag(1, 0, 2) has the exact pseudo-inverse diag(1, 0, 1/2).
    w = TridiagonalMatrix(q=np.array([1.0, 0.0, 2.0]), p=np.zeros(2),
                          r=np.zeros(2))
    b = pseudo_inverse_tridiagonal(w).a
    assert_allclose(b, np.diag([1.0, 0.0, 0.5]), rtol=0, atol=1e-15)


def test_pseudo_inverse_equals_inverse_when_nonsingular():
    rng = np.random.default_rng(406)
    for _ in range(20):
        m = int(rng.integers(3, 15))
        w = random_dominant(rng, m)
        b = pseudo_inverse_tridiagonal(w).a
        assert_allclose(b, np.linalg.inv(dense_array(w)), rtol=0, atol=1e-9)


def test_solver_is_deterministic():
    s = generate_system(7, 20)
    first = solve_cc_tridiagonal(s.matrix, s.y)
    second = solve_cc_tridiagonal(s.matrix, s.y)
    assert_array_equal(first.x_plus, second.x_plus)
    assert first.partition.boundaries == second.partition.boundaries
    assert first.events == second.events


def test_input_validation():
    w = TridiagonalMatrix(q=np.ones(3), p=np.zeros(2), r=np.zeros(2))
    with pytest.raises(ValueError):
        solve_cc_tridiagonal(w, np.ones(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_cc_tridiagonal(w, np.array([1.0, bad, 1.0]))
    # a NaN threshold would switch its check off silently, as inf does
    for knob in ("phi_threshold", "growth_threshold"):
        with pytest.raises(ValueError, match="must not be NaN"):
            solve_cc_tridiagonal(w, np.ones(3), **{knob: np.nan})


def test_events_record_splits():
    # A hard zero bottom-right corner forces at least a perturbed or
    # truncated diagonal event.
    w = TridiagonalMatrix(q=np.array([1.0, 1.0, 0.0]), p=np.zeros(2),
                          r=np.zeros(2))
    sol = solve_cc_tridiagonal(w, np.array([1.0, 1.0, 1.0]))
    assert sol.events
    labels = {label for label, _ in sol.events}
    assert labels & {"perturbed-zero", "truncated-diagonal", "probe-split",
                     "growth-split", "top-row-split", "top-row-unresolved",
                     "severed-bottom", "nonfinite-truncated", "nonfinite-split"}
    assert np.all(np.isfinite(sol.x_plus))
