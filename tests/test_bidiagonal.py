"""Tests for the solver on upper-bidiagonal input (the p = 0 case)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import (
    BidiagonalMatrix,
    TridiagonalMatrix,
    dense_array,
    matvec,
    norm_inf,
)
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import (
    pseudo_inverse_bidiagonal,
    solve_cc_bidiagonal,
    solve_cc_tridiagonal,
)

EPS1 = 2.0 ** -52


def back_substitute(w, y):
    m = w.q.size
    x = np.zeros(m)
    x[m - 1] = y[m - 1] / w.q[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (y[i] - w.r[i] * x[i + 1]) / w.q[i]
    return x


def random_bidiagonal(rng, m):
    q = rng.standard_normal(m)
    q += np.sign(q) * 1.5
    return BidiagonalMatrix(q=q, r=rng.standard_normal(m - 1))


def test_known_system_with_unit_over_index_solution():
    # q = 1, r = 2, x_i = 1/i gives y = (2, 7/6, 1/3) at order 3.
    s = generate_system(1, 3)
    assert_allclose(s.y, [2.0, 7.0 / 6.0, 1.0 / 3.0], rtol=1e-15)
    sol = solve_cc_bidiagonal(s.matrix, s.y)
    assert sol.partition.boundaries == (3,)
    assert np.max(np.abs(sol.x_plus - s.x_exact)) <= 1e-15


def test_known_constant_solution_system():
    s = generate_system(5, 3)
    assert_array_equal(s.y, [10.0, 10.0, 3.0])
    sol = solve_cc_bidiagonal(s.matrix, s.y)
    assert np.max(np.abs(sol.x_plus - 1.0)) <= 1e-15


def test_agrees_with_back_substitution():
    rng = np.random.default_rng(501)
    for _ in range(60):
        m = int(rng.integers(2, 40))
        w = random_bidiagonal(rng, m)
        x = rng.standard_normal(m)
        y = matvec(w, x)
        sol = solve_cc_bidiagonal(w, y)
        ref = back_substitute(w, y)
        assert_allclose(sol.x_plus, ref, rtol=0,
                        atol=1e-11 * max(1.0, np.max(np.abs(ref))))


def test_solution_is_regular_part_plus_correction():
    rng = np.random.default_rng(502)
    for _ in range(25):
        m = int(rng.integers(3, 30))
        w = random_bidiagonal(rng, m)
        y = rng.standard_normal(m)
        sol = solve_cc_bidiagonal(w, y)
        assert_array_equal(sol.x_plus, sol.x_regular + sol.phi)


def test_diagonal_matrix_no_coupling_bound():
    # With no superdiagonal the coupling term vanishes: tau-hat = 0 and the
    # bound reduces to the rounding allowance Delta.
    w = BidiagonalMatrix(q=np.array([2.0, 3.0, 4.0]), r=np.zeros(2))
    y = np.array([2.0, 3.0, 4.0])
    sol = solve_cc_bidiagonal(w, y)
    assert_array_equal(sol.x_plus, np.ones(3))
    assert sol.bound.tau == 0.0
    assert sol.bound.bound_value == sol.bound.delta


def test_gamma_hat_is_sqrt_half_m():
    rng = np.random.default_rng(503)
    w = random_bidiagonal(rng, 8)
    y = rng.standard_normal(8)
    sol = solve_cc_bidiagonal(w, y)
    if sol.partition.n == 1:
        assert_allclose(sol.bound.gamma, np.sqrt(8.0 / 2.0), rtol=1e-15)


def test_residual_bound_formula_and_coverage():
    rng = np.random.default_rng(504)
    for _ in range(50):
        m = int(rng.integers(3, 40))
        w = random_bidiagonal(rng, m)
        x = rng.standard_normal(m)
        y = matvec(w, x)
        sol = solve_cc_bidiagonal(w, y)
        bound = sol.bound
        assert_allclose(bound.tau, np.max(np.abs(w.r)), rtol=1e-15)
        want = EPS1 * bound.tau * bound.rho * bound.gamma * bound.max_y + bound.delta
        assert_allclose(bound.bound_value, want, rtol=1e-15)
        residual = np.max(np.abs(matvec(w, sol.x_plus) - y))
        delta_term = (EPS1 * norm_inf(w) * np.max(np.abs(sol.x_plus))
                      + EPS1 * np.max(np.abs(y)))
        assert residual <= EPS1 * bound.tau * bound.rho * bound.gamma * bound.max_y + delta_term + 1e-30


def test_exactly_singular_diagonal_pseudo_inverse():
    w = BidiagonalMatrix(q=np.array([1.0, 0.0, 2.0]), r=np.zeros(2))
    b = pseudo_inverse_bidiagonal(w).a
    assert_allclose(b, np.diag([1.0, 0.0, 0.5]), rtol=0, atol=1e-15)


def test_pseudo_inverse_equals_inverse_when_nonsingular():
    rng = np.random.default_rng(505)
    for _ in range(20):
        m = int(rng.integers(2, 15))
        w = random_bidiagonal(rng, m)
        b = pseudo_inverse_bidiagonal(w).a
        assert_allclose(b, np.linalg.inv(dense_array(w)), rtol=0, atol=1e-9)
        # an inverse of an upper-triangular matrix stays upper-triangular
        assert np.max(np.abs(np.tril(b, -1))) == 0.0


def test_zero_diagonal_entry_yields_finite_output():
    w = BidiagonalMatrix(q=np.array([1.0, 0.0, 1.0]), r=np.array([1.0, 1.0]))
    y = np.array([1.0, 1.0, 1.0])
    sol = solve_cc_bidiagonal(w, y)
    assert np.all(np.isfinite(sol.x_plus))
    assert sol.events


def test_input_validation():
    w = BidiagonalMatrix(q=np.ones(3), r=np.zeros(2))
    with pytest.raises(ValueError):
        solve_cc_bidiagonal(w, np.ones(2))


def assert_same_solve(bi, tri):
    """Bit-identical solves of a bidiagonal matrix and of its tridiagonal
    embedding, apart from the partition factor of the bound."""
    assert_array_equal(bi.x_plus, tri.x_plus)
    assert_array_equal(bi.x_regular, tri.x_regular)
    assert_array_equal(bi.phi, tri.phi)
    assert bi.partition == tri.partition
    assert bi.events == tri.events
    assert bi.flags == tri.flags
    assert bi.rho == tri.rho
    for name in ("tau", "rho", "delta", "max_y"):
        assert getattr(bi.bound, name) == getattr(tri.bound, name), name
    assert bi.bound.gamma == np.sqrt(bi.partition.m / 2.0)
    assert tri.bound.gamma == tri.partition.gamma()


def embedding(w):
    return TridiagonalMatrix(q=w.q, p=np.zeros(w.m - 1), r=w.r)


@pytest.mark.parametrize("m", [3, 5, 10, 50, 200, 260])
def test_matches_tridiagonal_embedding_on_catalogued_systems(m):
    max_blocks = 0
    for system_id in range(1, 6):
        s = generate_system(system_id, m)
        bi = solve_cc_tridiagonal(s.matrix, s.y)
        assert_same_solve(bi, solve_cc_tridiagonal(embedding(s.matrix), s.y))
        max_blocks = max(max_blocks, bi.partition.n)
    if m >= 50:
        # system 2 splits into many blocks here, so gamma_hat is checked
        # on multi-block partitions, not only on single blocks
        assert max_blocks > 1


def test_matches_tridiagonal_embedding_on_degenerate_random_input():
    rng = np.random.default_rng(506)
    multi_block = 0
    for _ in range(600):
        m = int(rng.integers(2, 60))
        q = rng.standard_normal(m)
        q[rng.random(m) < 0.1] = 0.0
        w = BidiagonalMatrix(q=q, r=rng.standard_normal(m - 1))
        y = rng.standard_normal(m)
        bi = solve_cc_tridiagonal(w, y)
        assert_same_solve(bi, solve_cc_tridiagonal(embedding(w), y))
        multi_block += bi.partition.n > 1
    assert multi_block >= 50


def test_bidiagonal_name_keeps_the_subdiagonal():
    w = TridiagonalMatrix(q=np.full(3, 4.0), p=np.ones(2), r=np.ones(2))
    y = np.array([1.0, 2.0, 3.0])
    want = solve_cc_tridiagonal(w, y)
    got = solve_cc_bidiagonal(w, y)
    assert_array_equal(got.x_plus, want.x_plus)
    assert got.bound == want.bound
