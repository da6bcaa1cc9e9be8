"""Tests for the orthogonal reductions to banded form."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import (
    EPS0,
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    condition_number,
    dense_array,
    matvec,
)
from ccsolve.reduction import (
    _PANEL_WIDTH,
    backmap,
    is_symmetric,
    reduce_general,
    _reduction_budget,
    reduce_symmetric,
    solve_dense,
)
from ccsolve.reduction import ErrorBudget
from ccsolve.reference import solve_qr
from ccsolve.systems import classify, generate_system
from explicit_reduction import explicit_reduce_general, explicit_reduce_symmetric

EPS1 = 2.0 ** -52


def random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return DenseMatrix(a + a.T)


def test_is_symmetric_detection():
    rng = np.random.default_rng(601)
    assert is_symmetric(random_symmetric(rng, 6))
    a = rng.standard_normal((6, 6))
    a[0, 5] += 1.0
    assert not is_symmetric(DenseMatrix(a + a.T + np.triu(np.ones((6, 6)), 5)))


def test_symmetric_reduction_produces_tridiagonal():
    rng = np.random.default_rng(602)
    for _ in range(20):
        m = int(rng.integers(3, 33))
        a = random_symmetric(rng, m)
        f = rng.standard_normal(m)
        red = reduce_symmetric(a, f)
        assert isinstance(red.matrix, TridiagonalMatrix)
        # Q^T A Q = C within rounding
        qmat = red.q_factor
        c = dense_array(red.matrix)
        assert_allclose(qmat.T @ a.a @ qmat, c, rtol=0,
                        atol=1e-12 * max(1.0, np.max(np.abs(a.a))) * m)
        assert_allclose(red.rhs, qmat.T @ f, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(f))))


def test_general_reduction_produces_bidiagonal():
    rng = np.random.default_rng(603)
    for _ in range(20):
        m = int(rng.integers(3, 33))
        a = DenseMatrix(rng.standard_normal((m, m)))
        f = rng.standard_normal(m)
        red = reduce_general(a, f)
        assert isinstance(red.matrix, BidiagonalMatrix)
        # P A Q = C within rounding
        c = dense_array(red.matrix)
        assert_allclose(red.p_factor @ a.a @ red.q_factor, c, rtol=0,
                        atol=1e-12 * max(1.0, np.max(np.abs(a.a))) * m)
        assert_allclose(red.rhs, red.p_factor @ f, rtol=0,
                        atol=1e-12 * max(1.0, np.max(np.abs(f))))


def test_factor_orthogonality():
    rng = np.random.default_rng(604)
    for _ in range(20):
        m = int(rng.integers(3, 33))
        a = DenseMatrix(rng.standard_normal((m, m)))
        red = reduce_general(a, rng.standard_normal(m))
        for qmat in (red.p_factor, red.q_factor):
            assert np.max(np.abs(qmat.T @ qmat - np.eye(m))) <= 10 * m * m * EPS1
        red2 = reduce_symmetric(random_symmetric(rng, m), rng.standard_normal(m))
        assert np.max(np.abs(red2.q_factor.T @ red2.q_factor - np.eye(m))) <= 10 * m * m * EPS1


def test_frobenius_norm_invariance_within_budget():
    rng = np.random.default_rng(605)
    for _ in range(20):
        m = int(rng.integers(3, 33))
        arr = rng.standard_normal((m, m))
        red = reduce_general(DenseMatrix(arr), rng.standard_normal(m))
        drift = abs(np.linalg.norm(dense_array(red.matrix), "fro")
                    - np.linalg.norm(arr, "fro"))
        assert drift <= red.budget.h


def test_singular_values_preserved():
    rng = np.random.default_rng(606)
    for _ in range(20):
        m = int(rng.integers(3, 33))
        arr = rng.standard_normal((m, m))
        red = reduce_general(DenseMatrix(arr), rng.standard_normal(m))
        sa = np.linalg.svd(arr, compute_uv=False)
        sc = np.linalg.svd(dense_array(red.matrix), compute_uv=False)
        assert np.max(np.abs(sa - sc)) <= 1e-10 * sa[0]


def test_eigenvalues_preserved_symmetric():
    # The all-ones matrix has eigenvalues {3, 0, 0}.
    a = DenseMatrix(np.ones((3, 3)))
    red = reduce_symmetric(a, np.zeros(3))
    eigs = np.sort(np.linalg.eigvalsh(dense_array(red.matrix)))
    assert_allclose(eigs, [0.0, 0.0, 3.0], rtol=0, atol=1e-12)


def test_already_banded_input_gets_identity_factors():
    # A matrix already in the route's band form needs no reflectors at all,
    # in one narrow panel (m = 5) and through many panels (m = 200).
    for m in (5, 200):
        off = np.ones(m - 1)
        tri = np.diag(np.arange(1.0, m + 1.0)) + np.diag(off, 1) + np.diag(off, -1)
        f = np.arange(float(m))
        red = reduce_symmetric(DenseMatrix(tri), f)
        assert red.q_reflectors == []
        assert_array_equal(red.q_factor, np.eye(m))
        assert_array_equal(dense_array(red.matrix), tri)
        assert_array_equal(red.rhs, f)
        bidiag = np.triu(tri)
        red = reduce_general(DenseMatrix(bidiag), f)
        assert red.q_reflectors == [] and red.p_reflectors == []
        assert_array_equal(red.q_factor, np.eye(m))
        assert_array_equal(red.p_factor, np.eye(m))
        assert_array_equal(dense_array(red.matrix), bidiag)
        assert_array_equal(red.rhs, f)


def test_budget_reference_value_and_validation():
    # Bidiagonal route at m=3, unit Frobenius norm: 3 reflector applications
    # at 29*eps1 each, barely above 87*eps1.
    budget = _reduction_budget(3, 1.0, 1.0, "bidiagonal")
    assert_allclose(budget.h, 87.0 * EPS1, rtol=1e-10)
    budget_t = _reduction_budget(3, 1.0, 1.0, "tridiagonal")
    assert_allclose(budget_t.h, 58.0 * EPS1, rtol=1e-10)
    assert budget.delta >= 29.0 * EPS1
    # Below order 2 the reductions apply no reflector: the budget is zero.
    assert _reduction_budget(1, 1.0, 1.0, "bidiagonal") == ErrorBudget()
    with pytest.raises(ValueError, match="too large"):
        _reduction_budget(10**15, 1.0, 1.0, "bidiagonal")


def _exact_budget_h(m, c, s):
    """h of the budget formula at unit norms in rational arithmetic, with
    reflector count 2m - c and denominator 1 - (m - s)*29*eps1; sqrt(m) is
    exact to 1e-20."""
    eps_r = 29 * Fraction(EPS1)
    sqrt_m = Fraction(math.isqrt(m * 10**40), 10**20)
    zero_r = (2 * m + 2 * sqrt_m) * Fraction(EPS0)
    count = 2 * m - Fraction(c)
    den = 1 - (m - Fraction(s)) * eps_r
    return float(count * (eps_r + sqrt_m * zero_r) / den)


@pytest.mark.parametrize("route, c, s", [
    ("bidiagonal", 3, 2), ("tridiagonal", 4, Fraction(5, 2)),
], ids=["bidiagonal", "tridiagonal"])
def test_budget_matches_exact_arithmetic_up_to_order_limit(route, c, s):
    # Just below m = 1/(29*eps1) the denominator is about 1.3e-10, so moving
    # the shift s by 0.5 moves h by 2.5e-5 relative; at m = 3 the reflector
    # count 2m - c dominates.  Pure arithmetic: nothing of order m is built.
    for m in (3, 2**52 // 29 - 20_000):
        h = _reduction_budget(m, 1.0, 1.0, route).h
        assert_allclose(h, _exact_budget_h(m, c, s), rtol=1e-9)


def test_backmap_applies_orthogonal_factor():
    rng = np.random.default_rng(607)
    qmat, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    x = rng.standard_normal(6)
    assert_allclose(backmap(qmat, x), qmat @ x, rtol=1e-14)


def test_solve_dense_symmetric_route():
    rng = np.random.default_rng(608)
    for _ in range(10):
        m = int(rng.integers(3, 20))
        a = random_symmetric(rng, m)
        a.a[np.diag_indices(m)] += m * 4.0
        x = rng.standard_normal(m)
        y = a.a @ x
        z, diag = solve_dense(a, y)
        assert diag.route == "symmetric"
        assert np.linalg.norm(z - x) / np.linalg.norm(x) <= 1e-10


def test_solve_dense_general_route():
    rng = np.random.default_rng(609)
    for _ in range(10):
        m = int(rng.integers(3, 20))
        arr = rng.standard_normal((m, m)) + np.eye(m) * m * 2.0
        x = rng.standard_normal(m)
        y = arr @ x
        z, diag = solve_dense(DenseMatrix(arr), y)
        assert diag.route == "general"
        assert np.linalg.norm(z - x) / np.linalg.norm(x) <= 1e-10


def test_solve_dense_route_override():
    rng = np.random.default_rng(610)
    a = random_symmetric(rng, 6)
    a.a[np.diag_indices(6)] += 20.0
    x = rng.standard_normal(6)
    y = a.a @ x
    z, diag = solve_dense(a, y, route="general")
    assert diag.route == "general"
    assert np.linalg.norm(z - x) / np.linalg.norm(x) <= 1e-10
    with pytest.raises(ValueError):
        solve_dense(a, y, route="sideways")


@pytest.mark.parametrize("c", [2.0**-1000, 2.0**-565, 2.0**530])
def test_reflectors_scale_extreme_entries(c):
    # Squaring entries of c*A underflows or overflows; the reflectors work on
    # an exact power-of-two rescaling, so the general route and QR solve the
    # well-conditioned c*A as well as A.
    rng = np.random.default_rng(612)
    b = rng.standard_normal((40, 40))
    b += np.diag(np.sum(np.abs(b), axis=1))
    cases = [(np.array([[4.0, -1.0, 1.0], [-1.0, 4.0, 1.0], [1.0, 1.0, 2.0]]),
              np.array([1.0, 2.0, 3.0])),
             (b, rng.standard_normal(40))]
    for arr, x in cases:
        a = DenseMatrix(c * arr)
        f = a.a @ x
        z, _ = solve_dense(a, f, route="general")
        for sol in (z, solve_qr(a, f).x):
            assert np.max(np.abs(sol - x)) <= 1e-13 * np.max(np.abs(x))


def test_reduction_input_checks():
    rng = np.random.default_rng(611)
    a = random_symmetric(rng, 5)
    for reduce in (reduce_symmetric, reduce_general):
        with pytest.raises(ValueError, match="f must have length 5"):
            reduce(a, np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            reduce(a, [1.0, 1.0, np.inf, 1.0, 1.0])
    a.a[0, 4] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        reduce_symmetric(a, np.ones(5))


def _assert_matches_reference(arr, f, route):
    """The reduction of (arr, f) on the route agrees with the full-update
    loops of explicit_reduction within m * eps-scaled tolerances: trailing
    and panel updates reorder their rounding.  Returns the reduction."""
    m = arr.shape[0]
    if route == "symmetric":
        new = reduce_symmetric(DenseMatrix(arr), f)
        ref = explicit_reduce_symmetric(DenseMatrix(arr), f)
        pairs = [(new.q_factor, ref.q_factor)]
    else:
        new = reduce_general(DenseMatrix(arr), f)
        ref = explicit_reduce_general(DenseMatrix(arr), f)
        pairs = [(new.q_factor, ref.q_factor), (new.p_factor, ref.p_factor)]
    scale = m * EPS1
    assert_allclose(dense_array(new.matrix), dense_array(ref.matrix), rtol=0,
                    atol=64 * scale * np.linalg.norm(arr))
    assert_allclose(new.rhs, ref.rhs, rtol=0, atol=256 * scale * np.linalg.norm(f))
    for got, want in pairs:
        assert_allclose(got, want, rtol=0, atol=1024 * scale)
    return new


def test_matches_full_update_reference():
    rng = np.random.default_rng(611)
    for i, m in enumerate(np.linspace(3, 300, 30).astype(int)):
        arr = rng.standard_normal((m, m))
        f = rng.standard_normal(m)
        if i % 2:
            _assert_matches_reference(arr + arr.T, f, "symmetric")
        else:
            _assert_matches_reference(arr, f, "general")


@pytest.mark.parametrize("m", [
    1, 2, 3, _PANEL_WIDTH, _PANEL_WIDTH + 1, _PANEL_WIDTH + 2,
    2 * _PANEL_WIDTH + 1, 2 * _PANEL_WIDTH + 2,
])
def test_panel_edges_match_full_update_reference(m):
    # The last panel takes the m - 2 - s (symmetric) or m - 1 - s (general)
    # columns left after full panels: over these orders its width runs from
    # 1 to _PANEL_WIDTH, and at m = 1 and 2 the symmetric route has none.
    rng = np.random.default_rng(612 + m)
    arr = rng.standard_normal((m, m))
    red = _assert_matches_reference(arr + arr.T, rng.standard_normal(m), "symmetric")
    assert [k for k, _ in red.q_reflectors] == list(range(1, m - 1))
    red = _assert_matches_reference(arr, rng.standard_normal(m), "general")
    assert [k for k, _ in red.p_reflectors] == list(range(m - 1))
    assert [k for k, _ in red.q_reflectors] == list(range(1, m - 1))


def test_zero_column_tails_inside_first_panel():
    # Block-diagonal input with a leading 6 x 6 block: at its edge the column
    # and row tails are exactly zero, so the first panel skips two or three
    # reflectors there and then reduces the second block.
    m, lead = 150, 6
    rng = np.random.default_rng(613)
    arr = np.zeros((m, m))
    arr[:lead, :lead] = rng.standard_normal((lead, lead))
    arr[lead:, lead:] = rng.standard_normal((m - lead, m - lead))
    red = _assert_matches_reference(arr + arr.T, rng.standard_normal(m), "symmetric")
    assert [k for k, _ in red.q_reflectors] == [1, 2, 3, 4] + list(range(lead + 1, m - 1))
    red = _assert_matches_reference(arr, rng.standard_normal(m), "general")
    assert [k for k, _ in red.p_reflectors] == [0, 1, 2, 3, 4] + list(range(lead, m - 1))
    assert [k for k, _ in red.q_reflectors] == [1, 2, 3, 4] + list(range(lead + 1, m - 1))


@pytest.mark.parametrize("m", [50, 150, 250])
def test_invariants_on_catalogued_dense_systems(m):
    # Systems 11-20 are rank-deficient or nearly so: where a trailing column
    # is rounding noise the reference picks a different, equally valid
    # reflector, so the factors are checked against their defining
    # properties instead of entry by entry.
    for sid in range(11, 21):
        s = generate_system(sid, m)
        a = s.matrix.a
        well = classify(condition_number(s.matrix)).label == "well-posed"
        for route in ("general", "symmetric") if sid >= 16 else ("general",):
            reduce = reduce_general if route == "general" else reduce_symmetric
            red = reduce(s.matrix, s.y)
            q = red.q_factor
            p = q.T if red.p_factor is None else red.p_factor
            c = dense_array(red.matrix)
            assert np.max(np.abs(p @ a @ q - c)) <= m * EPS1 * np.linalg.norm(a)
            for factor in (p, q):
                assert np.max(np.abs(factor.T @ factor - np.eye(m))) <= 10 * m * m * EPS1
            assert abs(np.linalg.norm(c) - np.linalg.norm(a)) <= red.budget.h
            if well:
                z, _ = solve_dense(s.matrix, s.y, route=route)
                delta_m = np.linalg.norm(z - s.x_exact) / np.linalg.norm(s.x_exact)
                assert delta_m <= 1e-8, (sid, route, delta_m)


@pytest.mark.parametrize("sid,route", [(11, "general"), (16, "general"), (16, "symmetric")])
def test_solve_dense_memory_peak(sid, route):
    # One m x m working array plus the stored reflectors and the update
    # temporaries; explicit Q and P factors would push the peak past 3 m^2.
    # At m = 250 a panel's trailing update made as one product, or on the
    # general route every panel's workspace kept until the reduction ends,
    # would push it past 2.4 m^2.
    for m, bound in ((250, 2.4), (400, 3.0)):
        s = generate_system(sid, m)
        tracemalloc.start()
        try:
            solve_dense(s.matrix, s.y, route=route)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * m * m, (m, peak / (8 * m * m))
