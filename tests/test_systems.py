"""Tests for the built-in test-system catalogue."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ccsolve.matrices import (
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    dense_array,
    matvec,
)
from ccsolve.systems import classify, family_of, generate_system, perturb_solution

EPS1 = 2.0 ** -52


def test_families():
    assert [family_of(i) for i in (1, 5)] == ["C2", "C2"]
    assert [family_of(i) for i in (6, 10)] == ["C3", "C3"]
    assert [family_of(i) for i in (11, 15)] == ["dense-nonsym", "dense-nonsym"]
    assert [family_of(i) for i in (16, 20)] == ["dense-sym", "dense-sym"]
    with pytest.raises(ValueError):
        family_of(21)
    with pytest.raises(ValueError):
        family_of(0)


def test_container_kinds_match_families():
    for sid in range(1, 21):
        s = generate_system(sid, 6)
        if sid <= 5:
            assert isinstance(s.matrix, BidiagonalMatrix)
        elif sid <= 10:
            assert isinstance(s.matrix, TridiagonalMatrix)
        else:
            assert isinstance(s.matrix, DenseMatrix)
        assert s.family == family_of(sid)
        assert s.m == 6


def test_rhs_is_exact_matrix_vector_product():
    for sid in range(1, 21):
        for m in (3, 6, 11):
            s = generate_system(sid, m)
            assert_array_equal(s.y, matvec(s.matrix, s.x_exact))


def test_known_rhs_values():
    s10 = generate_system(10, 3)
    assert_array_equal(s10.y, [9.0, 13.0, 10.0])
    s9 = generate_system(9, 3)
    assert_allclose(s9.y, [2.0 - 1e-7, 3.0, 2.0 + 1e-7], rtol=1e-15)
    # first component of the alternating-solution system: 2*1 - 1*(1/2)
    s6 = generate_system(6, 3)
    assert_allclose(s6.y[0], 1.5, rtol=1e-15)


def test_unit_over_index_solutions():
    s1 = generate_system(1, 4)
    assert_allclose(s1.x_exact, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=0, atol=0)
    s17 = generate_system(17, 4)
    assert_allclose(s17.x_exact, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=0, atol=0)


def test_hilbert_matrix_entries():
    s17 = generate_system(17, 3)
    want = np.array([[1.0, 1 / 2, 1 / 3],
                     [1 / 2, 1 / 3, 1 / 4],
                     [1 / 3, 1 / 4, 1 / 5]])
    assert_allclose(s17.matrix.a, want, rtol=1e-15)


def test_symmetric_dense_systems_are_exactly_symmetric():
    for sid in (16, 17, 18, 19, 20):
        s = generate_system(sid, 7)
        assert_array_equal(s.matrix.a, s.matrix.a.T)


def test_nonsymmetric_dense_systems_are_not_symmetric():
    for sid in (11, 12, 13, 14, 15):
        s = generate_system(sid, 7)
        assert not np.array_equal(s.matrix.a, s.matrix.a.T)


def test_exactly_singular_system_has_equal_first_and_last_rows():
    for m in (4, 6, 8):
        s = generate_system(20, m)
        assert_array_equal(s.matrix.a[0], s.matrix.a[-1])


def test_interior_small_diagonal_system_structure():
    s4 = generate_system(4, 7)
    q = s4.matrix.q
    assert q[0] == s4.params["eps0_star"]
    assert q[-1] == s4.params["eps1_star"]
    assert q[s4.params["k"] - 1] == s4.params["eps1_star"]
    s4b = generate_system(4, 7, params={"k": 3})
    assert s4b.matrix.q[2] == s4b.params["eps1_star"]
    assert s4b.params["k"] == 3


def test_order_validation():
    with pytest.raises(ValueError):
        generate_system(1, 2)
    with pytest.raises(ValueError):
        generate_system(0, 5)
    with pytest.raises(ValueError):
        generate_system(21, 5)
    for k in (1, 7):
        with pytest.raises(ValueError, match="interior k"):
            generate_system(4, 7, params={"k": k})


def test_classify_regimes():
    assert classify(1.0).label == "well-posed"
    assert classify(1e7).label == "well-posed"
    assert classify(1e15).label == "ill-posed"
    assert classify(1e20).label == "pathological"
    assert classify(float("inf")).label == "pathological"
    assert classify(1e7).mu == 1e7
    for mu in (0.5, float("nan")):
        with pytest.raises(ValueError, match="must be >= 1"):
            classify(mu)


def test_perturbation_hits_target_exactly():
    s = generate_system(17, 4)
    for target in (0.10, 0.39, 0.60):
        pert, delta_y = perturb_solution(s, target, seed=11)
        dx = np.linalg.norm(pert.x_exact - s.x_exact) / np.linalg.norm(s.x_exact)
        assert_allclose(dx, target, rtol=1e-12)
        assert delta_y > 0.0
        # the perturbed pair stays self-consistent
        assert_array_equal(pert.y, matvec(pert.matrix, pert.x_exact))


def test_zero_perturbation_is_identity():
    s = generate_system(17, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        perturb_solution(s, -0.1, seed=11)
    pert, delta_y = perturb_solution(s, 0.0, seed=11)
    assert_array_equal(pert.x_exact, s.x_exact)
    assert_array_equal(pert.y, s.y)
    assert delta_y == 0.0


def test_perturbation_seed_determinism():
    s = generate_system(12, 5)
    a1, d1 = perturb_solution(s, 0.2, seed=3)
    a2, d2 = perturb_solution(s, 0.2, seed=3)
    assert_array_equal(a1.x_exact, a2.x_exact)
    assert d1 == d2
    b, _ = perturb_solution(s, 0.2, seed=4)
    assert not np.array_equal(a1.x_exact, b.x_exact)
