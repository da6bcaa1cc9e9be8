"""Generators for the twenty benchmark systems, solution perturbation for
the noise-response study, and conditioning-regime classification.

Systems 1-5 are upper-bidiagonal, 6-10 tridiagonal, 11-15 dense
nonsymmetric, 16-20 dense symmetric.  Every generator returns the matrix,
the exact solution x, and y computed as matvec(matrix, x) bitwise, so a
solver's error is measured against a self-consistent system; the printed
closed forms for y serve as cross-checks in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    Matrix,
    TridiagonalMatrix,
    matvec,
)

__all__ = [
    "Regime",
    "TestSystem",
    "classify",
    "family_of",
    "generate_system",
    "perturb_solution",
]


@dataclass
class TestSystem:
    """One generated benchmark instance; y is always the exact product
    matvec(matrix, x_exact)."""

    id: int
    m: int
    params: dict
    matrix: Matrix
    x_exact: np.ndarray
    y: np.ndarray
    family: str


@dataclass
class Regime:
    """Conditioning regime of a system: label plus the condition number mu."""

    label: str
    mu: float


def family_of(system_id: int) -> str:
    if 1 <= system_id <= 5:
        return "C2"
    if 6 <= system_id <= 10:
        return "C3"
    if 11 <= system_id <= 15:
        return "dense-nonsym"
    if 16 <= system_id <= 20:
        return "dense-sym"
    raise ValueError(f"unknown system id {system_id}")


def _const_bidiagonal(m: int, q_value: float, r_value: float) -> BidiagonalMatrix:
    return BidiagonalMatrix(np.full(m, q_value), np.full(m - 1, r_value))


def _const_tridiagonal(m, q_value, p_value, r_value) -> TridiagonalMatrix:
    return TridiagonalMatrix(
        np.full(m, q_value), np.full(m - 1, p_value), np.full(m - 1, r_value)
    )


def _ladder(m: int) -> np.ndarray:
    # a_ij = m - max(i, j) + 1 with 1-based indices
    idx = np.arange(1, m + 1)
    return (m - np.maximum.outer(idx, idx) + 1).astype(float)


def _inverse_ladder(m: int) -> np.ndarray:
    return 1.0 / _ladder(m)


def _hilbert(m: int) -> np.ndarray:
    idx = np.arange(1, m + 1)
    return 1.0 / (np.add.outer(idx, idx) - 1.0)


def _build(system_id: int, m: int, params: dict):
    i = np.arange(1, m + 1, dtype=float)
    if system_id == 1:
        return _const_bidiagonal(m, 1.0, 2.0), 1.0 / i
    if system_id == 2:
        e0 = params.setdefault("eps0_star", 0.01)
        return _const_bidiagonal(m, e0, 1.0 - e0), 1.0 / (2.0 * i + e0)
    if system_id == 3:
        return _const_bidiagonal(m, 7.0 / 5.0, 11.0 / 3.0), 1.0 / (2.0 * i + 1.0)
    if system_id == 4:
        e0 = params.setdefault("eps0_star", 1e-7)
        e1 = params.setdefault("eps1_star", 1e-4)
        k = params.setdefault("k", (m + 1) // 2)
        if not 1 < k < m:
            raise ValueError(f"system 4 requires an interior k, got k={k}, m={m}")
        q = np.full(m, -1.0)
        q[0] = e0
        q[k - 1] = e1
        q[m - 1] = e1
        a = 1.0 + e0
        params["a"] = a
        return BidiagonalMatrix(q, np.full(m - 1, 2.0)), (-1.0) ** (i + 1.0) * a
    if system_id == 5:
        return _const_bidiagonal(m, 3.0, 7.0), np.ones(m)
    if system_id == 6:
        return _const_tridiagonal(m, 2.0, -1.0, -1.0), 1.0 / i
    if system_id == 7:
        e0 = params.setdefault("eps0_star", 1e-7)
        a = (1.0 - m) / m
        params["a"] = a
        q = np.full(m, -2.0)
        q[0] = -1.0
        q[m - 1] = a
        return (
            TridiagonalMatrix(q, np.ones(m - 1), np.ones(m - 1)),
            1.0 + (-1.0) ** i * e0,
        )
    if system_id == 8:
        return _const_tridiagonal(m, 1.0, -1.0, -1.0), 1.0 / (2.0 * i)
    if system_id == 9:
        e0 = params.setdefault("eps0_star", 1e-7)
        return _const_tridiagonal(m, 1.0, 1.0 + e0, 1.0 - e0), np.ones(m)
    if system_id == 10:
        return _const_tridiagonal(m, 6.0, 4.0, 3.0), np.ones(m)
    if system_id == 11:
        e0 = params.setdefault("eps0_star", 1e-7)
        a = _ladder(m)
        a[0, m - 1] = 333.0
        a[m - 1, 0] = e0
        return DenseMatrix(a), 1.0 / i
    if system_id == 12:
        a = _hilbert(m)
        a[m - 1, 0] = 333.0
        return DenseMatrix(a), 1.0 / (2.0 * i + 1.0)
    if system_id == 13:
        e0 = params.setdefault("eps0_star", 1e-5)
        a = _inverse_ladder(m)
        a[0, m - 1] = 1.0 + e0
        a[m - 1, 0] = 1.0 - e0
        return DenseMatrix(a), np.full(m, 1.0 - e0)
    if system_id == 14:
        idx = np.arange(1, m + 1)
        rows = idx[:, None]
        cols = idx[None, :]
        a = np.where(cols <= rows + 1, _ladder(m), 0.0)
        return DenseMatrix(a), (-1.0) ** i / i
    if system_id == 15:
        idx = np.arange(1, m + 1)
        a = 1.0 / (np.subtract.outer(idx, idx) + float(m))
        return DenseMatrix(a), 1.0 / i
    if system_id == 16:
        e0 = params.setdefault("eps0_star", 1e-7)
        a = _inverse_ladder(m)
        a[0, m - 1] = a[m - 1, 0] = m + e0
        return DenseMatrix(a), (i + 1.0) / i
    if system_id == 17:
        return DenseMatrix(_hilbert(m)), 1.0 / i
    if system_id == 18:
        a = _hilbert(m)
        a[0, m - 1] = a[m - 1, 0] = 333.0
        return DenseMatrix(a), (-1.0) ** i / i
    if system_id == 19:
        e0 = params.setdefault("eps0_star", 1e-7)
        a = _ladder(m)
        a[0, 0] = e0
        a[0, m - 1] = a[m - 1, 0] = float(m)
        return DenseMatrix(a), np.full(m, 1.0 - e0)
    if system_id == 20:
        e0 = params.setdefault("eps0_star", 1e-11)
        a_val = 1.0 - e0
        b_val = 1.0 + e0
        params["a"] = a_val
        params["b"] = b_val
        a = np.full((m, m), b_val)
        np.fill_diagonal(a, a_val)
        a[0, m - 1] = a[m - 1, 0] = a_val
        return DenseMatrix(a), (-1.0) ** i / (2.0 * i + 1.0)
    raise ValueError(f"unknown system id {system_id}")


def generate_system(system_id: int, m: int, params: dict | None = None) -> TestSystem:
    """Build benchmark system `system_id` (1..20) of order m >= 3.

    params overrides the built-in defaults (eps0_star, eps1_star, and the
    interior weak-pivot position k of system 4); the resolved values are
    returned on the TestSystem.
    """
    if m < 3:
        raise ValueError(f"system order must be at least 3, got {m}")
    params = dict(params) if params else {}
    matrix, x_exact = _build(system_id, m, params)
    x_exact = np.asarray(x_exact, dtype=float)
    return TestSystem(
        id=system_id,
        m=m,
        params=params,
        matrix=matrix,
        x_exact=x_exact,
        y=matvec(matrix, x_exact),
        family=family_of(system_id),
    )


def perturb_solution(
    sys: TestSystem, target_delta_x: float, seed: int
) -> tuple[TestSystem, float]:
    """Shift the exact solution by a seeded random direction of relative size
    target_delta_x and recompute y; returns the perturbed system and the
    realized relative change delta_y of the right-hand side."""
    if target_delta_x < 0.0:
        raise ValueError("target_delta_x must be nonnegative")
    d = np.random.default_rng(seed).standard_normal(sys.m)
    x_prime = sys.x_exact + target_delta_x * float(
        np.linalg.norm(sys.x_exact)
    ) / float(np.linalg.norm(d)) * d
    y_prime = matvec(sys.matrix, x_prime)
    y_norm = float(np.linalg.norm(sys.y))
    delta_y = float(np.linalg.norm(y_prime - sys.y)) / y_norm if y_norm else 0.0
    perturbed = TestSystem(
        id=sys.id,
        m=sys.m,
        params=dict(sys.params),
        matrix=sys.matrix,
        x_exact=x_prime,
        y=y_prime,
        family=sys.family,
    )
    return perturbed, delta_y


def classify(mu: float) -> Regime:
    """Conditioning regime by condition number: well-posed up to 1/sqrt(eps1),
    ill-posed up to 1/eps1, pathological beyond (including mu = inf)."""
    if not mu >= 1.0:
        raise ValueError(f"condition number must be >= 1, got {mu}")
    if mu <= 1.0 / np.sqrt(EPS1):
        label = "well-posed"
    elif mu <= 1.0 / EPS1:
        label = "ill-posed"
    else:
        label = "pathological"
    return Regime(label=label, mu=float(mu))
