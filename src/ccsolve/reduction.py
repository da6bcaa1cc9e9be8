"""Orthogonal reduction of dense systems to banded form.

A symmetric matrix is reduced by Householder similarity to tridiagonal form
C3 = Q^T A Q with rhs Q^T f; a general matrix by two-sided Householder
reflections to upper-bidiagonal form C2 = P A Q with rhs P f.  Each
reflector updates only the trailing submatrix it changes (a rank-2 update on
the symmetric route, one-sided updates on the general route; Golub & Van
Loan, sections 5.1 and 8.3), so a reduction costs O(m^3) flops and one m x m
working array.  The reflectors are kept, not multiplied out: they are
applied to the rhs, and the solution of the banded system is mapped back
with z = Q x in O(m^2).  The dense factors Q and P are formed only when a
caller asks for them.  The truncation of the reduced matrix to its bands is
covered by an explicit error budget (h2 for the matrix, delta2 for the rhs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import (
    EPS0,
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    frobenius_norm,
    norm_inf,
)
from .tridiagonal import CCSolution, ErrorBudget, solve_cc_tridiagonal

__all__ = [
    "DenseSolveDiagnostics",
    "ReductionResult",
    "backmap",
    "is_symmetric",
    "reduce_general",
    "reduce_symmetric",
    "reduction_error_budget",
    "solve_dense",
]

SYMMETRY_RTOL = 1e-12


# A stored Householder reflector (k, v): H = I - 2 v v^T acting on entries
# k: of a vector, with v of unit length.
Reflector = tuple[int, np.ndarray]


def _apply_reflectors(
    reflectors: list[Reflector], x, reverse: bool = False
) -> np.ndarray:
    """H_n ... H_2 H_1 x for reflectors [H_1, ..., H_n], or H_1 H_2 ... H_n x
    with reverse=True; x is a vector or a matrix whose columns are mapped.
    x is not modified."""
    out = np.array(x, dtype=float)
    for k, v in reversed(reflectors) if reverse else reflectors:
        seg = out[k:]
        seg -= np.multiply.outer(v, 2.0 * (v @ seg))
    return out


@dataclass
class ReductionResult:
    """Banded form of a dense system: the band matrix, the transformed
    right-hand side, the truncation error budget, and the stored reflectors.
    ``q_reflectors`` [H_1, ..., H_n] give the backmap factor Q = H_1 ... H_n
    (z = Q x); ``p_reflectors``, on the bidiagonal route only, give the left
    factor P = H_n ... H_1.  The dense ``q_factor`` and ``p_factor`` are built
    from the reflectors on first access and cached."""

    form: str
    matrix: TridiagonalMatrix | BidiagonalMatrix
    rhs: np.ndarray
    budget: ErrorBudget
    q_reflectors: list[Reflector]
    p_reflectors: list[Reflector] | None = None

    @cached_property
    def q_factor(self) -> np.ndarray:
        return _apply_reflectors(self.q_reflectors, np.eye(self.matrix.m), reverse=True)

    @cached_property
    def p_factor(self) -> np.ndarray | None:
        if self.p_reflectors is None:
            return None
        return _apply_reflectors(self.p_reflectors, np.eye(self.matrix.m))


def is_symmetric(a: DenseMatrix) -> bool:
    """True when max|a_ij - a_ji| <= 1e-12 * norm_inf(a)."""
    return float(np.max(np.abs(a.a - a.a.T))) <= SYMMETRY_RTOL * norm_inf(a)


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Unit Householder vector v and alpha with (I - 2 v v^T) x = alpha e_1,
    or None when x[1:] is already exactly zero (no reflection applied)."""
    tail = float(x[1:] @ x[1:])
    if tail == 0.0:
        return None
    x0 = float(x[0])
    alpha = -math.copysign(math.sqrt(x0 * x0 + tail), x0)
    v = np.array(x, dtype=float)
    v[0] = x0 - alpha
    v /= math.sqrt(v[0] * v[0] + tail)
    return v, alpha


def _budget_formula(m, norm_a, norm_f, route) -> ErrorBudget:
    eps_r = 29.0 * EPS1
    zero_r = (2.0 * m + 2.0 * np.sqrt(m)) * EPS0
    if route == "bidiagonal":
        count = 2.0 * m - 3.0
        den = 1.0 - (m - 2.0) * eps_r
    elif route == "tridiagonal":
        count = 2.0 * m - 4.0
        den = 1.0 - (m - 2.5) * eps_r
    else:
        raise ValueError(f"unknown route {route!r}")
    if den <= 0.0:
        raise ValueError(f"order {m} too large for the error-budget formula")
    h2 = count * eps_r / den * norm_a + count * np.sqrt(m) * zero_r / den
    delta2 = eps_r * norm_f + zero_r
    return ErrorBudget(h=h2, delta=delta2, h2=h2, delta2=delta2)


def reduction_error_budget(
    m: int,
    norm_a: float,
    norm_f: float,
    route: str = "bidiagonal",
) -> ErrorBudget:
    """Truncation budget of the orthogonal reduction: h2 bounds the Euclidean
    distance between the computed band matrix and an exact orthogonal
    transform of the input, delta2 the same for the right-hand side."""
    if m < 3:
        raise ValueError("the error-budget formulas require m >= 3")
    return _budget_formula(m, norm_a, norm_f, route)


def _route_budget(m, norm_a, norm_f, route) -> ErrorBudget:
    if m < 2:
        return ErrorBudget()
    return _budget_formula(m, norm_a, norm_f, route)


def reduce_symmetric(a: DenseMatrix, f) -> ReductionResult:
    """Householder similarity reduction of a symmetric matrix to tridiagonal
    form; raises ValueError on a matrix that is not symmetric within
    1e-12 * norm_inf."""
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric within tolerance")
    m = a.m
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise ValueError(f"f must have length {m}")
    arr = a.a.copy()
    reflectors = []
    for k in range(m - 2):
        step = _reflector(arr[k + 1 :, k])
        if step is None:
            continue
        v, alpha = step
        arr[k + 1, k] = arr[k, k + 1] = alpha
        # H A22 H = A22 - v w^T - w v^T with p = A22 v, w = 2p - 2(v^T p) v
        sub = arr[k + 1 :, k + 1 :]
        p = sub @ v
        w = 2.0 * p - (2.0 * float(v @ p)) * v
        sub -= np.outer(v, w)
        sub -= np.outer(w, v)
        reflectors.append((k + 1, v))
    c3 = TridiagonalMatrix(
        np.diag(arr).copy(), np.diag(arr, -1).copy(), np.diag(arr, 1).copy()
    )
    budget = _route_budget(
        m, frobenius_norm(a), float(np.linalg.norm(f)), "tridiagonal"
    )
    return ReductionResult(
        form="tridiagonal",
        matrix=c3,
        rhs=_apply_reflectors(reflectors, f),
        budget=budget,
        q_reflectors=reflectors,
    )


def reduce_general(a: DenseMatrix, f) -> ReductionResult:
    """Two-sided Householder reduction of a square matrix to upper-bidiagonal
    form C2 = P A Q with rhs P f."""
    m = a.m
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise ValueError(f"f must have length {m}")
    arr = a.a.copy()
    left = []
    right = []
    for k in range(m - 1):
        step = _reflector(arr[k:, k])
        if step is not None:
            v, alpha = step
            arr[k, k] = alpha
            block = arr[k:, k + 1 :]
            block -= np.outer(v, 2.0 * (v @ block))
            left.append((k, v))
        if k <= m - 3:
            step = _reflector(arr[k, k + 1 :])
            if step is None:
                continue
            v, alpha = step
            arr[k, k + 1] = alpha
            block = arr[k + 1 :, k + 1 :]
            block -= np.outer(block @ v, 2.0 * v)
            right.append((k + 1, v))
    c2 = BidiagonalMatrix(np.diag(arr).copy(), np.diag(arr, 1).copy())
    budget = _route_budget(
        m, frobenius_norm(a), float(np.linalg.norm(f)), "bidiagonal"
    )
    return ReductionResult(
        form="bidiagonal",
        matrix=c2,
        rhs=_apply_reflectors(left, f),
        budget=budget,
        q_reflectors=right,
        p_reflectors=left,
    )


def backmap(q_factor: np.ndarray, x) -> np.ndarray:
    """Map a banded-system solution back to the original variables: Q x."""
    return q_factor @ np.asarray(x, dtype=float)


@dataclass
class DenseSolveDiagnostics:
    """What the dense pipeline did: the route taken, the reduction (with its
    error budget), and the inner banded solution (with its residual bound)."""

    route: str
    reduction: ReductionResult
    inner: CCSolution


def solve_dense(
    a: DenseMatrix,
    f,
    *,
    route: str | None = None,
    phi_threshold: float | None = None,
    growth_threshold: float | None = None,
) -> tuple[np.ndarray, DenseSolveDiagnostics]:
    """Solve a dense system by orthogonal reduction to banded form.

    route None picks "symmetric" (tridiagonal reduction) when the matrix is
    symmetric within tolerance and "general" (bidiagonal reduction)
    otherwise; passing "symmetric" or "general" overrides the detection.
    """
    if route is None:
        route = "symmetric" if is_symmetric(a) else "general"
    if route == "symmetric":
        reduction = reduce_symmetric(a, f)
    elif route == "general":
        reduction = reduce_general(a, f)
    else:
        raise ValueError(f"unknown route {route!r}")
    inner = solve_cc_tridiagonal(
        reduction.matrix,
        reduction.rhs,
        phi_threshold=phi_threshold,
        growth_threshold=growth_threshold,
    )
    z = _apply_reflectors(reduction.q_reflectors, inner.x_plus, reverse=True)
    return z, DenseSolveDiagnostics(route=route, reduction=reduction, inner=inner)
