"""Orthogonal reduction of dense systems to banded form.

A symmetric matrix is reduced by Householder similarity to tridiagonal form
C3 = Q^T A Q with rhs Q^T f; a general matrix by two-sided Householder
reflections to upper-bidiagonal form C2 = P A Q with rhs P f (Golub & Van
Loan, sections 5.1 and 8.3).  Both run in panels of up to ``_PANEL_WIDTH``
reflectors, as LAPACK's xLABRD and xLATRD do (Dongarra, Sorensen &
Hammarling, 1989): within a panel each step brings only its own column and
row up to date from the panel's accumulated vectors, and the trailing
submatrix takes the panel's rank-1 terms in one matrix product at the end
(the compact WY idea of Schreiber & Van Loan, 1989).  The last panel is
narrower when fewer columns remain, so one loop reduces input of any order.
A reduction costs O(m^3) flops and one m x m working array.

The reflectors are kept, not multiplied out: they are applied to the rhs,
and the solution of the banded system is mapped back with z = Q x in O(m^2).
The dense factors Q and P are formed only when a caller asks for them.  The
truncation of the reduced matrix to its bands is covered by an explicit
error budget (h for the matrix, delta for the rhs).
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
    _as_float_vector,
    _require,
    frobenius_norm,
    norm_inf,
)
from .tridiagonal import CCSolution, solve_cc_tridiagonal

__all__ = [
    "DenseSolveDiagnostics",
    "ErrorBudget",
    "ReductionResult",
    "backmap",
    "is_symmetric",
    "reduce_general",
    "reduce_symmetric",
    "solve_dense",
]

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class ErrorBudget:
    """Data perturbation bounds of a dense reduction's band truncation: h
    for the matrix, delta for the right-hand side (zero for a reduction
    that truncates nothing)."""

    h: float = 0.0
    delta: float = 0.0


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
    arr = _require(a, DenseMatrix).a
    return float(np.max(np.abs(arr - arr.T))) <= SYMMETRY_RTOL * norm_inf(a)


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Unit Householder vector v and alpha with (I - 2 v v^T) x = alpha e_1,
    or None when x[1:] is already exactly zero (no reflection applied).  When
    the squares of x under- or overflow (callers ignore the overflow), it
    works on x * 2^k with max|x * 2^k| in [1, 2), which is exact."""
    tail = float(x[1:] @ x[1:])
    x0, scale = float(x[0]), 1.0
    norm2 = x0 * x0 + tail
    if not 2.0**-600 <= norm2 <= 2.0**600 and x[1:].any():
        k = 1 - math.frexp(float(np.max(np.abs(x))))[1]
        x, scale = np.ldexp(x, k), 2.0**-k
        tail, x0 = float(x[1:] @ x[1:]), float(x[0])
        norm2 = x0 * x0 + tail
    if tail == 0.0:
        return None
    alpha = -math.copysign(math.sqrt(norm2), x0)
    v = np.array(x, dtype=float)
    v[0] = x0 - alpha
    v /= math.sqrt(v[0] * v[0] + tail)
    return v, alpha * scale


# Largest number of reflectors in a panel.  Widths 8 to 48 reduce within 10%
# of each other at m = 250, 500 and 1000 (one BLAS thread on a 2-vCPU VM).
_PANEL_WIDTH = 16
# The trailing update of a panel runs in blocks of this many rows, so its
# product never allocates a temporary of the trailing block's size.
_UPDATE_ROWS = 32


def _trailing_update(t: np.ndarray, ell: np.ndarray, r: np.ndarray) -> None:
    """t -= ell @ r.T in place, in blocks of _UPDATE_ROWS rows."""
    rt = r.T
    for i in range(0, t.shape[0], _UPDATE_ROWS):
        t[i : i + _UPDATE_ROWS] -= ell[i : i + _UPDATE_ROWS] @ rt


def _symmetric_panels(arr: np.ndarray) -> list[Reflector]:
    """Tridiagonalise the symmetric arr in place in panels (xLATRD) and
    return the reflectors.  Within a panel of nb steps starting at column s
    the up-to-date trailing matrix is arr[s:, s:] - ell @ r.T, where columns
    2j and 2j + 1 of ell hold v_j and w_j of step j's rank-2 update and those
    of r hold w_j and v_j.  The band entries of step k go straight into arr:
    later steps of the panel read only rows and columns past k."""
    m = arr.shape[0]
    reflectors = []
    for s in range(0, m - 2, _PANEL_WIDTH):
        nb = min(_PANEL_WIDTH, m - 2 - s)
        a0 = arr[s:, s:]
        ell = np.zeros((m - s, 2 * nb))
        r = np.zeros((m - s, 2 * nb))
        for j in range(nb):
            c, k, t = 2 * j, s + j, j + 1
            col = a0[j:, j] - ell[j:, :c] @ r[j, :c]
            arr[k, k] = col[0]
            step = _reflector(col[1:])
            if step is None:
                arr[k + 1, k] = arr[k, k + 1] = col[1]
                continue
            v, alpha = step
            arr[k + 1, k] = arr[k, k + 1] = alpha
            # p = A22 v and w = 2p - 2(v^T p) v on the up-to-date A22
            p = a0[t:, t:] @ v - ell[t:, :c] @ (v @ r[t:, :c])
            w = 2.0 * p - (2.0 * float(v @ p)) * v
            ell[t:, c] = r[t:, c + 1] = v
            ell[t:, c + 1] = r[t:, c] = w
            reflectors.append((k + 1, v))
        _trailing_update(a0[nb:, nb:], ell[nb:], r[nb:])
    return reflectors


def _general_panels(arr: np.ndarray) -> tuple[list[Reflector], list[Reflector]]:
    """Bidiagonalise arr in place in panels (xLABRD) and return the left and
    the right reflectors.  Within a panel of nb steps starting at column s
    the up-to-date trailing matrix A is arr[s:, s:] - ell @ r.T: columns 2j
    of ell and r hold step j's left reflector v_j and y_j = 2 A^T v_j,
    columns 2j + 1 hold x_j = 2 A u_j and its right reflector u_j.  The band
    entries of step k go straight into arr: later steps of the panel read
    only rows and columns past k."""
    m = arr.shape[0]
    left = []
    right = []
    for s in range(0, m - 1, _PANEL_WIDTH):
        nb = min(_PANEL_WIDTH, m - 1 - s)
        a0 = arr[s:, s:]
        ell = np.zeros((m - s, 2 * nb))
        r = np.zeros((m - s, 2 * nb))
        for j in range(nb):
            c, k, t = 2 * j, s + j, j + 1
            col = a0[j:, j] - ell[j:, :c] @ r[j, :c]
            step = _reflector(col)
            if step is None:
                arr[k, k] = col[0]
            else:
                v, alpha = step
                arr[k, k] = alpha
                ell[j:, c] = v
                r[t:, c] = 2.0 * (v @ a0[j:, t:] - r[t:, :c] @ (v @ ell[j:, :c]))
                left.append((k, v))
            c += 1
            # the row tail of the last step (k = m - 2) is one entry: no reflector
            row = a0[j, t:] - r[t:, :c] @ ell[j, :c]
            step = _reflector(row)
            if step is None:
                arr[k, k + 1] = row[0]
                continue
            u, alpha = step
            arr[k, k + 1] = alpha
            r[t:, c] = u
            ell[t:, c] = 2.0 * (a0[t:, t:] @ u - ell[t:, :c] @ (u @ r[t:, :c]))
            right.append((k + 1, u))
        _trailing_update(a0[nb:, nb:], ell[nb:], r[nb:])
    return left, right


def _reduction_budget(m, norm_a, norm_f, route) -> ErrorBudget:
    """Truncation budget of the orthogonal reduction to the route's band form
    ("tridiagonal" or "bidiagonal"): h bounds the Euclidean distance between
    the computed band matrix and an exact orthogonal transform of the input,
    delta the same for the right-hand side.  Zero below order 2, where no
    reflector is applied."""
    if m < 2:
        return ErrorBudget()
    eps_r = 29.0 * EPS1
    zero_r = (2.0 * m + 2.0 * np.sqrt(m)) * EPS0
    # reflector applications 2m - c, and the shift s of 1 - (m - s)*eps_r
    c, s = {"bidiagonal": (3.0, 2.0), "tridiagonal": (4.0, 2.5)}[route]
    count = 2.0 * m - c
    den = 1.0 - (m - s) * eps_r
    if den <= 0.0:
        raise ValueError(f"order {m} too large for the error-budget formula")
    h = count * eps_r / den * norm_a + count * np.sqrt(m) * zero_r / den
    delta = eps_r * norm_f + zero_r
    return ErrorBudget(h=h, delta=delta)


@np.errstate(over="ignore")  # see _reflector; a norm that overflows is inf
def reduce_symmetric(a: DenseMatrix, f) -> ReductionResult:
    """Householder similarity reduction of a symmetric matrix to tridiagonal
    form; raises ValueError on a matrix that is not symmetric within
    1e-12 * norm_inf."""
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric within tolerance")
    m = a.m
    f = _as_float_vector(f, "f", m)
    arr = a.a.copy()
    reflectors = _symmetric_panels(arr)
    c3 = TridiagonalMatrix(
        np.diag(arr).copy(), np.diag(arr, -1).copy(), np.diag(arr, 1).copy()
    )
    budget = _reduction_budget(
        m, frobenius_norm(a), float(np.linalg.norm(f)), "tridiagonal"
    )
    return ReductionResult(
        matrix=c3,
        rhs=_apply_reflectors(reflectors, f),
        budget=budget,
        q_reflectors=reflectors,
    )


@np.errstate(over="ignore")  # see _reflector; a norm that overflows is inf
def reduce_general(a: DenseMatrix, f) -> ReductionResult:
    """Two-sided Householder reduction of a square matrix to upper-bidiagonal
    form C2 = P A Q with rhs P f."""
    arr = _require(a, DenseMatrix).a.copy()
    m = a.m
    f = _as_float_vector(f, "f", m)
    left, right = _general_panels(arr)
    c2 = BidiagonalMatrix(np.diag(arr).copy(), np.diag(arr, 1).copy())
    budget = _reduction_budget(
        m, frobenius_norm(a), float(np.linalg.norm(f)), "bidiagonal"
    )
    return ReductionResult(
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
    a: DenseMatrix, f, *, route: str | None = None
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
    inner = solve_cc_tridiagonal(reduction.matrix, reduction.rhs)
    z = _apply_reflectors(reduction.q_reflectors, inner.x_plus, reverse=True)
    return z, DenseSolveDiagnostics(route=route, reduction=reduction, inner=inner)
