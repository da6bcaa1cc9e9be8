"""Textbook comparison solvers: Gaussian elimination with partial pivoting
(band-exploiting for the banded matrix types), Householder QR, truncated-SVD
pseudo-solution, and Tikhonov regularization with a discrepancy-principle
choice of the regularization parameter.

These are deliberately plain implementations; they return a solution whenever
the arithmetic goes through and report failure only on exact singularity
(zero pivot / zero R diagonal), or — for the SVD solver in emulation mode —
on pathological conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    EPS0,
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    Matrix,
    TridiagonalMatrix,
    dense_array,
    frobenius_norm,
)

__all__ = [
    "SolverOutcome",
    "solve_gauss",
    "solve_qr",
    "solve_svd_truncated",
    "solve_tikhonov",
]


@dataclass
class SolverOutcome:
    """Result of one reference-solver call: the solution vector, or None on
    failure, plus a short free-form note (rank, parameter choice, ...)."""

    solver_id: str
    x: np.ndarray | None
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.x is None


def _gauss_dense(a: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    m = a.shape[0]
    aug = np.hstack([a.astype(float), y.reshape(-1, 1).astype(float)])
    for k in range(m):
        piv = k + int(np.argmax(np.abs(aug[k:, k])))
        if aug[piv, k] == 0.0:
            return None
        if piv != k:
            aug[[k, piv]] = aug[[piv, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])
    x = np.zeros(m)
    for i in range(m - 1, -1, -1):
        x[i] = (aug[i, m] - aug[i, i + 1 : m] @ x[i + 1 :]) / aug[i, i]
    return x


def _gauss_tridiagonal(c3: TridiagonalMatrix, y: np.ndarray) -> np.ndarray | None:
    # Banded LU with adjacent-row partial pivoting; pivoting introduces at
    # most one extra (second) superdiagonal of fill.
    m = c3.m
    d = c3.q.astype(float).copy()
    e1 = np.zeros(m)
    e1[: m - 1] = c3.r
    e2 = np.zeros(m)
    sub = np.zeros(m)
    sub[1:] = c3.p
    b = np.asarray(y, dtype=float).copy()
    for k in range(m - 1):
        if abs(sub[k + 1]) > abs(d[k]):
            d[k], sub[k + 1] = sub[k + 1], d[k]
            e1[k], d[k + 1] = d[k + 1], e1[k]
            e2[k], e1[k + 1] = e1[k + 1], e2[k]
            b[k], b[k + 1] = b[k + 1], b[k]
        if d[k] == 0.0:
            return None
        if sub[k + 1] != 0.0:
            factor = sub[k + 1] / d[k]
            d[k + 1] -= factor * e1[k]
            e1[k + 1] -= factor * e2[k]
            b[k + 1] -= factor * b[k]
            sub[k + 1] = 0.0
    if d[m - 1] == 0.0:
        return None
    x = np.zeros(m)
    for i in range(m - 1, -1, -1):
        acc = b[i]
        if i + 1 < m:
            acc -= e1[i] * x[i + 1]
        if i + 2 < m:
            acc -= e2[i] * x[i + 2]
        x[i] = acc / d[i]
    return x


def _gauss_bidiagonal(c2: BidiagonalMatrix, y: np.ndarray) -> np.ndarray | None:
    m = c2.m
    if np.any(c2.q == 0.0):
        return None
    x = np.zeros(m)
    b = np.asarray(y, dtype=float)
    x[m - 1] = b[m - 1] / c2.q[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (b[i] - c2.r[i] * x[i + 1]) / c2.q[i]
    return x


def solve_gauss(w: Matrix, y) -> SolverOutcome:
    """LU with partial pivoting; banded variants for the banded types.

    Returns a solution even when the system is badly conditioned; fails only
    when elimination meets an exactly zero pivot with no admissible swap.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (w.m,):
        raise ValueError(f"y must have length {w.m}")
    if isinstance(w, TridiagonalMatrix):
        x = _gauss_tridiagonal(w, y)
    elif isinstance(w, BidiagonalMatrix):
        x = _gauss_bidiagonal(w, y)
    else:
        x = _gauss_dense(dense_array(w), y)
    note = "" if x is not None else "exactly singular pivot"
    return SolverOutcome(solver_id="GS", x=x, note=note)


def solve_qr(a: DenseMatrix, y) -> SolverOutcome:
    """Householder QR followed by back substitution; fails only on an exactly
    zero diagonal entry of R."""
    m = a.m
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}")
    r_mat = a.a.copy()
    qty = y.copy()
    for k in range(m - 1):
        col = r_mat[k:, k]
        if float(np.linalg.norm(col[1:])) == 0.0:
            continue
        alpha = -float(np.copysign(np.linalg.norm(col), col[0]))
        v = col.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        r_mat[k:, k:] -= 2.0 * np.outer(v, v @ r_mat[k:, k:])
        qty[k:] -= 2.0 * v * (v @ qty[k:])
    diag = np.diag(r_mat)
    if np.any(diag == 0.0):
        return SolverOutcome(solver_id="QR", x=None, note="exactly zero R diagonal")
    x = np.zeros(m)
    for i in range(m - 1, -1, -1):
        x[i] = (qty[i] - r_mat[i, i + 1 :] @ x[i + 1 :]) / r_mat[i, i]
    return SolverOutcome(solver_id="QR", x=x)


def solve_svd_truncated(
    a: DenseMatrix,
    y,
    rel_tol: float | None = None,
    emulate_failure: bool = False,
) -> SolverOutcome:
    """Pseudo-solution through the full SVD with small singular values zeroed.

    Singular values at or below rel_tol * sigma_max (default rel_tol = m *
    eps1) are treated as zero, and the minimal-norm solution on the retained
    subspace is returned; the note records the numerical rank.  With
    emulate_failure=True the solver declines pathologically conditioned
    systems (sigma_min < eps1 * sigma_max) with a failure marker, mimicking
    library routines that stop on rank deficiency.
    """
    m = a.m
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}")
    if rel_tol is None:
        rel_tol = m * EPS1
    u, s, vt = np.linalg.svd(a.a)
    smax = float(s[0]) if m else 0.0
    if emulate_failure and (smax == 0.0 or float(s[-1]) < EPS1 * smax):
        return SolverOutcome(
            solver_id="SVD", x=None, note="declined: matrix is rank-deficient at working precision"
        )
    keep = s > rel_tol * smax
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        x = np.zeros(m)
    else:
        x = vt[keep].T @ ((u[:, keep].T @ y) / s[keep])
    return SolverOutcome(solver_id="SVD", x=x, note=f"numerical rank {rank} of {m}")


def solve_tikhonov(
    a: DenseMatrix,
    y,
    delta_star: float | None = None,
) -> SolverOutcome:
    """Tikhonov-regularized solution with alpha chosen by the discrepancy
    principle.

    Solves (A^T A + alpha E) z = A^T y over a geometric alpha grid, then
    bisects on the monotone discrepancy r(alpha) = ||A z - y|| until
    |r(alpha) - delta_star| <= 1e-3 * max(delta_star, eps1 * ||y||).  When
    delta_star is None it defaults to eps1 * (||A||_E ||z0|| + ||y||) with z0
    the smallest-alpha iterate; when delta_star lies below the minimal
    attainable residual the smallest-alpha iterate is returned with a note.
    """
    m = a.m
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}")
    if delta_star is not None and delta_star < 0.0:
        raise ValueError("delta_star must be nonnegative")
    arr = a.a
    ata = arr.T @ arr
    aty = arr.T @ y
    eye = np.eye(m)
    scale = max(float(np.max(np.abs(ata))), EPS0)

    def solve_at(alpha: float) -> tuple[np.ndarray, float]:
        z = np.linalg.solve(ata + alpha * eye, aty)
        return z, float(np.linalg.norm(arr @ z - y))

    alpha_min = EPS1**2 * scale
    z0, r0 = solve_at(alpha_min)
    if delta_star is None:
        delta_star = EPS1 * (
            frobenius_norm(a) * float(np.linalg.norm(z0)) + float(np.linalg.norm(y))
        )
    tol = 1e-3 * max(delta_star, EPS1 * float(np.linalg.norm(y)))
    if r0 > delta_star:
        return SolverOutcome(
            solver_id="TRM",
            x=z0,
            note="delta_star below minimal attainable residual; smallest-alpha iterate",
        )
    # Walk the geometric grid until the discrepancy brackets delta_star.
    lo, r_lo = alpha_min, r0
    hi = alpha_min
    r_hi = r0
    while r_hi < delta_star:
        hi *= 10.0
        z_hi, r_hi = solve_at(hi)
        if hi > 1e30 * scale:
            return SolverOutcome(
                solver_id="TRM",
                x=z_hi,
                note="delta_star above attainable residual range; largest-alpha iterate",
            )
        if r_hi < delta_star:
            lo, r_lo = hi, r_hi
    best_z, best_gap = (z0, abs(r0 - delta_star))
    for _ in range(200):
        mid = float(np.sqrt(lo * hi))
        z_mid, r_mid = solve_at(mid)
        gap = abs(r_mid - delta_star)
        if gap < best_gap:
            best_z, best_gap = z_mid, gap
        if gap <= tol:
            return SolverOutcome(
                solver_id="TRM", x=z_mid, note=f"alpha = {mid:.6g}"
            )
        if r_mid < delta_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= EPS1 * hi:
            break
    return SolverOutcome(
        solver_id="TRM",
        x=best_z,
        note="discrepancy bisection reached resolution limit",
    )
