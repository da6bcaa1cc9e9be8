"""Textbook comparison solvers on any matrix container: Gaussian elimination
with partial pivoting (one banded elimination for both band types), and on
the entries :func:`matrices.dense_array` reads, Householder QR, truncated-SVD
pseudo-solution, and Tikhonov regularization with a discrepancy-principle
choice of the regularization parameter.

The truncated-SVD and Tikhonov solvers read one full SVD A = U diag(s) V^T:
Tikhonov runs in filter-factor form on it (Hansen, Rank-Deficient and
Discrete Ill-Posed Problems, 1998), so each regularization parameter it
tries costs O(m) and it never forms A^T A.  Each public solver computes its
own SVD; the benchmark computes one per case and hands it to both.

These are deliberately plain implementations; they return a solution whenever
the arithmetic goes through and report failure only on exact singularity
(zero pivot / zero R diagonal), or — for the SVD solver in emulation mode —
on pathological conditioning.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .matrices import (
    EPS0,
    EPS1,
    DenseMatrix,
    Matrix,
    _as_float_vector,
    _require,
    dense_array,
)
from .reduction import _apply_reflectors, _reflector

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
    aug = np.hstack([a, y.reshape(-1, 1)])
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


def _gauss_band(w, y: np.ndarray) -> np.ndarray | None:
    # Banded LU with adjacent-row partial pivoting on Python floats; pivoting
    # introduces at most one extra (second) superdiagonal of fill.  With
    # p = 0 (a bidiagonal) it never swaps or eliminates: back substitution.
    m = w.m
    d = w.q.tolist()
    e1 = [*w.r.tolist(), 0.0]
    e2 = [0.0] * m
    sub = [0.0, *w.p.tolist()]
    b = y.tolist()
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
    if d[m - 1] == 0.0:
        return None
    b += [0.0, 0.0]  # x_(m+1) = x_(m+2) = 0
    for i in range(m - 1, -1, -1):
        b[i] = (b[i] - e1[i] * b[i + 1] - e2[i] * b[i + 2]) / d[i]
    return np.array(b[:m])


def solve_gauss(w: Matrix, y) -> SolverOutcome:
    """LU with partial pivoting; the banded one for the band containers.

    Returns a solution even when the system is badly conditioned; fails only
    when elimination meets an exactly zero pivot with no admissible swap.
    """
    y = _as_float_vector(y, "y", _require(w, Matrix).m)
    x = _gauss_dense(w.a, y) if isinstance(w, DenseMatrix) else _gauss_band(w, y)
    note = "" if x is not None else "exactly singular pivot"
    return SolverOutcome(solver_id="GS", x=x, note=note)


def solve_qr(w: Matrix, y) -> SolverOutcome:
    """Householder QR followed by back substitution; fails only on an exactly
    zero diagonal entry of R."""
    r_mat = dense_array(w)
    m = w.m
    y = _as_float_vector(y, "y", m)
    reflectors = []
    with np.errstate(over="ignore"):  # see reduction._reflector
        for k in range(m - 1):
            step = _reflector(r_mat[k:, k])
            if step is None:
                continue
            v, alpha = step
            r_mat[k, k] = alpha
            block = r_mat[k:, k + 1 :]
            block -= np.outer(v, 2.0 * (v @ block))
            reflectors.append((k, v))
    qty = _apply_reflectors(reflectors, y)
    diag = np.diag(r_mat)
    if np.any(diag == 0.0):
        return SolverOutcome(solver_id="QR", x=None, note="exactly zero R diagonal")
    x = np.zeros(m)
    for i in range(m - 1, -1, -1):
        x[i] = (qty[i] - r_mat[i, i + 1 :] @ x[i + 1 :]) / r_mat[i, i]
    return SolverOutcome(solver_id="QR", x=x)


# (u, s, vt) of np.linalg.svd on a matrix's entries, on demand
_SVDFactors = Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _lazy_svd(w: Matrix) -> _SVDFactors:
    """Zero-argument callable returning the full SVD (u, s, vt) of w's
    entries, computed on the first call and kept by the callable: the one
    factorization the SVD and Tikhonov solvers read."""
    return functools.cache(lambda: np.linalg.svd(dense_array(w)))


def solve_svd_truncated(
    w: Matrix,
    y,
    rel_tol: float | None = None,
    emulate_failure: bool = False,
) -> SolverOutcome:
    """Pseudo-solution through the full SVD with small singular values zeroed.

    Singular values at or below rel_tol * sigma_max (default rel_tol = m *
    eps1; NaN raises ValueError) are treated as zero, and the minimal-norm
    solution on the retained subspace is returned; the note records the
    numerical rank.  With emulate_failure=True the solver declines
    pathologically conditioned systems (sigma_min < eps1 * sigma_max) with a
    failure marker, mimicking library routines that stop on rank deficiency.
    """
    return _svd_truncated(w, y, _lazy_svd(w), rel_tol, emulate_failure)


def _svd_truncated(
    w: Matrix, y, svd: _SVDFactors, rel_tol=None, emulate_failure=False
) -> SolverOutcome:
    """solve_svd_truncated on the SVD that svd() returns."""
    m = _require(w, Matrix).m
    y = _as_float_vector(y, "y", m)
    if rel_tol is None:
        rel_tol = m * EPS1
    elif np.isnan(rel_tol):
        raise ValueError("rel_tol must not be NaN")
    u, s, vt = svd()
    smax = float(s[0])
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
    w: Matrix,
    y,
    delta_star: float | None = None,
) -> SolverOutcome:
    """Tikhonov-regularized solution with alpha chosen by the discrepancy
    principle, in filter-factor form on the full SVD A = U diag(s) V^T.

    With c = U^T y, the minimizer of ||A z - y||^2 + alpha ||z||^2 is
    z(alpha) = V (s / (s^2 + alpha) * c), and its discrepancy is
    r(alpha) = ||A z - y|| = ||alpha / (s^2 + alpha) * c||, so after the one
    SVD each alpha costs O(m); no A^T A is formed.  alpha walks a geometric
    grid up from alpha_min = max(eps1^2 * max(s_1^2, eps0), eps0), which
    keeps alpha positive so that a zero singular value gets a zero filter
    factor, until r brackets delta_star, then bisects (geometrically) on the
    monotone r until |r(alpha) - delta_star| <= 1e-3 * max(delta_star,
    eps1 * ||y||).  When delta_star is None it defaults to eps1 * (||A||_E
    ||z0|| + ||y||), with ||A||_E = ||s|| and z0 the smallest-alpha iterate;
    a negative or NaN one raises ValueError.  When delta_star lies below the
    minimal attainable residual the smallest-alpha iterate is returned with
    a note.
    """
    return _tikhonov(w, y, _lazy_svd(w), delta_star)


def _coefficients(s, s2, c, alpha: float) -> np.ndarray:
    """V^T z(alpha) = s / (s^2 + alpha) * c, for s2 = s * s and c = U^T y;
    a zero singular value gets a zero filter factor while alpha > 0."""
    return s / (s2 + alpha) * c


def _discrepancy(s2, c, alpha: float) -> float:
    """||A z(alpha) - y|| = ||alpha / (s^2 + alpha) * c||, as U is square and
    orthogonal: O(m), with no product by A."""
    v = alpha / (s2 + alpha) * c
    return math.sqrt(v @ v)


def _tikhonov(w: Matrix, y, svd: _SVDFactors, delta_star=None) -> SolverOutcome:
    """solve_tikhonov on the SVD that svd() returns."""
    m = _require(w, Matrix).m
    y = _as_float_vector(y, "y", m)
    if delta_star is not None and not delta_star >= 0.0:
        raise ValueError("delta_star must be nonnegative and not NaN")
    u, s, vt = svd()
    c = u.T @ y
    s2 = s * s
    scale = max(float(s2[0]), EPS0)

    def outcome(alpha: float, note: str) -> SolverOutcome:
        return SolverOutcome(
            solver_id="TRM", x=vt.T @ _coefficients(s, s2, c, alpha), note=note
        )

    alpha_min = max(EPS1**2 * scale, EPS0)
    r0 = _discrepancy(s2, c, alpha_min)
    if delta_star is None:
        z0_norm = float(np.linalg.norm(_coefficients(s, s2, c, alpha_min)))
        delta_star = EPS1 * (float(np.linalg.norm(s)) * z0_norm + float(np.linalg.norm(y)))
    tol = 1e-3 * max(delta_star, EPS1 * float(np.linalg.norm(y)))
    if r0 > delta_star:
        return outcome(
            alpha_min, "delta_star below minimal attainable residual; smallest-alpha iterate"
        )
    # Walk the geometric grid until the discrepancy brackets delta_star.
    lo = hi = alpha_min
    r_hi = r0
    while r_hi < delta_star:
        hi *= 10.0
        r_hi = _discrepancy(s2, c, hi)
        if hi > 1e30 * scale:
            return outcome(
                hi, "delta_star above attainable residual range; largest-alpha iterate"
            )
        if r_hi < delta_star:
            lo = hi
    best_alpha, best_gap = alpha_min, abs(r0 - delta_star)
    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi may underflow
        r_mid = _discrepancy(s2, c, mid)
        gap = abs(r_mid - delta_star)
        if gap < best_gap:
            best_alpha, best_gap = mid, gap
        if gap <= tol:
            return outcome(mid, f"alpha = {mid:.6g}")
        if r_mid < delta_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= EPS1 * hi:
            break
    return outcome(best_alpha, "discrepancy bisection reached resolution limit")
