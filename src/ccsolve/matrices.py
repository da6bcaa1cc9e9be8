"""Matrix containers, products, norms, condition numbers, and the
floating-point model.

Every computation in the package runs in float64, so the unit roundoff
eps1 = 2**-52 and the underflow threshold eps0 of the residual bound and the
error budgets are the module constants EPS1 and EPS0, not parameters.

Conventions used across the package (1-based, as in the docstrings):
the main diagonal holds q_1..q_m, the sub-diagonal p_2..p_m with p_i at
row i column i-1, and the super-diagonal r_2..r_m with r_i at row i-1
column i.  Row i of a tridiagonal product is therefore
p_i*x_{i-1} + q_i*x_i + r_{i+1}*x_{i+1} with out-of-range terms zero.
An upper bidiagonal is the tridiagonal with p = 0: its ``p`` reads as zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BidiagonalMatrix",
    "DenseMatrix",
    "EPS0",
    "EPS1",
    "TridiagonalMatrix",
    "condition_number",
    "condition_number_inf",
    "dense_array",
    "frobenius_norm",
    "matvec",
    "norm_inf",
]


# float64 unit roundoff and smallest normal number.  The residual bound is
# valid only for the roundoff of the arithmetic actually used.
EPS1 = float(np.finfo(np.float64).eps)
EPS0 = float(np.finfo(np.float64).tiny)


def _as_float_vector(values, name, length=None):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass
class TridiagonalMatrix:
    """Square tridiagonal matrix stored by bands q (diagonal, length m),
    p (sub-diagonal, length m-1) and r (super-diagonal, length m-1)."""

    q: np.ndarray
    p: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.q = _as_float_vector(self.q, "q")
        if self.q.size < 1:
            raise ValueError("order must be at least 1")
        self.p = _as_float_vector(self.p, "p", self.q.size - 1)
        self.r = _as_float_vector(self.r, "r", self.q.size - 1)

    @property
    def m(self) -> int:
        return self.q.size


@dataclass
class BidiagonalMatrix:
    """Square upper-bidiagonal matrix stored by bands q (diagonal) and
    r (super-diagonal, length m-1); its read-only sub-diagonal p is zero."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.q = _as_float_vector(self.q, "q")
        if self.q.size < 1:
            raise ValueError("order must be at least 1")
        self.r = _as_float_vector(self.r, "r", self.q.size - 1)

    @property
    def m(self) -> int:
        return self.q.size

    @property
    def p(self) -> np.ndarray:
        return np.zeros(self.q.size - 1)


@dataclass
class DenseMatrix:
    """Square dense matrix."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("a must be a square two-dimensional array")
        if arr.shape[0] < 1:
            raise ValueError("order must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("a must contain only finite values")
        self.a = arr

    @property
    def m(self) -> int:
        return self.a.shape[0]


Matrix = TridiagonalMatrix | BidiagonalMatrix | DenseMatrix
_BANDED = (TridiagonalMatrix, BidiagonalMatrix)


def _require(w, kinds):
    """w itself, or TypeError when it is none of the container types kinds."""
    if not isinstance(w, kinds):
        raise TypeError(f"unsupported matrix type {type(w).__name__}")
    return w


def matvec(w: Matrix, x) -> np.ndarray:
    """Product W @ x for any of the three matrix containers, the banded ones
    through their bands."""
    if isinstance(w, DenseMatrix):
        return w.a @ _as_float_vector(x, "x", w.m)
    x = _as_float_vector(x, "x", _require(w, _BANDED).m)
    y = w.q * x
    y[1:] += w.p * x[:-1]
    y[:-1] += w.r * x[1:]
    return y


def dense_array(w: Matrix) -> np.ndarray:
    """Dense ndarray with the entries of any matrix container, a copy for a
    DenseMatrix."""
    if isinstance(w, DenseMatrix):
        return np.array(w.a, dtype=float)
    m = _require(w, _BANDED).m
    a = np.zeros((m, m))
    np.fill_diagonal(a, w.q)
    i = np.arange(m - 1)
    a[i, i + 1] = w.r
    a[i + 1, i] = w.p
    return a


def _band_sums(w: TridiagonalMatrix | BidiagonalMatrix):
    """(row sums, |q|, |p|, |r|) of a band container's absolute entries, from
    one walk over its bands."""
    abs_q, abs_p, abs_r = np.abs(w.q), np.abs(w.p), np.abs(w.r)
    sums = abs_q.copy()
    with np.errstate(over="ignore"):  # an overflowing row sum is inf
        sums[1:] += abs_p
        sums[:-1] += abs_r
    return sums, abs_q, abs_p, abs_r


def band_maxima(w: TridiagonalMatrix | BidiagonalMatrix):
    """(norm_inf(w), max|q|, max|p|, max|r|) of a band container, for a
    solve that needs all four; an empty band (order 1) has maximum 0."""
    return tuple(float(a.max(initial=0.0)) for a in _band_sums(w))


def norm_inf(w: Matrix) -> float:
    """Maximum absolute row sum; O(m) from the bands of a band container."""
    if isinstance(w, _BANDED):
        return float(np.max(_band_sums(w)[0]))
    with np.errstate(over="ignore"):  # an overflowing row sum is inf
        return float(np.max(np.sum(np.abs(_require(w, DenseMatrix).a), axis=1)))


def _norm2(x: np.ndarray) -> float:
    """Euclidean norm of the finite entries of x: np.linalg.norm's value
    wherever that is finite; when the squares overflow, the norm of the
    power-of-two rescaling x * 2^-k (max|x * 2^-k| in [0.5, 1)) scaled back,
    which is inf only when the norm itself exceeds the float range."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if math.isinf(norm):
            k = math.frexp(float(np.max(np.abs(x))))[1]
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(x, -k)), k))
    return norm


def frobenius_norm(w: Matrix) -> float:
    """Euclidean (Frobenius) norm of the entries; O(m) from the bands of a
    band container."""
    if isinstance(w, _BANDED):
        return _norm2(np.concatenate([w.q, w.r, w.p]))
    return _norm2(_require(w, DenseMatrix).a)


def _singular_extremes(w: Matrix) -> tuple[float, float]:
    """(sigma_max, sigma_min) from a full singular value computation, the
    oracle behind condition numbers and delta_R; a DenseMatrix is read in
    place, a band container densified once."""
    arr = w.a if isinstance(w, DenseMatrix) else dense_array(w)
    sigma = np.linalg.svd(arr, compute_uv=False)
    return float(sigma[0]), float(sigma[-1])


def _condition_from(smax: float, smin: float, m: int) -> float:
    """sigma_max/sigma_min, or +inf when sigma_min <= sigma_max * m * eps1."""
    if smin <= smax * m * EPS1:
        return float("inf")
    return smax / smin


def condition_number(a: Matrix) -> float:
    """Spectral condition number sigma_max/sigma_min from a full singular
    value computation; +inf when sigma_min <= sigma_max * m * eps1."""
    return _condition_from(*_singular_extremes(a), a.m)


def _band_inverse_rows(w, scale: float) -> list[float]:
    """Row sums of |(W/scale)^-1| for a band container, in O(m) time and
    memory with no m x m array.

    Row i of the inverse of a tridiagonal matrix is semiseparable: with the
    forward pivots d_i = q_i - p_i r_i / d_(i-1) and the backward pivots
    e_i = q_i - r_(i+1) p_(i+1) / e_(i+1), its diagonal entry is
    1/(d_i + e_i - q_i), and each entry left (right) of it is the next one
    times -p_(k+1)/d_k (-r_k/e_k).  So the row sum is
    |G_ii| (1 + L_i + U_i) with L_i = |p_i/d_(i-1)| (1 + L_(i-1)) and
    U_i = |r_(i+1)/e_(i+1)| (1 + U_(i+1)).  As a divisor, a one-sided pivot
    below eps1 in magnitude (zero when a leading or trailing minor vanishes)
    is replaced by eps1: that perturbs W by O(eps1) and keeps every quotient
    finite.  An exactly zero two-sided pivot d_i + e_i - q_i makes the row
    infinite (W is singular)."""
    m = w.m
    q = (w.q / scale).tolist()
    # 0-based: p[i] at (i, i-1) and r[i] at (i-1, i) for 0 < i < m; the zero
    # padding at 0 and m starts both recurrences at the matrix edges
    r = [0.0, *(w.r / scale).tolist(), 0.0]
    p = [0.0, *(w.p / scale).tolist(), 0.0]
    e = [0.0] * m
    u = [0.0] * m
    piv, up = 1.0, 0.0
    for i in range(m - 1, -1, -1):
        e[i] = q[i] - r[i + 1] * p[i + 1] / piv
        up = u[i] = abs(r[i + 1] / piv) * (1.0 + up)
        piv = e[i] if abs(e[i]) >= EPS1 else EPS1
    rows = [0.0] * m
    piv, lo = 1.0, 0.0
    for i in range(m):
        d = q[i] - p[i] * r[i] / piv
        lo = abs(p[i] / piv) * (1.0 + lo)
        piv = d if abs(d) >= EPS1 else EPS1
        den = abs(d + e[i] - q[i])
        rows[i] = (1.0 + lo + u[i]) / den if den else float("inf")
    return rows


def condition_number_inf(a: Matrix) -> float:
    """Infinity-norm condition number ||W||_inf * ||W^-1||_inf; +inf when
    kappa * m * eps1 >= 1, on a non-finite value, or when W is exactly
    singular (a zero two-sided pivot, or a zero pivot of the dense LU).

    Band input costs O(m) time and memory: ||W^-1||_inf is exact from the
    semiseparable rows of the inverse (Higham, SIAM J. Sci. Stat. Comput. 7,
    1986).  Dense input is inverted, O(m^3) like the dense solve."""
    anorm = norm_inf(a)
    if anorm == 0.0:
        return float("inf")
    # kappa is the largest row sum of |(W/anorm)^-1|; scaling keeps the
    # inverse of a badly scaled but well-conditioned W finite
    if isinstance(a, DenseMatrix):
        try:
            inv = np.linalg.inv(a.a / anorm)
        except np.linalg.LinAlgError:
            return float("inf")
        with np.errstate(over="ignore"):
            rows = np.sum(np.abs(inv), axis=1)
    else:
        rows = _band_inverse_rows(a, anorm)
    kappa = float(np.max(rows))  # a nan row stays nan
    if not kappa * a.m * EPS1 < 1.0:
        return float("inf")
    return kappa
