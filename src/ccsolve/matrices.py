"""Matrix containers, products, norms, and condition numbers.

Conventions used across the package (1-based, as in the docstrings):
the main diagonal holds q_1..q_m, the sub-diagonal p_2..p_m with p_i at
row i column i-1, and the super-diagonal r_2..r_m with r_i at row i-1
column i.  Row i of a tridiagonal product is therefore
p_i*x_{i-1} + q_i*x_i + r_{i+1}*x_{i+1} with out-of-range terms zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BidiagonalMatrix",
    "DEFAULT_PRECISION",
    "DenseMatrix",
    "Precision",
    "TridiagonalMatrix",
    "condition_number",
    "dense_array",
    "frobenius_norm",
    "matvec",
    "matvec_bidiagonal",
    "matvec_tridiagonal",
    "norm_inf",
    "to_dense",
]


@dataclass(frozen=True)
class Precision:
    """Floating-point model: unit roundoff and underflow threshold."""

    eps1: float = float(np.finfo(np.float64).eps)
    eps0: float = float(np.finfo(np.float64).tiny)

    def __post_init__(self):
        if not 0.0 < self.eps0 < self.eps1 < 1.0:
            raise ValueError("precision requires 0 < eps0 < eps1 < 1")


DEFAULT_PRECISION = Precision()


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
    r (super-diagonal, length m-1)."""

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


def matvec_tridiagonal(c3: TridiagonalMatrix, x) -> np.ndarray:
    """Product C3 @ x using the band representation."""
    x = _as_float_vector(x, "x", c3.m)
    y = c3.q * x
    if c3.m > 1:
        y[1:] += c3.p * x[:-1]
        y[:-1] += c3.r * x[1:]
    return y


def matvec_bidiagonal(c2: BidiagonalMatrix, x) -> np.ndarray:
    """Product C2 @ x using the band representation."""
    x = _as_float_vector(x, "x", c2.m)
    y = c2.q * x
    if c2.m > 1:
        y[:-1] += c2.r * x[1:]
    return y


def matvec(w: Matrix, x) -> np.ndarray:
    """Product W @ x for any of the three matrix containers."""
    if isinstance(w, TridiagonalMatrix):
        return matvec_tridiagonal(w, x)
    if isinstance(w, BidiagonalMatrix):
        return matvec_bidiagonal(w, x)
    if isinstance(w, DenseMatrix):
        return w.a @ _as_float_vector(x, "x", w.m)
    raise TypeError(f"unsupported matrix type {type(w).__name__}")


def dense_array(w) -> np.ndarray:
    """Dense ndarray with the entries of any matrix container (a plain
    square ndarray passes through as a float copy)."""
    if isinstance(w, DenseMatrix):
        return np.array(w.a, dtype=float)
    if isinstance(w, np.ndarray):
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("array must be square and two-dimensional")
        return np.array(w, dtype=float)
    m = w.m
    a = np.zeros((m, m))
    np.fill_diagonal(a, w.q)
    if m > 1:
        a[np.arange(m - 1), np.arange(1, m)] = w.r
        if isinstance(w, TridiagonalMatrix):
            a[np.arange(1, m), np.arange(m - 1)] = w.p
    return a


def to_dense(w: Matrix) -> DenseMatrix:
    """Dense container with the entries of a band container; a DenseMatrix
    is returned unchanged."""
    return w if isinstance(w, DenseMatrix) else DenseMatrix(dense_array(w))


def norm_inf(w: Matrix) -> float:
    """Maximum absolute row sum; O(m) from the bands of a band container."""
    if isinstance(w, (TridiagonalMatrix, BidiagonalMatrix)):
        sums = np.abs(w.q)
        if w.m > 1:
            if isinstance(w, TridiagonalMatrix):
                sums[1:] += np.abs(w.p)
            sums[:-1] += np.abs(w.r)
        return float(np.max(sums))
    a = w.a if isinstance(w, DenseMatrix) else dense_array(w)
    return float(np.max(np.sum(np.abs(a), axis=1)))


def frobenius_norm(w: Matrix) -> float:
    """Euclidean (Frobenius) norm of the entries; O(m) from the bands of a
    band container."""
    if isinstance(w, (TridiagonalMatrix, BidiagonalMatrix)):
        bands = [w.q, w.r] + ([w.p] if isinstance(w, TridiagonalMatrix) else [])
        return float(np.linalg.norm(np.concatenate(bands)))
    a = w.a if isinstance(w, DenseMatrix) else dense_array(w)
    return float(np.linalg.norm(a))


def condition_number(a: Matrix, prec: Precision = DEFAULT_PRECISION) -> float:
    """Spectral condition number sigma_max/sigma_min from a full singular
    value computation; +inf when sigma_min <= sigma_max * m * eps1."""
    arr = a.a if isinstance(a, DenseMatrix) else dense_array(a)
    sigma = np.linalg.svd(arr, compute_uv=False)
    smax = float(sigma[0])
    smin = float(sigma[-1])
    if smin <= smax * arr.shape[0] * prec.eps1:
        return float("inf")
    return smax / smin
