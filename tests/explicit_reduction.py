"""Reference for the trailing-submatrix reduction: the full-update loops.

These are ``reduce_symmetric``, ``reduce_general`` and ``_reflector`` as they
stood when every reflector was applied to the whole m x m array and Q and P
were accumulated as explicit dense matrices.  The loops are kept verbatim
apart from the names, the docstrings and the result type, which carries the
explicit factors.  The oracle tests compare the reduction against them; they
are not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ccsolve.matrices import BidiagonalMatrix, DenseMatrix, TridiagonalMatrix
from ccsolve.reduction import is_symmetric


@dataclass
class ExplicitReduction:
    matrix: TridiagonalMatrix | BidiagonalMatrix
    rhs: np.ndarray
    q_factor: np.ndarray
    p_factor: np.ndarray | None


def explicit_reflector(x: np.ndarray) -> np.ndarray | None:
    """Unit Householder vector annihilating x[1:], or None when x[1:] is
    already exactly zero (no reflection applied)."""
    if float(np.linalg.norm(x[1:])) == 0.0:
        return None
    alpha = -float(np.copysign(np.linalg.norm(x), x[0]))
    v = x.astype(float).copy()
    v[0] -= alpha
    v /= np.linalg.norm(v)
    return v


def explicit_reduce_symmetric(a: DenseMatrix, f) -> ExplicitReduction:
    """Householder similarity reduction to tridiagonal form, each reflector
    applied to the whole array from both sides."""
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric within tolerance")
    m = a.m
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise ValueError(f"f must have length {m}")
    arr = a.a.copy()
    q_factor = np.eye(m)
    for k in range(m - 2):
        tail = explicit_reflector(arr[k + 1 :, k].copy())
        if tail is None:
            continue
        v = np.zeros(m)
        v[k + 1 :] = tail
        arr -= 2.0 * np.outer(v, v @ arr)
        arr -= 2.0 * np.outer(arr @ v, v)
        q_factor -= 2.0 * np.outer(q_factor @ v, v)
    c3 = TridiagonalMatrix(
        np.diag(arr).copy(), np.diag(arr, -1).copy(), np.diag(arr, 1).copy()
    )
    return ExplicitReduction(
        matrix=c3, rhs=q_factor.T @ f, q_factor=q_factor, p_factor=None
    )


def explicit_reduce_general(a: DenseMatrix, f) -> ExplicitReduction:
    """Two-sided Householder reduction to upper-bidiagonal form, each
    reflector applied to the whole array."""
    m = a.m
    f = np.asarray(f, dtype=float)
    if f.shape != (m,):
        raise ValueError(f"f must have length {m}")
    arr = a.a.copy()
    p_factor = np.eye(m)
    q_factor = np.eye(m)
    for k in range(m - 1):
        tail = explicit_reflector(arr[k:, k].copy())
        if tail is not None:
            v = np.zeros(m)
            v[k:] = tail
            arr -= 2.0 * np.outer(v, v @ arr)
            p_factor -= 2.0 * np.outer(v, v @ p_factor)
        if k <= m - 3:
            tail = explicit_reflector(arr[k, k + 1 :].copy())
            if tail is None:
                continue
            v = np.zeros(m)
            v[k + 1 :] = tail
            arr -= 2.0 * np.outer(arr @ v, v)
            q_factor -= 2.0 * np.outer(q_factor @ v, v)
    c2 = BidiagonalMatrix(np.diag(arr).copy(), np.diag(arr, 1).copy())
    return ExplicitReduction(
        matrix=c2, rhs=p_factor @ f, q_factor=q_factor, p_factor=p_factor
    )
