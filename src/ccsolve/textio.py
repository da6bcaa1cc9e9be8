"""Plain-text exchange format for matrices and vectors.

Matrix files start with a header line ``tridiagonal <m>``, ``bidiagonal <m>``
or ``dense <m>``.  Band matrices follow with one line per band (q with m
numbers, then p with m-1 for tridiagonal, then r with m-1); dense matrices
follow with m rows of m numbers.  Vector files hold one number per line.
Numbers are written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .matrices import BidiagonalMatrix, DenseMatrix, Matrix, TridiagonalMatrix, _require

__all__ = [
    "ParseError",
    "format_number",
    "matrix_to_text",
    "parse_matrix",
    "parse_vector",
    "read_matrix",
    "read_vector",
    "vector_to_text",
    "write_matrix",
    "write_vector",
]


class ParseError(ValueError):
    """Malformed input text; the message carries a 1-based line number."""


def format_number(value: float) -> str:
    return "%.17g" % float(value)


def _parse_floats(line: str, lineno: int, expected: int) -> np.ndarray:
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(
            f"line {lineno}: expected {expected} numbers, got {len(tokens)}"
        )
    values = np.empty(expected)
    for k, token in enumerate(tokens):
        try:
            values[k] = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: invalid number {token!r}") from None
    return values


def _check_no_trailing(lines: list[str], start: int):
    for offset, line in enumerate(lines[start:], start=start + 1):
        if line.strip():
            raise ParseError(f"line {offset}: unexpected extra content")


def _line(lines: list[str], index: int) -> str:
    if index >= len(lines):
        raise ParseError(f"line {index + 1}: unexpected end of file")
    return lines[index]


def parse_matrix(text: str) -> Matrix:
    lines = text.splitlines()
    header = _line(lines, 0).split()
    if len(header) != 2:
        raise ParseError("line 1: expected header '<kind> <m>'")
    kind, m_token = header
    if kind not in ("tridiagonal", "bidiagonal", "dense"):
        raise ParseError(f"line 1: unknown matrix kind {kind!r}")
    try:
        m = int(m_token)
    except ValueError:
        raise ParseError(f"line 1: invalid order {m_token!r}") from None
    if m < 1:
        raise ParseError(f"line 1: order must be positive, got {m}")

    if kind == "dense":
        rows = [_parse_floats(_line(lines, 1 + i), 2 + i, m) for i in range(m)]
        _check_no_trailing(lines, 1 + m)
        return DenseMatrix(np.array(rows))

    q = _parse_floats(_line(lines, 1), 2, m)
    if kind == "tridiagonal":
        p = _parse_floats(_line(lines, 2), 3, m - 1)
        r = _parse_floats(_line(lines, 3), 4, m - 1)
        _check_no_trailing(lines, 4)
        return TridiagonalMatrix(q, p, r)
    r = _parse_floats(_line(lines, 2), 3, m - 1)
    _check_no_trailing(lines, 3)
    return BidiagonalMatrix(q, r)


def parse_vector(text: str) -> np.ndarray:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values.append(float(stripped))
        except ValueError:
            raise ParseError(f"line {lineno}: invalid number {stripped!r}") from None
    if not values:
        raise ParseError("line 1: empty vector")
    return np.array(values)


def matrix_to_text(w: Matrix) -> str:
    def row(values) -> str:
        return " ".join(format_number(v) for v in values)

    if isinstance(w, TridiagonalMatrix):
        lines = [f"tridiagonal {w.m}", row(w.q), row(w.p), row(w.r)]
    elif isinstance(w, BidiagonalMatrix):
        lines = [f"bidiagonal {w.m}", row(w.q), row(w.r)]
    else:
        lines = [f"dense {_require(w, DenseMatrix).m}"] + [row(r) for r in w.a]
    return "\n".join(lines) + "\n"


def vector_to_text(vec) -> str:
    values = np.asarray(vec, dtype=float)
    return "\n".join(format_number(v) for v in values) + "\n"


def read_matrix(path) -> Matrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def read_vector(path) -> np.ndarray:
    return parse_vector(Path(path).read_text(encoding="utf-8"))


def write_matrix(path, w: Matrix):
    Path(path).write_text(matrix_to_text(w), encoding="utf-8")


def write_vector(path, vec):
    Path(path).write_text(vector_to_text(vec), encoding="utf-8")
