"""Tests for the text file format and its parser."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ccsolve.matrices import BidiagonalMatrix, DenseMatrix, TridiagonalMatrix
from ccsolve.textio import (
    ParseError,
    format_number,
    matrix_to_text,
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    vector_to_text,
    write_matrix,
    write_vector,
)


def test_format_number_round_trips_doubles():
    rng = np.random.default_rng(201)
    values = list(rng.standard_normal(50)) + [0.0, 1e-300, 1e300, 2.0 ** -52]
    for v in values:
        assert float(format_number(float(v))) == float(v)


def test_tridiagonal_round_trip():
    rng = np.random.default_rng(202)
    w = TridiagonalMatrix(q=rng.standard_normal(5),
                          p=rng.standard_normal(4),
                          r=rng.standard_normal(4))
    back = parse_matrix(matrix_to_text(w))
    assert isinstance(back, TridiagonalMatrix)
    assert_array_equal(back.q, w.q)
    assert_array_equal(back.p, w.p)
    assert_array_equal(back.r, w.r)


def test_bidiagonal_round_trip():
    rng = np.random.default_rng(203)
    w = BidiagonalMatrix(q=rng.standard_normal(6), r=rng.standard_normal(5))
    back = parse_matrix(matrix_to_text(w))
    assert isinstance(back, BidiagonalMatrix)
    assert_array_equal(back.q, w.q)
    assert_array_equal(back.r, w.r)


def test_dense_round_trip():
    rng = np.random.default_rng(204)
    w = DenseMatrix(rng.standard_normal((4, 4)))
    back = parse_matrix(matrix_to_text(w))
    assert isinstance(back, DenseMatrix)
    assert_array_equal(back.a, w.a)


def test_vector_round_trip():
    rng = np.random.default_rng(205)
    v = rng.standard_normal(7)
    assert_array_equal(parse_vector(vector_to_text(v)), v)


def test_order_one_matrix_round_trip():
    w = TridiagonalMatrix(q=np.array([4.0]), p=np.zeros(0), r=np.zeros(0))
    back = parse_matrix(matrix_to_text(w))
    assert isinstance(back, TridiagonalMatrix)
    assert_array_equal(back.q, [4.0])
    assert back.p.size == 0 and back.r.size == 0


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(206)
    w = TridiagonalMatrix(q=rng.standard_normal(4),
                          p=rng.standard_normal(3),
                          r=rng.standard_normal(3))
    v = rng.standard_normal(4)
    mpath = tmp_path / "w.matrix"
    vpath = tmp_path / "y.rhs"
    write_matrix(mpath, w)
    write_vector(vpath, v)
    back = read_matrix(mpath)
    assert_array_equal(back.q, w.q)
    assert_array_equal(read_vector(vpath), v)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        parse_matrix("pentadiagonal 3\n1 2 3\n")


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        parse_matrix("tridiagonal\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_matrix("tridiagonal zero\n1\n")
    with pytest.raises(ParseError):
        parse_matrix("tridiagonal 0\n\n\n\n")


def test_parse_error_reports_line_number():
    text = "tridiagonal 3\n1 2 3\n4 oops\n6 7\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix(text)
    assert "3" in str(exc.value)


def test_wrong_entry_count_rejected():
    with pytest.raises(ParseError):
        parse_matrix("tridiagonal 3\n1 2\n4 5\n6 7\n")
    with pytest.raises(ParseError):
        parse_vector("1 2 3\n4\n")


def test_trailing_content_and_missing_lines_rejected():
    with pytest.raises(ParseError, match="line 5: unexpected extra content"):
        parse_matrix("tridiagonal 2\n1 2\n3\n4\n5\n")
    with pytest.raises(ParseError, match="line 3: unexpected end of file"):
        parse_matrix("bidiagonal 2\n1 2\n")
    # trailing blank lines are not content
    assert parse_matrix("bidiagonal 2\n1 2\n3\n\n  \n").m == 2


def test_vector_blank_lines_skipped_and_empty_rejected():
    assert_array_equal(parse_vector("\n1\n\n  \n2\n"), [1.0, 2.0])
    for text in ("", "\n \n"):
        with pytest.raises(ParseError, match="empty vector"):
            parse_vector(text)


def test_unsupported_type_not_formatted(tmp_path):
    with pytest.raises(TypeError, match="unsupported matrix type"):
        matrix_to_text(np.eye(2))
    # the text is formatted before the file is opened: nothing is written
    path = tmp_path / "w.matrix"
    with pytest.raises(TypeError, match="unsupported matrix type"):
        write_matrix(path, np.eye(2))
    assert not path.exists()


def test_vector_bad_token_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_vector("1\n2\nbad\n")
    assert "3" in str(exc.value)
