"""Tests for the command-line interface."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ccsolve.cli import main
from ccsolve.matrices import dense_array
from ccsolve.systems import generate_system
from ccsolve.textio import read_matrix, read_vector, parse_vector, write_matrix, write_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_system_files(tmp_path, capsys):
    prefix = tmp_path / "sys10_m4"
    code, out, err = run_cli(capsys, "gen", "10", "4", "--out", str(prefix))
    assert code == 0
    w = read_matrix(f"{prefix}.matrix")
    y = read_vector(f"{prefix}.rhs")
    x = read_vector(f"{prefix}.x")
    s = generate_system(10, 4)
    assert_allclose(dense_array(w), dense_array(s.matrix), rtol=0, atol=0)
    assert_allclose(y, s.y, rtol=0, atol=0)
    assert_allclose(x, s.x_exact, rtol=0, atol=0)


def test_solve_banded_round_trip(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "10", "6", "--out", str(prefix)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "x.solution"
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--out", str(out_path))
    assert code == 0
    x = read_vector(out_path)
    assert np.max(np.abs(x - 1.0)) <= 1e-12
    assert "solver" in out
    assert "partition" in out


def test_solve_writes_vector_to_stdout_without_out(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "10", "3", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs")
    assert code == 0
    x = parse_vector(out)
    assert np.max(np.abs(x - 1.0)) <= 1e-12
    assert "solver" in err


def test_solve_reference_solver_choice(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "17", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "gs")
    assert code == 0
    x = parse_vector(out)
    s = generate_system(17, 4)
    assert np.linalg.norm(x - s.x_exact) / np.linalg.norm(s.x_exact) <= 1e-8


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--matrix", str(tmp_path / "no.matrix"),
                             "--rhs", str(tmp_path / "no.rhs"))
    assert code == 2


def test_solve_malformed_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.matrix"
    bad.write_text("tridiagonal 3\n1 2\n\n\n")
    rhs = tmp_path / "y.rhs"
    write_vector(rhs, np.ones(3))
    code, out, err = run_cli(capsys, "solve", "--matrix", str(bad), "--rhs", str(rhs))
    assert code == 2


def test_solve_mcs_rejects_nonsymmetric(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "11", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "mcs")
    assert code == 2


def test_solve_reference_failure_exits_3(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "20", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "gs")
    assert code == 3


def test_pinv_banded(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "10", "3", "--out", str(prefix)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "b.matrix"
    code, out, err = run_cli(capsys, "pinv", "--matrix", f"{prefix}.matrix",
                             "--out", str(out_path))
    assert code == 0
    b = read_matrix(out_path)
    s = generate_system(10, 3)
    assert_allclose(dense_array(b) @ dense_array(s.matrix), np.eye(3),
                    rtol=0, atol=1e-12)


def test_pinv_dense_rejected(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "17", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "pinv", "--matrix", f"{prefix}.matrix")
    assert code == 2


def test_bench_smoke_csv(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "bench", "--profile", "smoke", "--seed", "7",
                             "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("solver,regime,family,count")
    assert len(lines) > 1


def test_bench_deterministic_output(tmp_path, capsys):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    assert main(["bench", "--profile", "smoke", "--seed", "7", "--out", str(a_path)]) == 0
    assert main(["bench", "--profile", "smoke", "--seed", "7", "--out", str(b_path)]) == 0
    capsys.readouterr()
    assert a_path.read_bytes() == b_path.read_bytes()


def test_bench_paper_like_profile_completes(capsys):
    code, out, err = run_cli(capsys, "bench", "--profile", "paper-like")
    assert code == 0
    assert out.startswith("solver,regime,family,count")


def test_bench_unknown_profile_exits_2(capsys):
    code, out, err = run_cli(capsys, "bench", "--profile", "bogus")
    assert code == 2


def test_bench_markdown_to_stdout(capsys):
    code, out, err = run_cli(capsys, "bench", "--profile", "smoke", "--format", "markdown")
    assert code == 0
    assert out.lstrip().startswith("|")


def test_bench_solver_restriction(tmp_path, capsys):
    out_path = tmp_path / "gs.csv"
    code, out, err = run_cli(capsys, "bench", "--profile", "smoke",
                             "--solver", "gs", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) >= 2
    assert all(ln.split(",")[0] == "GS" for ln in lines[1:])


def test_gen_order_validation(capsys):
    code, out, err = run_cli(capsys, "gen", "10", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "gen", "99", "5")
    assert code == 2
