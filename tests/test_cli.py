"""Tests for the command-line interface."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ccsolve.cli import main
from ccsolve.matrices import dense_array
from ccsolve.reference import solve_tikhonov
from ccsolve.systems import generate_system
from ccsolve.textio import (
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)


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
    assert err == (f"error: [Errno 2] No such file or directory: "
                   f"'{tmp_path / 'no.matrix'}'\n")


def test_solve_malformed_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.matrix"
    bad.write_text("tridiagonal 3\n1 2\n\n\n")
    rhs = tmp_path / "y.rhs"
    write_vector(rhs, np.ones(3))
    code, out, err = run_cli(capsys, "solve", "--matrix", str(bad), "--rhs", str(rhs))
    assert code == 2


def test_solve_rhs_length_mismatch_exits_2(tmp_path, capsys):
    assert main(["gen", "10", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "10", "6", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", str(tmp_path / "a.matrix"),
                             "--rhs", str(tmp_path / "b.rhs"))
    assert code == 2
    assert out == ""
    assert err == "error: rhs length 6 does not match matrix order 5\n"


@pytest.mark.parametrize("sid, solver", [
    (6, "gs"), (6, "qr"), (6, "svd"), (6, "trm"), (6, "mcc"),
    (16, "mcc"), (16, "mcs"),
])
def test_solve_nonfinite_rhs_exits_2(tmp_path, capsys, sid, solver):
    # A nan in the rhs is an input error for every solver, not a failed solve.
    prefix = tmp_path / "case"
    assert main(["gen", str(sid), "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    y = read_vector(f"{prefix}.rhs")
    y[2] = np.nan
    write_vector(f"{prefix}.rhs", y)
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", solver)
    assert code == 2
    assert out == ""
    assert "must contain only finite values" in err


def test_solve_reference_solver_prints_note(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "17", "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "svd")
    assert code == 0
    summary = err.splitlines()
    assert summary[:3] == ["solver: SVD", "m: 5", "note: numerical rank 5 of 5"]
    assert not any(ln.startswith(("route:", "partition:")) for ln in summary)


@pytest.mark.parametrize("sid, solver, route", [
    (11, "mcc", "route: general (bidiagonal reduction)"),
    (17, "mcs", "route: symmetric (tridiagonal reduction)"),
], ids=["mcc-general", "mcs-symmetric"])
def test_solve_dense_prints_route(tmp_path, capsys, sid, solver, route):
    prefix = tmp_path / "case"
    assert main(["gen", str(sid), "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", solver)
    assert code == 0
    summary = err.splitlines()
    assert summary[:3] == [f"solver: {solver.upper()}", "m: 5", route]
    assert summary[3] == "partition: 5"
    assert summary[-1].startswith("regime: ")
    assert " (kappa_inf = " in summary[-1]


def test_solve_banded_prints_events(tmp_path, capsys):
    # System 10 at order 5 is singular: its bottom row is re-derived and the
    # block splits, so the summary lists the sorted event labels.
    prefix = tmp_path / "case"
    assert main(["gen", "10", "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs")
    assert code == 0
    summary = err.splitlines()
    assert "partition: 5 4" in summary
    assert "events: probe-split,severed-bottom,truncated-diagonal" in summary
    assert summary[-1] == "regime: pathological (kappa_inf = inf)"
    assert not any(ln.startswith("route:") for ln in summary)


def test_solve_mcs_rejects_nonsymmetric(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "11", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "mcs")
    assert code == 2


def test_solve_reference_failure_exits_3(tmp_path, capsys):
    # On system 20 GS meets an exactly singular pivot: a numeric failure, not
    # an input error.  TRM runs on the SVD, which never factors A^T A, so the
    # same input succeeds and writes solve_tikhonov's x.
    prefix = tmp_path / "case"
    assert main(["gen", "20", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "gs")
    assert code == 3
    out_path = tmp_path / "x.solution"
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", "trm",
                             "--out", str(out_path))
    assert code == 0
    assert err == ""
    want = solve_tikhonov(read_matrix(f"{prefix}.matrix"), read_vector(f"{prefix}.rhs"))
    assert read_vector(out_path).tobytes() == want.x.tobytes()


def test_successive_calls_share_no_parsed_state(tmp_path, capsys):
    # The parser is built once per process; a --solver list given to one
    # call must not reach the next.
    code, restricted, _ = run_cli(capsys, "bench", "--profile", "smoke",
                                  "--solver", "mcc")
    assert code == 0
    assert "\nGS," not in restricted
    code, full, _ = run_cli(capsys, "bench", "--profile", "smoke")
    assert code == 0
    assert "\nGS," in full and "\nMCC," in full
    prefix = tmp_path / "case"
    code, out, _ = run_cli(capsys, "gen", "10", "4", "--out", str(prefix))
    assert code == 0
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs")
    assert code == 0
    assert "solver: MCC" in err


@pytest.mark.parametrize("solver", ["gs", "qr"])
def test_solve_nonfinite_solution_exits_3(tmp_path, capsys, solver):
    # GS and QR overflow to inf on system 2 at order 200; the CLI reports it
    # as a solver failure with the note the bench records for such a cell.
    prefix = tmp_path / "case"
    assert main(["gen", "2", "200", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", solver)
    assert code == 3
    assert f"{solver.upper()} failed: error: non-finite solution" in err


def test_solve_never_densifies_band_input(tmp_path, capsys):
    # Band input stays O(m) end to end, regime line included: the peak is far
    # below one dense m x m copy (8 m^2 bytes, 20 MB here).
    m = 1600
    prefix = tmp_path / "case"
    assert main(["gen", "6", str(m), "--out", str(prefix)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["solve", "--matrix", f"{prefix}.matrix",
                     "--rhs", f"{prefix}.rhs", "--solver", "gs"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 1024 * m, peak / m


@pytest.mark.parametrize("solver", ["mcc", "gs"])
def test_solve_regime_line_runs_no_svd(tmp_path, capsys, monkeypatch, solver):
    # The regime line of band input comes from the O(m) kappa_inf; no
    # singular value computation may run on the solve path.
    prefix = tmp_path / "case"
    assert main(["gen", "6", "5", "--out", str(prefix)]) == 0
    capsys.readouterr()

    def no_svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    code, out, err = run_cli(capsys, "solve", "--matrix", f"{prefix}.matrix",
                             "--rhs", f"{prefix}.rhs", "--solver", solver)
    assert code == 0
    assert err.splitlines()[-1] == "regime: well-posed (kappa_inf = 1.800000e+01)"


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


def test_pinv_writes_matrix_to_stdout_without_out(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "10", "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "pinv", "--matrix", f"{prefix}.matrix")
    assert code == 0
    assert err == ""
    out_path = tmp_path / "b.matrix"
    assert main(["pinv", "--matrix", f"{prefix}.matrix", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out == out_path.read_text()
    assert dense_array(parse_matrix(out)).shape == (5, 5)


def test_pinv_dense_rejected(tmp_path, capsys):
    prefix = tmp_path / "case"
    assert main(["gen", "17", "4", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "pinv", "--matrix", f"{prefix}.matrix")
    assert code == 2


@pytest.mark.parametrize("flag", [["--svd-rtol", "5"], ["--trm-delta", "1"],
                                  ["--emulate-svd-failure"],
                                  ["--phi-threshold", "1e-3"],
                                  ["--growth-threshold", "1e3"]])
@pytest.mark.parametrize("command", ["solve", "bench", "pinv"])
def test_commands_reject_reference_solver_flags(tmp_path, capsys, command, flag):
    # Every solver runs at its library defaults and SVD emulation belongs to
    # a bench profile, so no command takes a solver setting.
    prefix = tmp_path / "case"
    assert main(["gen", "10", "3", "--out", str(prefix)]) == 0
    capsys.readouterr()
    args = {
        "solve": ["--matrix", f"{prefix}.matrix", "--rhs", f"{prefix}.rhs"],
        "bench": ["--profile", "smoke"],
        "pinv": ["--matrix", f"{prefix}.matrix"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_smoke_csv(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "bench", "--profile", "smoke", "--seed", "7",
                             "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("solver,regime,family,count")
    assert len(lines) > 1
    # the --out file holds the stdout report byte for byte
    code, stdout, err = run_cli(capsys, "bench", "--profile", "smoke", "--seed", "7")
    assert out_path.read_bytes() == stdout.encode("utf-8")
    missing = tmp_path / "no" / "report.csv"
    code, out, err = run_cli(capsys, "bench", "--profile", "smoke",
                             "--out", str(missing))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


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
    assert err == "error: unknown profile 'bogus'\n"


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
