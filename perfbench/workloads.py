"""The four workloads of the ccsolve benchmark.

A workload is a fixed list of ops.  An op is one call into the public
ccsolve API (``call``), the same work split into per-module spans for the
traced run (``traced``), and a check of the output (``check``) that returns
the reasons the op failed, if any.  The seed fixes the op order and the
random instances; ``build`` does all set-up: system generation, the SVD
regime oracle, reference results and file writing.

NOTES.md explains why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ccsolve as cc
from ccsolve import cli

from tracing import NullTracer

# Acceptance criterion A1: relative error of the direct methods on a system
# the SVD oracle classifies as well-posed.
WELL_POSED_DELTA_M = 1e-8
# Failure reasons that contradict what the program guarantees (A1 accuracy,
# exact text round trips).  They make a run incorrect; the other reasons
# (raising, non-finite output, a violated residual bound, a non-zero exit
# code) are the robustness defects the failure count tracks.
HARD_REASONS = ("inaccurate", "file-mismatch", "report-mismatch")
EVENT_KINDS = (
    "growth-split",
    "nonfinite-split",
    "nonfinite-truncated",
    "perturbed-zero",
    "probe-split",
    "severed-bottom",
    "top-row-split",
    "top-row-unresolved",
    "truncated-diagonal",
)
MIB = 2.0**20

BANDED_ORDERS = (50, 100, 200, 400)
RANDOM_PER_ORDER = 2
# Three orders, so the median op falls inside the middle order's cluster of
# 15 ops rather than in the gap between two clusters.
DENSE_ORDERS = (50, 150, 250)
CLI_GS_ORDERS = (200, 800)
CLI_MCC_ORDERS = (100, 200)
CLI_PINV_ORDERS = (30, 45, 60)
CELL_SOLVERS = {
    "GS": "reference.gauss_s",
    "QR": "reference.qr_s",
    "SVD": "reference.svd_s",
    "TRM": "reference.tikhonov_s",
}


@dataclass
class Op:
    label: str
    kind: str  # the memory pass runs the largest-order op of each kind
    order: int
    call: Callable[[], Any]
    traced: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    well_posed: bool = False  # by the SVD oracle, computed in set-up
    raise_count: str | None = None  # counter bumped when the call raises
    prepare: Callable[[], None] | None = None  # computes what the check needs


@dataclass
class Workload:
    ops: list[Op]  # timed order, shuffled by the seed
    canonical: list[Op]  # generation order; the first op is the warm-up

    def prepare(self):
        """Reference results for the checks, once, after set-up."""
        for op in self.canonical:
            if op.prepare is not None:
                op.prepare()


def _well_posed(w) -> bool:
    return cc.classify(cc.condition_number(w)).label == "well-posed"


def _accuracy(x, x_exact) -> list[str]:
    if not np.all(np.isfinite(x)):
        return []  # already a failure of its own
    delta_m = float(np.linalg.norm(x - x_exact) / np.linalg.norm(x_exact))
    if delta_m <= WELL_POSED_DELTA_M:
        return []
    return [f"inaccurate: delta_M {delta_m:.3e} > {WELL_POSED_DELTA_M:g} on a well-posed system"]


def _check_band(layer, w, y, sol, tr) -> list[str]:
    """Counters of a banded solution and its residual against its own bound."""
    tr.count(f"{layer}.blocks", sol.partition.n)
    for label, _row in sol.events:
        kind = label if label in EVENT_KINDS else "other"
        tr.count(f"tridiagonal.events.{kind}")
    x = sol.x_plus
    if not np.all(np.isfinite(x)):
        tr.count(f"{layer}.nonfinite")
        return ["nonfinite: x+ has non-finite entries"]
    residual = float(np.max(np.abs(tr.call("matrices.matvec_s", cc.matvec, w, x) - y)))
    bound = sol.bound.bound_value
    if np.isfinite(residual) and bound > 0.0:
        tr.maximum(f"{layer}.bound_ratio_max", residual / bound)
    if residual <= bound:
        return []
    tr.count(f"{layer}.bound_violations")
    return [f"bound: residual {residual:.3e} > bound {bound:.3e}"]


def _band_op(label, w, y, x_exact) -> Op:
    tri = isinstance(w, cc.TridiagonalMatrix)
    layer = "tridiagonal" if tri else "bidiagonal"
    solve = cc.solve_cc_tridiagonal if tri else cc.solve_cc_bidiagonal
    well = _well_posed(w)

    def traced(tr):
        if tri:
            tr.replica("minors.lambda_s", cc.lambda_sequence, w)
        tr.replica("matrices.norm_inf_s", cc.norm_inf, w)
        return tr.call(f"{layer}.solve_s", solve, w, y)

    def check(sol, tr):
        reasons = _check_band(layer, w, y, sol, tr)
        if well:
            reasons += _accuracy(sol.x_plus, x_exact)
        return reasons

    return Op(label, layer, w.m, lambda: solve(w, y), traced, check, well)


def _random_band(rng, m, tridiagonal):
    """Entries U(-1, 1), except that a bidiagonal's diagonal is kept in
    1 +- 0.5 with a random sign: with a U(-1, 1) diagonal it is exponentially
    ill-conditioned and its block count, and so its cost, swings with the
    seed.  Systems 1-5 already cover degenerate bidiagonals."""
    r = rng.uniform(-1.0, 1.0, m - 1)
    if tridiagonal:
        w = cc.TridiagonalMatrix(rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1), r)
    else:
        q = rng.uniform(0.5, 1.5, m) * rng.choice((-1.0, 1.0), m)
        w = cc.BidiagonalMatrix(q, r)
    x = rng.uniform(-1.0, 1.0, m)
    return w, cc.matvec(w, x), x


def _banded(rng) -> list[Op]:
    ops = []
    for m in BANDED_ORDERS:
        for sid in range(1, 11):
            s = cc.generate_system(sid, m)
            ops.append(_band_op(f"system {sid} m={m}", s.matrix, s.y, s.x_exact))
        for k in range(RANDOM_PER_ORDER):
            for tri in (True, False):
                kind = "tridiagonal" if tri else "bidiagonal"
                w, y, x = _random_band(rng, m, tri)
                ops.append(_band_op(f"random {kind} #{k} m={m}", w, y, x))
    return ops


def _dense_op(label, s, route) -> Op:
    a, f = s.matrix, s.y
    reduce = cc.reduce_symmetric if route == "symmetric" else cc.reduce_general
    inner_layer = "tridiagonal" if route == "symmetric" else "bidiagonal"
    solve = cc.solve_cc_tridiagonal if route == "symmetric" else cc.solve_cc_bidiagonal
    well = _well_posed(a)

    def traced(tr):
        red = tr.call(f"reduction.reduce_{route}_s", reduce, a, f)
        factors = red.q_factor.nbytes + (0 if red.p_factor is None else red.p_factor.nbytes)
        tr.maximum("reduction.factor_mib", factors / MIB)
        inner = tr.call(f"{inner_layer}.solve_s", solve, red.matrix, red.rhs)
        z = tr.call("reduction.backmap_s", cc.backmap, red.q_factor, inner.x_plus)
        return z, cc.DenseSolveDiagnostics(route=route, reduction=red, inner=inner)

    def check(result, tr):
        z, diag = result
        red = diag.reduction
        reasons = _check_band(inner_layer, red.matrix, red.rhs, diag.inner, tr)
        if not np.all(np.isfinite(z)):
            reasons.append("nonfinite: z has non-finite entries")
        if well:
            reasons += _accuracy(z, s.x_exact)
        return reasons

    def call():
        return cc.solve_dense(a, f, route=route)

    return Op(label, f"dense-{route}", s.m, call, traced, check, well)


def _dense() -> list[Op]:
    ops = []
    for m in DENSE_ORDERS:
        for sid in range(11, 21):
            s = cc.generate_system(sid, m)
            routes = ("general", "symmetric") if sid >= 16 else ("general",)
            for route in routes:
                ops.append(_dense_op(f"system {sid} m={m} {route}", s, route))
    return ops


def _cell_op(sid, m, seed, sink) -> Op:
    profile = cc.Profile(name=f"cell-{sid}-{m}", cells=((sid, m),))
    system = cc.generate_system(sid, m)
    well = _well_posed(system.matrix)

    def call():
        return cc.run_suite(profile, seed=seed, timing=True)

    def traced(tr):
        tr.replica("systems.generate_s", cc.generate_system, sid, m)
        tr.replica("bench.oracle_s", cc.condition_number, system.matrix)
        with tr.span("bench.run_suite_s"):
            records = call()
            for rec in records:
                tr.derived(_record_layer(rec), rec.wall_time_s)
        return records

    def check(records, tr):
        sink.extend(records)
        reasons = []
        for rec in records:
            if rec.notes.startswith("error:"):
                tr.count("bench.cell_errors")
            if rec.solver_id in CELL_SOLVERS:
                if rec.failed:
                    tr.count("reference.declined")
                continue
            if rec.failed:
                reasons.append(f"{rec.solver_id} failed: {rec.notes}")
            elif not (np.isfinite(rec.norm_xtilde) and np.isfinite(rec.residual_norm)):
                reasons.append(f"nonfinite: {rec.solver_id} solution or residual")
            elif well and not rec.delta_m <= WELL_POSED_DELTA_M:
                reasons.append(
                    f"inaccurate: {rec.solver_id} delta_M {rec.delta_m:.3e} on a well-posed system"
                )
        return reasons

    return Op(
        f"cell ({sid}, {m})",
        f"cell-{system.family}",
        m,
        call,
        traced,
        check,
        well,
        raise_count="bench.cell_errors",
    )


def _record_layer(rec) -> str:
    if rec.solver_id in CELL_SOLVERS:
        return CELL_SOLVERS[rec.solver_id]
    if rec.family == "C2":
        return "bidiagonal.solve_s"
    if rec.family == "C3":
        return "tridiagonal.solve_s"
    return "reduction.solve_dense_s"


def _report_op(sink) -> Op:
    def call():
        records = sink[:]
        sink.clear()
        rows = cc.aggregate(records)
        text = cc.emit_report(rows, "csv")
        return len(records), rows, text, cc.parse_report(text)

    def check(result, tr):
        n_records, rows, text, parsed = result
        if cc.emit_report(parsed, "csv") != text:
            return ["report-mismatch: parse_report does not round-trip emit_report"]
        if sum(row.count + row.failures for row in rows) != n_records:
            return ["report-mismatch: aggregate rows do not cover every record"]
        return []

    return Op(
        "aggregate -> emit_report -> parse_report",
        "report",
        0,
        call,
        lambda tr: tr.call("bench.report_s", call),
        check,
    )


def _paper_suite(seed) -> tuple[list[Op], Op]:
    sink: list = []
    cells = [_cell_op(sid, m, seed, sink) for sid, m in cc.PROFILES["paper-like"].cells]
    return cells, _report_op(sink)


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _cli_op(label, kind, w, files, argv, layer, reference, check_solution) -> Op:
    """One in-process ``cli.main`` call.  ``reference()`` gives the library
    result, as (array, solution), that the written file must reproduce bit
    for bit; ``prepare`` computes it once, outside set-up and every timing."""
    out_path = argv[argv.index("--out") + 1]
    pinv = layer == "cli.pinv_s"
    reader = cc.read_matrix if pinv else cc.read_vector
    ref: list = []

    def prepare():
        if not ref:
            ref.append(reference())

    def traced(tr):
        for path in files:
            read = cc.read_matrix if path.endswith(".matrix") else cc.read_vector
            tr.replica("textio.parse_s", read, path)
        expected = ref[0][0]
        if expected is not None:
            fmt = cc.matrix_to_text if pinv else cc.vector_to_text
            tr.replica("textio.format_s", fmt, cc.DenseMatrix(expected) if pinv else expected)
        if not pinv:
            tr.replica("cli.oracle_s", cc.condition_number, w)
        return tr.call(layer, _quiet_main, argv)

    def check(result, tr):
        code, err = result
        if code != 0:
            first = err.strip().splitlines()[0] if err.strip() else ""
            return [f"exit: code {code}: {first}"]
        expected, solution = ref[0]
        got = tr.call("textio.parse_s", reader, out_path)
        got = got.a if pinv else got
        if expected is None or not np.array_equal(got, expected):
            return ["file-mismatch: written solution differs from the library result"]
        return check_solution(got, solution)

    return Op(label, kind, w.m, lambda: _quiet_main(argv), traced, check, prepare=prepare)


def _cli(workdir) -> list[Op]:
    written: dict[tuple[int, int], tuple[str, str]] = {}

    def files(sid, m):
        if (sid, m) not in written:
            s = cc.generate_system(sid, m)
            prefix = os.path.join(workdir, f"system{sid}_m{m}")
            cc.write_matrix(prefix + ".matrix", s.matrix)
            cc.write_vector(prefix + ".rhs", s.y)
            written[(sid, m)] = (prefix + ".matrix", prefix + ".rhs")
        return written[(sid, m)]

    def band_kind(sid):
        return "bidiagonal" if sid <= 5 else "tridiagonal"

    def no_check(_x, _solution):
        return []

    def finite(x, _solution):
        return [] if np.all(np.isfinite(x)) else ["nonfinite: pseudo-inverse entries"]

    ops = []
    for m in CLI_GS_ORDERS:
        for sid in range(1, 11):
            s = cc.generate_system(sid, m)
            mat, rhs = files(sid, m)
            out = os.path.join(workdir, f"gs{sid}_m{m}.sol")
            argv = ["solve", "--matrix", mat, "--rhs", rhs, "--solver", "gs", "--out", out]
            ops.append(
                _cli_op(f"cli solve --solver gs system {sid} m={m}", f"gs-{band_kind(sid)}",
                        s.matrix, (mat, rhs), argv, "cli.solve_s",
                        lambda s=s: (cc.solve_gauss(s.matrix, s.y).x, None), no_check)
            )
    for m in CLI_MCC_ORDERS:
        for sid in range(1, 11):
            s = cc.generate_system(sid, m)
            mat, rhs = files(sid, m)
            out = os.path.join(workdir, f"mcc{sid}_m{m}.sol")
            solve = cc.solve_cc_bidiagonal if sid <= 5 else cc.solve_cc_tridiagonal
            well = _well_posed(s.matrix)

            def reference(s=s, solve=solve):
                sol = solve(s.matrix, s.y)
                return sol.x_plus, sol

            def check_solution(x, sol, s=s, well=well):
                # x equals sol.x_plus bit for bit here, so sol's bound applies;
                # the library solve is not part of the op, so nothing is traced
                reasons = _check_band("cli", s.matrix, s.y, sol, NullTracer())
                if well:
                    reasons += _accuracy(x, s.x_exact)
                return reasons

            argv = ["solve", "--matrix", mat, "--rhs", rhs, "--solver", "mcc", "--out", out]
            ops.append(
                _cli_op(f"cli solve --solver mcc system {sid} m={m}", f"mcc-{band_kind(sid)}",
                        s.matrix, (mat, rhs), argv, "cli.solve_s", reference, check_solution)
            )
    for sid in range(1, 11):
        m = CLI_PINV_ORDERS[sid % len(CLI_PINV_ORDERS)]
        s = cc.generate_system(sid, m)
        mat, _rhs = files(sid, m)
        out = os.path.join(workdir, f"pinv{sid}_m{m}.matrix")
        pinv = cc.pseudo_inverse_bidiagonal if sid <= 5 else cc.pseudo_inverse_tridiagonal
        argv = ["pinv", "--matrix", mat, "--out", out]
        ops.append(
            _cli_op(f"cli pinv system {sid} m={m}", f"pinv-{band_kind(sid)}", s.matrix,
                    (mat,), argv, "cli.pinv_s",
                    lambda s=s, pinv=pinv: (pinv(s.matrix).a, None), finite)
        )
    return ops


WORKLOADS = ("banded", "dense", "paper-suite", "cli")


def build(name: str, seed: int, workdir: str) -> Workload:
    """All set-up of one workload: inputs from the seed, oracle regimes and
    files; the ops are shuffled by the seed."""
    rng = np.random.default_rng(seed)
    tail: list[Op] = []
    if name == "banded":
        ops = _banded(rng)
    elif name == "dense":
        ops = _dense()
    elif name == "paper-suite":
        ops, report = _paper_suite(seed)
        tail = [report]  # aggregates the records of the pass, so it runs last
    elif name == "cli":
        ops = _cli(workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    order = rng.permutation(len(ops))
    return Workload([ops[i] for i in order] + tail, ops + tail)
