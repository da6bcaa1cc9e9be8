"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line on the terminal (bypassing pytest's
capture) and then asserts the criterion at its stated tolerance, so a plain
``pytest -v`` run shows one line per criterion.
"""

import time

import numpy as np
import pytest

from ccsolve.bench import aggregate, emit_report, run_suite
from ccsolve.matrices import (
    DenseMatrix,
    TridiagonalMatrix,
    condition_number,
    dense_array,
    matvec,
    norm_inf,
)
from ccsolve.minors import lambda_sequence
from ccsolve.reduction import reduce_general, reduce_symmetric, solve_dense
from ccsolve.systems import generate_system
from ccsolve.tridiagonal import pseudo_inverse_tridiagonal, solve_cc_tridiagonal
from ccsolve.tridiagonal import solve_cc_bidiagonal
from explicit_minors import g_sequence

EPS1 = 2.0 ** -52
WELL_POSED_LIMIT = 1.0 / np.sqrt(EPS1)


def report(capsys, label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def small_suite():
    start = time.perf_counter()
    records = run_suite("small", seed=7)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def cell_cache():
    """Per-(system, m) data shared by the record-level checks."""
    cache = {}

    def get(system_id, m):
        key = (system_id, m)
        if key not in cache:
            s = generate_system(system_id, m)
            arr = dense_array(s.matrix)
            smin = float(np.linalg.svd(arr, compute_uv=False)[-1])
            cache[key] = {
                "system": s,
                "norm_e": float(np.linalg.norm(arr, "fro")),
                "smin": smin,
                "norm_x": float(np.linalg.norm(s.x_exact)),
            }
        return cache[key]

    return get


def test_a1_well_posed_accuracy(small_suite, capsys):
    records, elapsed = small_suite
    well = [r for r in records if r.regime == "well-posed" and not r.failed]
    cc = [r for r in well if r.solver_id in ("MCC", "MCS")]
    assert cc, "no well-posed CC records"
    mean_by_solver = {
        sid: float(np.mean([r.delta_m for r in cc if r.solver_id == sid]))
        for sid in ("MCC", "MCS")
    }
    pooled = float(np.mean([r.delta_m for r in cc]))
    tri_mean = float(np.mean([r.delta_m for r in well
                              if r.solver_id == "MCC" and r.family == "C3"]))
    bi_mean = float(np.mean([r.delta_m for r in well
                             if r.solver_id == "MCC" and r.family == "C2"]))
    ok = (
        pooled <= 1e-8
        and all(v <= 1e-8 for v in mean_by_solver.values())
        and tri_mean <= 0.868e-13 * 1e3
        and bi_mean <= 0.301e-11 * 1e3
        and elapsed < 30.0
    )
    detail = (f"mean dM: MCC {mean_by_solver['MCC']:.2e}, "
              f"MCS {mean_by_solver['MCS']:.2e}; "
              f"C3 {tri_mean:.2e} <= 8.7e-11, C2 {bi_mean:.2e} <= 3.0e-9; "
              f"{elapsed:.1f}s")
    report(capsys, "A1 well-posed accuracy", ok, detail)
    assert ok, detail


def test_a2_metric_ordering(small_suite, cell_cache, capsys):
    records, _ = small_suite
    lower_bad = upper_bad = checked = filtered = 0
    for r in records:
        if r.failed or r.delta_m is None or not np.isfinite(r.delta_m):
            continue
        checked += 1
        if r.delta_l > r.delta_m + 4.0 * EPS1 * (1.0 + r.delta_m):
            lower_bad += 1
        if not np.isfinite(r.delta_r):
            continue
        if r.residual_norm < 10.0 * r.m * EPS1 * r.y_norm:
            continue
        filtered += 1
        cell = cell_cache(r.system_id, r.m)
        if cell["smin"] <= 0.0:
            continue
        # delta_R is evaluated in double precision from the rounded product
        # y = fl(Wx); this term bounds exactly how far the computed value
        # can sit below the exact upper bound.
        terms = 3 if r.system_id <= 10 else r.m
        slack = ((terms + 1) * EPS1
                 * (cell["norm_e"] * (r.norm_xtilde + cell["norm_x"]) + r.y_norm)
                 / (cell["smin"] * cell["norm_x"]))
        if r.delta_m > r.delta_r + slack:
            upper_bad += 1
    ok = lower_bad == 0 and upper_bad == 0 and filtered > 0
    detail = (f"{checked} records, {filtered} above residual filter; "
              f"lower-bound violations {lower_bad}, upper-bound violations {upper_bad}")
    report(capsys, "A2 metric ordering", ok, detail)
    assert ok, detail


def test_a3_minor_ratio_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 13))
        p = rng.standard_normal(m - 1)
        r = rng.standard_normal(m - 1)
        q = rng.standard_normal(m)
        q += np.sign(q) * (np.abs(p).max() + np.abs(r).max() + 1.0)
        w = TridiagonalMatrix(q=q, p=p, r=r)
        a = dense_array(w)
        lam = lambda_sequence(w)
        g = g_sequence(w, 1, m)
        lead = [1.0] + [float(np.linalg.det(a[:i, :i])) for i in range(1, m + 1)]
        trail = [float(np.linalg.det(a[i:, i:])) for i in range(m)] + [1.0]
        for k in range(2, m + 2):
            want = lead[k - 1] / lead[k - 2]
            worst = max(worst, abs(lam[k] - want) / abs(want))
        for k in range(m):
            want = trail[k] / trail[k + 1]
            worst = max(worst, abs(g[k] - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    detail = f"200 random tridiagonals m<=12, worst relative deviation {worst:.2e}; {elapsed:.1f}s"
    report(capsys, "A3 minor-ratio oracle", ok, detail)
    assert ok, detail


def test_a4_pseudo_inverse_oracle(capsys):
    start = time.perf_counter()
    worst_ratio = 0.0
    count = 0
    for sid in (6, 7, 8, 9, 10):
        for m in range(3, 21):
            s = generate_system(sid, m)
            mu = condition_number(s.matrix)
            if not np.isfinite(mu) or mu > WELL_POSED_LIMIT:
                continue
            b = pseudo_inverse_tridiagonal(s.matrix).a
            err = np.max(np.abs(dense_array(s.matrix) @ b - np.eye(m)))
            tol = m * 1e-9 * max(1.0, mu * EPS1)
            worst_ratio = max(worst_ratio, err / tol)
            count += 1
    s10 = generate_system(10, 3)
    entry = pseudo_inverse_tridiagonal(s10.matrix).a[1, 1]
    entry_ok = abs(entry - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and entry_ok and count > 0 and elapsed < 5.0
    detail = (f"{count} nonsingular well-posed instances, worst err/tol {worst_ratio:.2e}; "
              f"entry(2,2)={float(entry):.15g}; {elapsed:.1f}s")
    report(capsys, "A4 inverse/pseudo-inverse oracle", ok, detail)
    assert ok, detail


def test_a5_singular_system_behavior(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for m in (4, 6, 8):
        s = generate_system(20, m)
        arr = s.matrix.a
        oracle, *_ = np.linalg.lstsq(arr, s.y, rcond=None)
        oracle_res = np.linalg.norm(arr @ oracle - s.y)
        oracle_norm = np.linalg.norm(oracle)
        for route in ("general", "symmetric"):
            z, _ = solve_dense(s.matrix, s.y, route=route)
            finite = bool(np.all(np.isfinite(z)))
            res = np.linalg.norm(arr @ z - s.y)
            znorm = np.linalg.norm(z)
            res_ok = res <= 10.0 * oracle_res + 1e-8 * np.linalg.norm(s.y)
            norm_ok = znorm <= 10.0 * oracle_norm
            ok = ok and finite and res_ok and norm_ok
            gap = np.linalg.norm(z - oracle) / oracle_norm
            details.append(f"m={m}/{route[:3]}: res {res:.1e}, |z| {znorm:.2f}, "
                           f"pseudosolution gap {gap:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    detail = "; ".join(details) + f"; {elapsed:.1f}s"
    report(capsys, "A5 singular-system behavior", ok, detail)
    assert ok, detail


def test_a6_residual_bounds(capsys):
    covered = total = 0
    worst = 0.0
    for sid in range(1, 11):
        for m in (3, 5, 10, 20, 50):
            s = generate_system(sid, m)
            if sid <= 5:
                sol = solve_cc_bidiagonal(s.matrix, s.y)
            else:
                sol = solve_cc_tridiagonal(s.matrix, s.y)
            residual = float(np.max(np.abs(matvec(s.matrix, sol.x_plus) - s.y)))
            total += 1
            if residual <= sol.bound.bound_value:
                covered += 1
            if sol.bound.bound_value > 0:
                worst = max(worst, residual / sol.bound.bound_value)
    ok = covered == total
    detail = f"{covered}/{total} banded instances within bound, worst ratio {worst:.2f}"
    report(capsys, "A6 residual bounds", ok, detail)
    assert ok, detail


def test_a7_perturbation_recovery(capsys):
    start = time.perf_counter()
    records = run_suite("table13-small", seed=7)
    levels = sorted({r.target_dx for r in records})
    solvers = ("MCC", "MCS", "GS", "QR", "SVD")
    ok = set(levels) == {0.10, 0.20, 0.30, 0.39, 0.60}
    details = []
    for level in levels:
        means = []
        for sid in solvers:
            vals = [r.delta_m for r in records
                    if r.target_dx == level and r.solver_id == sid
                    and not r.failed and np.isfinite(r.delta_m)]
            mean = float(np.mean(vals)) if vals else float("nan")
            means.append(mean)
            if not (len(vals) >= 50 and abs(mean - level) <= 0.02):
                ok = False
        details.append(f"{level:.2f}->[{min(means):.4f},{max(means):.4f}]")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    detail = ("recovered means per level " + " ".join(details)
              + f" (all 5 solvers within +-0.02); {elapsed:.1f}s")
    report(capsys, "A7 perturbation recovery", ok, detail)
    assert ok, detail


def test_a8_pathological_regime_ordering(capsys):
    start = time.perf_counter()
    records = run_suite("pathological", seed=7)
    cc_records = [r for r in records if r.solver_id in ("MCC", "MCS")]
    cc_finite = all(not r.failed and np.isfinite(r.delta_m) for r in cc_records)
    svd_records = [r for r in records if r.solver_id == "SVD"]
    svd_all_failed = bool(svd_records) and all(r.failed for r in svd_records)
    mcc_mean = float(np.mean([r.delta_m for r in records
                              if r.solver_id == "MCC" and not r.failed]))
    ref_means = {}
    for sid in ("GS", "QR", "SVD", "TRM"):
        vals = [r.delta_m for r in records
                if r.solver_id == sid and not r.failed and np.isfinite(r.delta_m)]
        if vals:
            ref_means[sid] = float(np.mean(vals))
    best_ref = min(ref_means.values())
    elapsed = time.perf_counter() - start
    ok = cc_finite and svd_all_failed and mcc_mean <= 10.0 * best_ref and elapsed < 30.0
    detail = (f"direct-method rows finite: {cc_finite}; SVD declined {len(svd_records)}/"
              f"{len(svd_records)}; MCC mean {mcc_mean:.2f} <= 10x best reference "
              f"{best_ref:.2f} ({min(ref_means, key=ref_means.get)}); {elapsed:.1f}s")
    report(capsys, "A8 pathological-regime ordering", ok, detail)
    assert ok, detail


def test_a9_reduction_invariants(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_orth = worst_drift = worst_sv = 0.0
    for _ in range(40):
        m = int(rng.integers(3, 33))
        arr = rng.standard_normal((m, m))
        f = rng.standard_normal(m)
        red = reduce_general(DenseMatrix(arr.copy()), f)
        for qmat in (red.p_factor, red.q_factor):
            worst_orth = max(worst_orth, np.max(np.abs(qmat.T @ qmat - np.eye(m)))
                             / (10 * m * m * EPS1))
        c = dense_array(red.matrix)
        worst_drift = max(worst_drift,
                          abs(np.linalg.norm(c, "fro") - np.linalg.norm(arr, "fro"))
                          / red.budget.h)
        sa = np.linalg.svd(arr, compute_uv=False)
        sc = np.linalg.svd(c, compute_uv=False)
        worst_sv = max(worst_sv, np.max(np.abs(sa - sc)) / sa[0] / 1e-10)
        sym = arr + arr.T
        red2 = reduce_symmetric(DenseMatrix(sym.copy()), f)
        worst_orth = max(worst_orth,
                         np.max(np.abs(red2.q_factor.T @ red2.q_factor - np.eye(m)))
                         / (10 * m * m * EPS1))
        c2 = dense_array(red2.matrix)
        worst_drift = max(worst_drift,
                          abs(np.linalg.norm(c2, "fro") - np.linalg.norm(sym, "fro"))
                          / red2.budget.h)
        sa2 = np.linalg.svd(sym, compute_uv=False)
        sc2 = np.linalg.svd(c2, compute_uv=False)
        worst_sv = max(worst_sv, np.max(np.abs(sa2 - sc2)) / sa2[0] / 1e-10)
    elapsed = time.perf_counter() - start
    ok = worst_orth <= 1.0 and worst_drift <= 1.0 and worst_sv <= 1.0 and elapsed < 10.0
    detail = (f"40 random pairs m<=32; orthogonality {worst_orth:.2e}, "
              f"norm drift {worst_drift:.2e}, singular values {worst_sv:.2e} "
              f"(each as fraction of its tolerance); {elapsed:.1f}s")
    report(capsys, "A9 reduction invariants", ok, detail)
    assert ok, detail


def test_a10_determinism(capsys):
    start = time.perf_counter()
    first = emit_report(aggregate(run_suite("smoke", seed=7)), format="csv")
    second = emit_report(aggregate(run_suite("smoke", seed=7)), format="csv")
    elapsed = time.perf_counter() - start
    ok = first.encode() == second.encode() and elapsed < 5.0
    detail = f"two smoke runs at seed 7, byte-identical CSV: {first == second}; {elapsed:.1f}s"
    report(capsys, "A10 determinism", ok, detail)
    assert ok, detail
