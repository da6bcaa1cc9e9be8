"""Benchmark harness: solution-error metrics, named suite profiles over the
twenty test systems, per-(solver, regime, family) aggregation, and CSV or
markdown report emission.

A suite run produces one BenchRecord per (system, order, solver) cell; the
perturbation cells additionally carry the target solution shift so the
noise-response study can be summarized per level.  Failures (a reference
solver declining) are data: the record is kept with empty metrics and
counted in the aggregate failure column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .bidiagonal import solve_cc_bidiagonal
from .matrices import (
    BidiagonalMatrix,
    DEFAULT_PRECISION,
    DenseMatrix,
    Matrix,
    Precision,
    TridiagonalMatrix,
    dense_array,
    matvec,
    to_dense,
)
from .reduction import is_symmetric, solve_dense
from .reference import (
    SolverOutcome,
    solve_gauss,
    solve_qr,
    solve_svd_truncated,
    solve_tikhonov,
)
from .systems import TestSystem, classify, generate_system, perturb_solution
from .textio import format_number
from .tridiagonal import solve_cc_tridiagonal

__all__ = [
    "AggregateRow",
    "BenchRecord",
    "CSV_HEADER",
    "PROFILES",
    "Profile",
    "SOLVER_IDS",
    "SolverOptions",
    "aggregate",
    "emit_report",
    "error_metrics",
    "parse_report",
    "run_suite",
]

SOLVER_IDS = ("MCC", "MCS", "GS", "QR", "SVD", "TRM")

CSV_HEADER = (
    "solver,regime,family,count,mean_delta_L,mean_delta_M,mean_delta_R,"
    "mean_norm_xtilde,mean_norm_x,mean_time_s,failures"
)


@dataclass
class BenchRecord:
    """One benchmark cell: which system and solver, the conditioning regime,
    the three error metrics, norms, residual, timing, and failure status.
    target_dx is the requested solution shift for perturbation cells."""

    system_id: int
    m: int
    solver_id: str
    regime: str
    mu: float
    delta_l: float | None
    delta_m: float | None
    delta_r: float | None
    norm_xtilde: float | None
    norm_x: float
    residual_norm: float | None
    y_norm: float
    wall_time_s: float
    failed: bool
    notes: str
    family: str
    target_dx: float | None = None


@dataclass
class AggregateRow:
    """Arithmetic means of one (solver, regime, family) group; count is the
    number of non-failed records included, failures the number excluded."""

    solver_id: str
    regime: str
    family: str
    count: int
    mean_delta_l: float
    mean_delta_m: float
    mean_delta_r: float
    mean_norm_xtilde: float
    mean_norm_x: float
    mean_time_s: float
    failures: int


@dataclass(frozen=True)
class SolverOptions:
    """Tunable knobs forwarded to the individual solvers."""

    phi_threshold: float | None = None
    growth_threshold: float | None = None
    svd_rtol: float | None = None
    trm_delta: float | None = None
    emulate_svd: bool = False


@dataclass(frozen=True)
class Profile:
    """A named benchmark grid: plain (system, m) cells, perturbation cells
    (system, m, target shift, repetitions), and the default solver set."""

    name: str
    cells: tuple[tuple[int, int], ...] = ()
    perturbed: tuple[tuple[int, int, float, int], ...] = ()
    solvers: tuple[str, ...] = SOLVER_IDS
    emulate_svd: bool = False


def _grid(system_ids, orders):
    return tuple((sid, m) for sid in system_ids for m in orders)


PROFILES: dict[str, Profile] = {
    "smoke": Profile(
        name="smoke",
        cells=((5, 3), (9, 3), (10, 3)),
        solvers=("MCC", "GS"),
    ),
    "small": Profile(
        name="small",
        cells=_grid(range(1, 11), (3, 5, 10, 20, 50))
        + _grid(range(11, 21), (3, 5, 8)),
    ),
    "table13-small": Profile(
        name="table13-small",
        perturbed=tuple(
            (17, m, level, 50)
            for m in (3, 4, 5, 6)
            for level in (0.10, 0.20, 0.30, 0.39, 0.60)
        ),
        solvers=("MCC", "MCS", "GS", "QR", "SVD"),
    ),
    "pathological": Profile(
        name="pathological",
        cells=((20, 4), (20, 6), (20, 8), (17, 12), (17, 13)),
        emulate_svd=True,
    ),
    "paper-like": Profile(
        name="paper-like",
        cells=_grid(range(1, 11), (3, 5, 10, 20, 50, 100, 200))
        + _grid(range(11, 21), (3, 5, 8, 13, 21)),
    ),
}


def _metrics(x_tilde, x_exact, w, y, smin):
    x_norm = float(np.linalg.norm(x_exact))
    if x_norm == 0.0:
        raise ValueError("exact solution has zero norm")
    x_tilde = np.asarray(x_tilde, dtype=float)
    delta_l = abs(float(np.linalg.norm(x_tilde)) - x_norm) / x_norm
    delta_m = float(np.linalg.norm(x_tilde - x_exact)) / x_norm
    residual = float(np.linalg.norm(matvec(w, x_tilde) - np.asarray(y, dtype=float)))
    delta_r = np.inf if smin == 0.0 else residual / smin / x_norm
    return delta_l, delta_m, delta_r, residual


def error_metrics(
    x_tilde, x_exact, w: Matrix, y, prec: Precision = DEFAULT_PRECISION
) -> tuple[float, float, float]:
    """Lower, middle, and upper relative-error metrics of a computed solution:
    delta_L = |  ||x_tilde|| - ||x||  | / ||x||,
    delta_M = ||x_tilde - x|| / ||x||,
    delta_R = ||W^-1||_2 * ||W x_tilde - y|| / ||x|| (spectral norm from the
    SVD oracle; infinite for an exactly singular matrix)."""
    s = np.linalg.svd(dense_array(w), compute_uv=False)
    smin = float(s[-1])
    delta_l, delta_m, delta_r, _ = _metrics(x_tilde, x_exact, w, y, smin)
    return delta_l, delta_m, delta_r


def _cc_note(solution) -> str:
    labels = sorted({label for label, _ in solution.events})
    return ",".join(labels)


def mcs_applicable(w: Matrix) -> bool:
    return isinstance(w, DenseMatrix) and is_symmetric(w)


def _solve_one(
    solver_id: str, w: Matrix, y, prec: Precision, opts: SolverOptions
) -> SolverOutcome:
    if solver_id == "MCC":
        if isinstance(w, TridiagonalMatrix):
            sol = solve_cc_tridiagonal(
                w,
                y,
                prec,
                phi_threshold=opts.phi_threshold,
                growth_threshold=opts.growth_threshold,
            )
            return SolverOutcome("MCC", sol.x_plus, _cc_note(sol))
        if isinstance(w, BidiagonalMatrix):
            sol = solve_cc_bidiagonal(
                w,
                y,
                prec,
                phi_threshold=opts.phi_threshold,
                growth_threshold=opts.growth_threshold,
            )
            return SolverOutcome("MCC", sol.x_plus, _cc_note(sol))
        z, diag = solve_dense(
            w,
            y,
            prec,
            route="general",
            phi_threshold=opts.phi_threshold,
            growth_threshold=opts.growth_threshold,
        )
        return SolverOutcome("MCC", z, _cc_note(diag.inner))
    if solver_id == "MCS":
        z, diag = solve_dense(
            w,
            y,
            prec,
            route="symmetric",
            phi_threshold=opts.phi_threshold,
            growth_threshold=opts.growth_threshold,
        )
        return SolverOutcome("MCS", z, _cc_note(diag.inner))
    if solver_id == "GS":
        return solve_gauss(w, y, prec)
    if solver_id == "QR":
        return solve_qr(to_dense(w), y, prec)
    if solver_id == "SVD":
        return solve_svd_truncated(
            to_dense(w), y, opts.svd_rtol, prec, emulate_failure=opts.emulate_svd
        )
    if solver_id == "TRM":
        return solve_tikhonov(to_dense(w), y, opts.trm_delta, prec)
    raise ValueError(f"unknown solver id {solver_id!r}")


@dataclass(frozen=True)
class _SystemInfo:
    mu: float
    regime: str
    smin: float


def _system_info(system: TestSystem, prec: Precision) -> _SystemInfo:
    s = np.linalg.svd(dense_array(system.matrix), compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    if smax == 0.0 or smin <= smax * system.m * prec.eps1:
        mu = np.inf
    else:
        mu = smax / smin
    return _SystemInfo(mu=mu, regime=classify(mu, prec).label, smin=smin)


def _run_cell(
    solve_system: TestSystem,
    base_system: TestSystem,
    solver_id: str,
    info: _SystemInfo,
    prec: Precision,
    opts: SolverOptions,
    timing: bool,
    target_dx: float | None,
) -> BenchRecord | None:
    if solver_id == "MCS" and not mcs_applicable(solve_system.matrix):
        return None
    t0 = time.perf_counter()
    try:
        outcome = _solve_one(solver_id, solve_system.matrix, solve_system.y, prec, opts)
    except (FloatingPointError, ValueError, np.linalg.LinAlgError) as exc:
        outcome = SolverOutcome(solver_id, None, f"error: {exc}")
    if not outcome.failed and not np.all(np.isfinite(outcome.x)):
        outcome = SolverOutcome(solver_id, None, "error: non-finite solution")
    wall = time.perf_counter() - t0 if timing else 0.0
    x_exact = base_system.x_exact
    y = base_system.y
    norm_x = float(np.linalg.norm(x_exact))
    y_norm = float(np.linalg.norm(y))
    common = dict(
        system_id=base_system.id,
        m=base_system.m,
        solver_id=solver_id,
        regime=info.regime,
        mu=info.mu,
        norm_x=norm_x,
        y_norm=y_norm,
        wall_time_s=wall,
        notes=outcome.note,
        family=base_system.family,
        target_dx=target_dx,
    )
    if outcome.failed:
        return BenchRecord(
            delta_l=None,
            delta_m=None,
            delta_r=None,
            norm_xtilde=None,
            residual_norm=None,
            failed=True,
            **common,
        )
    delta_l, delta_m, delta_r, residual = _metrics(
        outcome.x, x_exact, base_system.matrix, y, info.smin
    )
    return BenchRecord(
        delta_l=delta_l,
        delta_m=delta_m,
        delta_r=delta_r,
        norm_xtilde=float(np.linalg.norm(outcome.x)),
        residual_norm=residual,
        failed=False,
        **common,
    )


def run_suite(
    profile: str | Profile,
    solvers=None,
    seed: int = 7,
    prec: Precision = DEFAULT_PRECISION,
    *,
    timing: bool = False,
    opts: SolverOptions | None = None,
) -> list[BenchRecord]:
    """Execute every cell of a profile with the given solvers and return the
    records sorted by (system, order, solver).

    Perturbation cells draw one seeded perturbation per repetition (shared by
    all solvers of that repetition) and measure the recovered solution
    against the unperturbed exact solution.
    """
    if isinstance(profile, str):
        try:
            prof = PROFILES[profile]
        except KeyError:
            raise ValueError(f"unknown profile {profile!r}") from None
    else:
        prof = profile
    solver_list = tuple(solvers) if solvers is not None else prof.solvers
    for sid in solver_list:
        if sid not in SOLVER_IDS:
            raise ValueError(f"unknown solver id {sid!r}")
    if opts is None:
        opts = SolverOptions()
    if prof.emulate_svd and not opts.emulate_svd:
        opts = replace(opts, emulate_svd=True)
    records: list[BenchRecord] = []
    for system_id, m in prof.cells:
        system = generate_system(system_id, m)
        info = _system_info(system, prec)
        for sid in solver_list:
            rec = _run_cell(system, system, sid, info, prec, opts, timing, None)
            if rec is not None:
                records.append(rec)
    counter = 0
    for system_id, m, level, reps in prof.perturbed:
        base = generate_system(system_id, m)
        info = _system_info(base, prec)
        for _ in range(reps):
            counter += 1
            perturbed, _delta_y = perturb_solution(base, level, seed + counter)
            for sid in solver_list:
                rec = _run_cell(
                    perturbed, base, sid, info, prec, opts, timing, level
                )
                if rec is not None:
                    records.append(rec)
    records.sort(key=lambda r: (r.system_id, r.m, r.solver_id))
    return records


def _mean_of(values) -> float:
    finite = [v for v in values if v is not None and np.isfinite(v)]
    # summing in sorted order makes the mean independent of record order
    return float(np.mean(np.sort(finite))) if finite else float("nan")


def aggregate(records) -> list[AggregateRow]:
    """Arithmetic means per (solver, regime, family) group.  Failed records
    are excluded from every mean and counted in failures; non-finite metric
    values (e.g. delta_R of a singular system) are excluded from that
    metric's mean only."""
    groups: dict[tuple[str, str, str], list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.solver_id, rec.regime, rec.family), []).append(rec)
    rows = []
    for (solver_id, regime, family), recs in sorted(groups.items()):
        ok = [r for r in recs if not r.failed]
        rows.append(
            AggregateRow(
                solver_id=solver_id,
                regime=regime,
                family=family,
                count=len(ok),
                mean_delta_l=_mean_of(r.delta_l for r in ok),
                mean_delta_m=_mean_of(r.delta_m for r in ok),
                mean_delta_r=_mean_of(r.delta_r for r in ok),
                mean_norm_xtilde=_mean_of(r.norm_xtilde for r in ok),
                mean_norm_x=_mean_of(r.norm_x for r in ok),
                mean_time_s=_mean_of(r.wall_time_s for r in ok),
                failures=len(recs) - len(ok),
            )
        )
    return rows


def emit_report(rows, format: str = "csv") -> str:
    """Render aggregate rows as CSV (fixed 11-column schema) or as a markdown
    table with the same columns."""
    if format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        row.solver_id,
                        row.regime,
                        row.family,
                        str(row.count),
                        format_number(row.mean_delta_l),
                        format_number(row.mean_delta_m),
                        format_number(row.mean_delta_r),
                        format_number(row.mean_norm_xtilde),
                        format_number(row.mean_norm_x),
                        format_number(row.mean_time_s),
                        str(row.failures),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if format == "markdown":
        header = (
            "| solver | regime | family | count | mean δ_L | mean δ_M | "
            "mean δ_R | mean ‖x̃‖ | mean ‖x‖ | mean t(s) | failures |"
        )
        sep = "|" + " --- |" * 11
        lines = [header, sep]
        for row in rows:
            lines.append(
                "| "
                + " | ".join(
                    [
                        row.solver_id,
                        row.regime,
                        row.family,
                        str(row.count),
                        f"{row.mean_delta_l:.3e}",
                        f"{row.mean_delta_m:.3e}",
                        f"{row.mean_delta_r:.3e}",
                        f"{row.mean_norm_xtilde:.3e}",
                        f"{row.mean_norm_x:.3e}",
                        f"{row.mean_time_s:.3e}",
                        str(row.failures),
                    ]
                )
                + " |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str) -> list[AggregateRow]:
    """Parse a CSV report produced by emit_report back into rows."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 11:
            raise ValueError(f"expected 11 fields, got {len(parts)}: {line!r}")
        rows.append(
            AggregateRow(
                solver_id=parts[0],
                regime=parts[1],
                family=parts[2],
                count=int(parts[3]),
                mean_delta_l=float(parts[4]),
                mean_delta_m=float(parts[5]),
                mean_delta_r=float(parts[6]),
                mean_norm_xtilde=float(parts[7]),
                mean_norm_x=float(parts[8]),
                mean_time_s=float(parts[9]),
                failures=int(parts[10]),
            )
        )
    return rows
