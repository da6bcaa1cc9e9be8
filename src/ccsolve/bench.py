"""Benchmark harness: solution-error metrics, named suite profiles over the
twenty test systems, per-(solver, regime, family) aggregation, and CSV or
markdown report emission.

A suite run produces one BenchRecord per (system, order, solver) cell; the
perturbation cells additionally carry the target solution shift so the
noise-response study can be summarized per level.  Failures (a reference
solver declining) are data: the record is kept with empty metrics and
counted in the aggregate failure column.

The report's eleven columns live in one table, ``_COLUMNS`` (CSV name,
markdown name, AggregateRow field, averaged BenchRecord field); CSV_HEADER,
both report formats, parse_report and the means of aggregate all read it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from .matrices import (
    _BANDED,
    DenseMatrix,
    Matrix,
    _condition_from,
    _singular_extremes,
    matvec,
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
from .tridiagonal import CCSolution, solve_cc_tridiagonal

__all__ = [
    "AggregateRow",
    "BenchRecord",
    "CSV_HEADER",
    "PROFILES",
    "Profile",
    "SOLVER_IDS",
    "aggregate",
    "emit_report",
    "error_metrics",
    "parse_report",
    "run_suite",
]

SOLVER_IDS = ("MCC", "MCS", "GS", "QR", "SVD", "TRM")


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


class _Column(NamedTuple):
    csv: str
    markdown: str
    field: str  # of AggregateRow
    mean_of: str | None  # the BenchRecord field averaged; None for keys and counts


_COLUMNS = (
    _Column("solver", "solver", "solver_id", None),
    _Column("regime", "regime", "regime", None),
    _Column("family", "family", "family", None),
    _Column("count", "count", "count", None),
    _Column("mean_delta_L", "mean δ_L", "mean_delta_l", "delta_l"),
    _Column("mean_delta_M", "mean δ_M", "mean_delta_m", "delta_m"),
    _Column("mean_delta_R", "mean δ_R", "mean_delta_r", "delta_r"),
    _Column("mean_norm_xtilde", "mean ‖x̃‖", "mean_norm_xtilde", "norm_xtilde"),
    _Column("mean_norm_x", "mean ‖x‖", "mean_norm_x", "norm_x"),
    _Column("mean_time_s", "mean t(s)", "mean_time_s", "wall_time_s"),
    _Column("failures", "failures", "failures", None),
)

CSV_HEADER = ",".join(col.csv for col in _COLUMNS)
_FIELD_TYPES = get_type_hints(AggregateRow)  # parses a CSV value per field


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
    prof.name: prof
    for prof in (
        Profile("smoke", cells=((5, 3), (9, 3), (10, 3)), solvers=("MCC", "GS")),
        Profile(
            "small",
            cells=_grid(range(1, 11), (3, 5, 10, 20, 50))
            + _grid(range(11, 21), (3, 5, 8)),
        ),
        Profile(
            "table13-small",
            perturbed=tuple(
                (17, m, level, 50)
                for m in (3, 4, 5, 6)
                for level in (0.10, 0.20, 0.30, 0.39, 0.60)
            ),
            solvers=("MCC", "MCS", "GS", "QR", "SVD"),
        ),
        Profile(
            "pathological",
            cells=((20, 4), (20, 6), (20, 8), (17, 12), (17, 13)),
            emulate_svd=True,
        ),
        Profile(
            "paper-like",
            cells=_grid(range(1, 11), (3, 5, 10, 20, 50, 100, 200))
            + _grid(range(11, 21), (3, 5, 8, 13, 21)),
        ),
    )
}


def _metrics(x_tilde, x_exact, w, y, smin):
    x_norm = float(np.linalg.norm(x_exact))
    if x_norm == 0.0:
        raise ValueError("exact solution has zero norm")
    x_tilde = np.asarray(x_tilde, dtype=float)
    norm_xtilde = float(np.linalg.norm(x_tilde))
    delta_l = abs(norm_xtilde - x_norm) / x_norm
    delta_m = float(np.linalg.norm(x_tilde - x_exact)) / x_norm
    residual = float(np.linalg.norm(matvec(w, x_tilde) - np.asarray(y, dtype=float)))
    delta_r = np.inf if smin == 0.0 else residual / smin / x_norm
    return delta_l, delta_m, delta_r, residual, norm_xtilde


def error_metrics(x_tilde, x_exact, w: Matrix, y) -> tuple[float, float, float]:
    """Lower, middle, and upper relative-error metrics of a computed solution:
    delta_L = |  ||x_tilde|| - ||x||  | / ||x||,
    delta_M = ||x_tilde - x|| / ||x||,
    delta_R = ||W^-1||_2 * ||W x_tilde - y|| / ||x|| (spectral norm from the
    SVD oracle; infinite for an exactly singular matrix)."""
    _, smin = _singular_extremes(w)
    return _metrics(x_tilde, x_exact, w, y, smin)[:3]


def mcs_applicable(w: Matrix) -> bool:
    return isinstance(w, DenseMatrix) and is_symmetric(w)


def _overflow_is_data():
    """Floating-point state for a solve and its metrics: a solution or metric
    that overflows is recorded (a failed outcome, an infinite metric), so
    numpy's overflow warnings would only repeat it."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _solve_one(
    solver_id: str, w: Matrix, y, emulate_svd: bool = False
) -> tuple[SolverOutcome, CCSolution | None]:
    """Run one solver by id at its library defaults (MCC and MCS at the
    sweep's default thresholds): the one dispatch behind the bench and the
    CLI.

    Returns the outcome and, for MCC and MCS, the inner banded solution
    (None for the reference solvers).  The SVD solver declines
    pathologically conditioned systems when emulate_svd is set (a profile's
    switch).  A numeric failure is a failed outcome: a non-finite x gets the
    note "error: non-finite solution", TRM's LinAlgError on a singular
    A^T A the note "error: <message>".  Other exceptions from the solvers
    propagate to the caller.
    """
    inner = None
    if solver_id in ("MCC", "MCS"):
        if solver_id == "MCC" and isinstance(w, _BANDED):
            inner = solve_cc_tridiagonal(w, y)
            x = inner.x_plus
        else:
            route = "general" if solver_id == "MCC" else "symmetric"
            x, diag = solve_dense(w, y, route=route)
            inner = diag.inner
        labels = sorted({label for label, _ in inner.events})
        outcome = SolverOutcome(solver_id, x, ",".join(labels))
    elif solver_id == "GS":
        outcome = solve_gauss(w, y)
    elif solver_id == "QR":
        outcome = solve_qr(w, y)
    elif solver_id == "SVD":
        outcome = solve_svd_truncated(w, y, emulate_failure=emulate_svd)
    elif solver_id == "TRM":
        try:
            outcome = solve_tikhonov(w, y)
        except np.linalg.LinAlgError as exc:  # A^T A + alpha E exactly singular
            outcome = SolverOutcome(solver_id, None, f"error: {exc}")
    else:
        raise ValueError(f"unknown solver id {solver_id!r}")
    if not outcome.failed and not np.all(np.isfinite(outcome.x)):
        outcome = SolverOutcome(solver_id, None, "error: non-finite solution")
    return outcome, inner


@dataclass(frozen=True)
class _SystemInfo:
    mu: float
    regime: str
    smin: float


def _system_info(system: TestSystem) -> _SystemInfo:
    smax, smin = _singular_extremes(system.matrix)
    mu = _condition_from(smax, smin, system.m)
    return _SystemInfo(mu=mu, regime=classify(mu).label, smin=smin)


def _run_cell(
    solved: TestSystem,
    base: TestSystem,
    solver_id: str,
    info: _SystemInfo,
    emulate_svd: bool,
    timing: bool,
    target_dx: float | None,
) -> BenchRecord:
    t0 = time.perf_counter()
    with _overflow_is_data():
        try:
            outcome, _ = _solve_one(solver_id, solved.matrix, solved.y, emulate_svd)
        except (FloatingPointError, ValueError) as exc:
            outcome = SolverOutcome(solver_id, None, f"error: {exc}")
        wall = time.perf_counter() - t0 if timing else 0.0
        metrics = (None,) * 5
        if not outcome.failed:
            metrics = _metrics(outcome.x, base.x_exact, base.matrix, base.y, info.smin)
    delta_l, delta_m, delta_r, residual, norm_xtilde = metrics
    return BenchRecord(
        system_id=base.id,
        m=base.m,
        solver_id=solver_id,
        regime=info.regime,
        mu=info.mu,
        delta_l=delta_l,
        delta_m=delta_m,
        delta_r=delta_r,
        norm_xtilde=norm_xtilde,
        norm_x=float(np.linalg.norm(base.x_exact)),
        residual_norm=residual,
        y_norm=float(np.linalg.norm(base.y)),
        wall_time_s=wall,
        failed=outcome.failed,
        notes=outcome.note,
        family=base.family,
        target_dx=target_dx,
    )


def _cases(prof: Profile, seed: int):
    """Yield (system solved, unperturbed base, oracle info, target shift) for
    the plain cells first, then for each perturbed repetition.  A repetition
    draws one seeded perturbation, shared by all solvers of that repetition,
    and the oracle info is that of its base."""
    for system_id, m in prof.cells:
        system = generate_system(system_id, m)
        yield system, system, _system_info(system), None
    counter = 0
    for system_id, m, level, reps in prof.perturbed:
        base = generate_system(system_id, m)
        info = _system_info(base)
        for _ in range(reps):
            counter += 1
            perturbed, _delta_y = perturb_solution(base, level, seed + counter)
            yield perturbed, base, info, level


def run_suite(
    profile: str | Profile,
    solvers=None,
    seed: int = 7,
    *,
    timing: bool = False,
) -> list[BenchRecord]:
    """Execute every cell of a profile with the given solvers, each at its
    library defaults, and return the records sorted by (system, order,
    solver).

    Perturbation cells draw one seeded perturbation per repetition (shared by
    all solvers of that repetition) and measure the recovered solution
    against the unperturbed exact solution.  MCS runs only on cells whose
    matrix is dense and symmetric.
    """
    prof = PROFILES.get(profile) if isinstance(profile, str) else profile
    if prof is None:
        raise ValueError(f"unknown profile {profile!r}")
    solver_list = tuple(solvers) if solvers is not None else prof.solvers
    for sid in solver_list:
        if sid not in SOLVER_IDS:
            raise ValueError(f"unknown solver id {sid!r}")
    records = [
        _run_cell(solved, base, sid, info, prof.emulate_svd, timing, target_dx)
        for solved, base, info, target_dx in _cases(prof, seed)
        for sid in solver_list
        if sid != "MCS" or mcs_applicable(solved.matrix)
    ]
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
    for key, recs in sorted(groups.items()):
        ok = [r for r in recs if not r.failed]
        means = {
            col.field: _mean_of(getattr(r, col.mean_of) for r in ok)
            for col in _COLUMNS
            if col.mean_of
        }
        # the group key is the row's leading (solver_id, regime, family)
        rows.append(
            AggregateRow(*key, count=len(ok), failures=len(recs) - len(ok), **means)
        )
    return rows


def emit_report(rows, format: str = "csv") -> str:
    """Render aggregate rows as CSV (fixed 11-column schema) or as a markdown
    table with the same columns."""
    if format == "csv":
        lines = [CSV_HEADER] + [",".join(_cells(row, format_number)) for row in rows]
    elif format == "markdown":
        table = [[col.markdown for col in _COLUMNS], ["---"] * len(_COLUMNS)]
        table += [_cells(row, "{:.3e}".format) for row in rows]
        lines = ["| " + " | ".join(cells) + " |" for cells in table]
    else:
        raise ValueError(f"unknown report format {format!r}")
    return "\n".join(lines) + "\n"


def _cells(row: AggregateRow, format_mean) -> list[str]:
    """The row's values in column order, means through format_mean."""
    return [
        (format_mean if col.mean_of else str)(getattr(row, col.field))
        for col in _COLUMNS
    ]


def parse_report(text: str) -> list[AggregateRow]:
    """Parse a CSV report produced by emit_report back into rows."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(
                f"expected {len(_COLUMNS)} fields, got {len(parts)}: {line!r}"
            )
        values = {c.field: _FIELD_TYPES[c.field](p) for c, p in zip(_COLUMNS, parts)}
        rows.append(AggregateRow(**values))
    return rows
