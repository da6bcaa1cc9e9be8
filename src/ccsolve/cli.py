"""Command-line front end: solve one system from files, run benchmark
profiles, generate test systems, and print band-matrix pseudo-inverses.

``solve`` prints a summary: solver, order, the dense route, partition,
residual bound and events of the direct method (or a reference solver's
note), the realized residual, and last the regime line
``regime: <label> (kappa_inf = ...)``.  The regime is classified from the
infinity-norm condition number ||W||_inf ||W^-1||_inf, so band input costs
O(m) time and memory end to end; dense input is inverted, O(m^3) like its
solve.

Exit codes: 0 success, 2 usage or input error, 3 numeric solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    PROFILES,
    SOLVER_IDS,
    SolverOptions,
    _overflow_is_data,
    _solve_one,
    aggregate,
    emit_report,
    mcs_applicable,
    run_suite,
)
from .matrices import DenseMatrix, condition_number_inf, matvec
from .systems import classify, generate_system
from .textio import (
    ParseError,
    matrix_to_text,
    read_matrix,
    read_vector,
    vector_to_text,
    write_matrix,
    write_vector,
)
from .tridiagonal import pseudo_inverse_tridiagonal

__all__ = ["main"]

_SOLVER_CHOICES = tuple(sid.lower() for sid in SOLVER_IDS)

# summary line of the reduction a dense system goes through, per solver id
_DENSE_ROUTES = {
    "MCC": "route: general (bidiagonal reduction)",
    "MCS": "route: symmetric (tridiagonal reduction)",
}


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    """The two knobs of the banded sweep."""
    parser.add_argument(
        "--phi-threshold",
        type=float,
        default=None,
        help="separation-probe tolerance (default 2*sqrt(eps1))",
    )
    parser.add_argument(
        "--growth-threshold",
        type=float,
        default=None,
        help="critical-component growth cutoff (default 1/eps1)",
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """The sweep's knobs plus those of the SVD and Tikhonov solvers."""
    _add_threshold_flags(parser)
    parser.add_argument(
        "--svd-rtol",
        type=float,
        default=None,
        help="relative truncation tolerance of the SVD solver (default m*eps1)",
    )
    parser.add_argument(
        "--trm-delta",
        type=float,
        default=None,
        help="discrepancy target delta* of the Tikhonov solver",
    )
    parser.add_argument(
        "--emulate-svd-failure",
        action="store_true",
        help="make the SVD solver decline pathologically conditioned systems",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsolve",
        description=(
            "Critical-component direct solver and benchmark tool for "
            "tridiagonal, upper-bidiagonal, and dense linear systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one system from files")
    p_solve.add_argument("--matrix", required=True, help="matrix file")
    p_solve.add_argument("--rhs", required=True, help="right-hand-side file")
    p_solve.add_argument(
        "--solver", choices=_SOLVER_CHOICES, default="mcc", help="solver to run"
    )
    p_solve.add_argument("--out", help="write the solution vector here")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark profile")
    p_bench.add_argument(
        "--profile", required=True, help=f"one of: {', '.join(sorted(PROFILES))}"
    )
    p_bench.add_argument(
        "--solver",
        choices=_SOLVER_CHOICES,
        action="append",
        help="restrict to this solver (repeatable); default: profile's set",
    )
    p_bench.add_argument("--seed", type=int, default=7, help="master seed")
    p_bench.add_argument(
        "--format", choices=("csv", "markdown"), default="csv", help="report format"
    )
    p_bench.add_argument("--out", help="write the report here")
    p_bench.add_argument(
        "--timing", action="store_true", help="record wall-clock times"
    )
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a test system")
    p_gen.add_argument("id", type=int, help="system id, 1..20")
    p_gen.add_argument("m", type=int, help="system order, >= 3")
    p_gen.add_argument(
        "--out", help="output file prefix (default system<ID>_m<M>)"
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_pinv = sub.add_parser(
        "pinv", help="print the pseudo-inverse of a banded matrix"
    )
    p_pinv.add_argument("--matrix", required=True, help="matrix file (banded)")
    p_pinv.add_argument("--out", help="write the dense pseudo-inverse here")
    _add_threshold_flags(p_pinv)
    p_pinv.set_defaults(func=_cmd_pinv)

    return parser


def _opts_from(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(
        phi_threshold=args.phi_threshold,
        growth_threshold=args.growth_threshold,
        svd_rtol=args.svd_rtol,
        trm_delta=args.trm_delta,
        emulate_svd=args.emulate_svd_failure,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    w = read_matrix(args.matrix)
    y = read_vector(args.rhs)
    if y.shape != (w.m,):
        print(
            f"error: rhs length {y.size} does not match matrix order {w.m}",
            file=sys.stderr,
        )
        return 2
    solver_id = args.solver.upper()
    if solver_id == "MCS" and not mcs_applicable(w):
        print("error: solver mcs requires a dense symmetric matrix", file=sys.stderr)
        return 2
    with _overflow_is_data():
        outcome, inner = _solve_one(solver_id, w, y, _opts_from(args))
    if outcome.failed:
        print(f"{solver_id} failed: {outcome.note}", file=sys.stderr)
        return 3
    x = outcome.x
    summary = [f"solver: {solver_id}", f"m: {w.m}"]
    if inner is None:
        if outcome.note:
            summary.append(f"note: {outcome.note}")
    else:
        if isinstance(w, DenseMatrix):
            summary.append(_DENSE_ROUTES[solver_id])
        bottoms = " ".join(str(b) for b in inner.partition.boundaries)
        summary.append(f"partition: {bottoms}")
        summary.append(f"residual_bound: {inner.bound.bound_value:.6e}")
        if inner.events:
            # the note of an MCC or MCS outcome is its sorted event labels
            summary.append(f"events: {outcome.note}")
    with _overflow_is_data():
        residual = float(np.max(np.abs(matvec(w, x) - y)))
    summary.append(f"residual_inf: {residual:.6e}")
    regime = classify(condition_number_inf(w))
    summary.append(f"regime: {regime.label} (kappa_inf = {regime.mu:.6e})")
    text = vector_to_text(x)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("\n".join(summary))
    else:
        sys.stdout.write(text)
        print("\n".join(summary), file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    solvers = [s.upper() for s in args.solver] if args.solver else None
    records = run_suite(
        args.profile,
        solvers=solvers,
        seed=args.seed,
        timing=args.timing,
        opts=_opts_from(args),
    )
    report = emit_report(aggregate(records), format=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"{len(records)} records -> {args.out}")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    system = generate_system(args.id, args.m)
    prefix = args.out if args.out else f"system{args.id}_m{args.m}"
    write_matrix(f"{prefix}.matrix", system.matrix)
    write_vector(f"{prefix}.rhs", system.y)
    write_vector(f"{prefix}.x", system.x_exact)
    print(f"{prefix}.matrix")
    print(f"{prefix}.rhs")
    print(f"{prefix}.x")
    return 0


def _cmd_pinv(args: argparse.Namespace) -> int:
    w = read_matrix(args.matrix)
    if isinstance(w, DenseMatrix):
        print("error: pinv expects a banded (tridiagonal or bidiagonal) matrix", file=sys.stderr)
        return 2
    pinv = pseudo_inverse_tridiagonal(
        w, phi_threshold=args.phi_threshold, growth_threshold=args.growth_threshold
    )
    text = matrix_to_text(pinv)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"pseudo-inverse -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
