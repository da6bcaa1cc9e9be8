"""ccsolve benchmark: one closed-loop client calling the public ccsolve API.

    python3 perfbench/run.py --workload banded --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ccsolve from ``src/``.  With
``--trace 0`` it sets up the workload several times, runs whole passes over
the workload's ops until ``--seconds`` have gone by, checks every output, and
runs one untimed memory pass.  With ``--trace 1`` it runs untraced passes for
half the time, then the same number of traced passes, and reports per-layer
numbers and the tracing overhead; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics.  The lines before it print each metric with its
unit and sample count, and every failing op with the reason.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import time
import tracemalloc
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s counts this import of numpy and ccsolve (through workloads)
_t0 = time.perf_counter()
sys.path.insert(0, SRC)
try:
    import workloads
except ImportError as _exc:
    workloads = None
    IMPORT_ERROR = str(_exc)
IMPORT_S = time.perf_counter() - _t0

from tracing import NullTracer, Tracer  # noqa: E402

NULL = NullTracer()
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# name -> (unit, better); BENCHMARK.json lists the same names (selfcheck.py)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ok_frac": ("ratio", "higher"),
    "peak_mib": ("MiB", "lower"),
}
_EVENTS = (
    "growth-split", "nonfinite-split", "nonfinite-truncated", "perturbed-zero",
    "probe-split", "severed-bottom", "top-row-split", "top-row-unresolved",
    "truncated-diagonal", "other",
)
PER_LAYER = {
    "systems.generate_s": ("s", "lower"),
    "matrices.norm_inf_s": ("s", "lower"),
    "matrices.matvec_s": ("s", "lower"),
    "minors.lambda_s": ("s", "lower"),
    "tridiagonal.solve_s": ("s", "lower"),
    "tridiagonal.blocks": ("count", "lower"),
    **{f"tridiagonal.events.{kind}": ("count", "lower") for kind in _EVENTS},
    "tridiagonal.bound_violations": ("count", "lower"),
    "tridiagonal.nonfinite": ("count", "lower"),
    "tridiagonal.bound_ratio_max": ("ratio", "lower"),
    "bidiagonal.solve_s": ("s", "lower"),
    "bidiagonal.blocks": ("count", "lower"),
    "bidiagonal.bound_violations": ("count", "lower"),
    "bidiagonal.nonfinite": ("count", "lower"),
    "bidiagonal.bound_ratio_max": ("ratio", "lower"),
    "reduction.reduce_general_s": ("s", "lower"),
    "reduction.reduce_symmetric_s": ("s", "lower"),
    "reduction.backmap_s": ("s", "lower"),
    "reduction.solve_dense_s": ("s", "lower"),
    "reduction.factor_mib": ("MiB", "lower"),
    "reference.gauss_s": ("s", "lower"),
    "reference.qr_s": ("s", "lower"),
    "reference.svd_s": ("s", "lower"),
    "reference.tikhonov_s": ("s", "lower"),
    "reference.declined": ("count", "lower"),
    "bench.run_suite_s": ("s", "lower"),
    "bench.oracle_s": ("s", "lower"),
    "bench.report_s": ("s", "lower"),
    "bench.cell_errors": ("count", "lower"),
    "textio.parse_s": ("s", "lower"),
    "textio.format_s": ("s", "lower"),
    "cli.solve_s": ("s", "lower"),
    "cli.pinv_s": ("s", "lower"),
    "cli.oracle_s": ("s", "lower"),
    "harness.op_s": ("s", "lower"),
    "harness.trace_overhead_s": ("s", "lower"),
}


class Tally:
    """Attempted and failed ops, the reasons, and whether any failure
    contradicts a guarantee (see workloads.HARD_REASONS)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hard = False
        self.reasons: dict[str, list[str]] = {}

    def add(self, op, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.setdefault(op.label, reasons)
            self.hard |= any(r.split(":")[0] in workloads.HARD_REASONS for r in reasons)


def run_op(op, tr):
    """Time one op and check it; returns (latency in s, failure reasons)."""
    t0 = time.perf_counter()
    try:
        result = op.call() if tr is None else op.traced(tr)
    except Exception as exc:  # a failing op is counted, never aborts the run
        latency = time.perf_counter() - t0
        if tr is not None and op.raise_count:
            tr.count(op.raise_count)
        return latency, [f"raised: {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t0
    return latency, op.check(result, NULL if tr is None else tr)


def run_passes(ops, tally, *, seconds=None, passes=None, tr=None):
    """Whole passes over ops: until `seconds` have gone by, or `passes` times.
    Returns per-op latency lists, the pass count and the wall time."""
    samples = [[] for _ in ops]
    done = 0
    start = time.perf_counter()
    while (done < passes) if passes is not None else (
        done == 0 or time.perf_counter() - start < seconds
    ):
        for i, op in enumerate(ops):
            if tr is None:
                latency, reasons = run_op(op, None)
            else:
                with tr.op(i):
                    latency, reasons = run_op(op, tr)
            samples[i].append(latency)
            tally.add(op, reasons)
        done += 1
    return samples, done, time.perf_counter() - start


def latency_metrics(samples):
    """Throughput, p50 and tail over the per-op medians of the passes, which
    keeps a slow spell of the machine during one pass out of the figures.
    The tail is the highest percentile with TAIL_BEYOND ops beyond it; with
    a fixed op list that percentile is fixed for the workload, whatever the
    speed."""
    per_op = sorted(statistics.median(s) for s in samples)
    n = len(per_op)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "ops_per_s": n / sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * per_op[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
    }


def memory_pass(workload):
    """Largest tracemalloc peak of a single op, over the largest-order op of
    each kind (peak memory grows with the order), in generation order."""
    chosen = {}
    for op in workload.canonical:
        if op.kind not in chosen or op.order > chosen[op.kind].order:
            chosen[op.kind] = op
    peak = 0
    for op in workload.canonical:
        if chosen.get(op.kind) is not op:
            continue
        tracemalloc.start()
        try:
            result = op.call()
        except Exception:  # counted in the timed loop; only memory matters here
            result = None
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if result is not None:
            op.check(result, NULL)
    return peak / 2.0**20, len(chosen)


def setup(args, workdir):
    """Build the workload and run one untimed warm-up op; returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, workdir)
    try:
        workload.canonical[0].call()
    except Exception:  # the timed loop counts failures; this call only warms up
        pass
    return workload, time.perf_counter() - t0


def show(name, value, unit, note=""):
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def report_failures(tally):
    print(f"failed ops: {tally.failed} of {tally.attempted} attempted")
    for label, reasons in sorted(tally.reasons.items()):
        print(f"  FAILED {label}: {'; '.join(reasons)}")


def timed_run(args, workdir, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, seconds = setup(args, workdir)
        setups.append(seconds)
    workload.prepare()
    tally = Tally()
    samples, passes, _wall = run_passes(workload.ops, tally, seconds=args.seconds)
    lat = latency_metrics(samples)
    peak_mib, mem_ops = memory_pass(workload)
    n_ops = len(workload.ops)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": lat["ops_per_s"],
        "op_p50_ms": lat["op_p50_ms"],
        "op_tail_ms": lat["op_tail_ms"],
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_mib": peak_mib,
    }
    notes = {
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups",
        "ops_per_s": f"{tally.attempted} ops, {passes} passes of {n_ops}",
        "op_p50_ms": f"median of {n_ops} per-op medians over {passes} passes",
        "op_tail_ms": f"p{lat['tail_percentile']:.1f} of {n_ops} per-op medians "
        f"({TAIL_BEYOND} beyond), {tally.attempted} samples",
        "ok_frac": f"failed_frac {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted})",
        "peak_mib": f"max over {mem_ops} ops, one per kind at its largest order",
    }
    print(f"workload {args.workload}, seed {args.seed}, end-to-end (tracing off):")
    for name, value in metrics.items():
        show(name, value, END_TO_END[name][0], notes[name])
    report_failures(tally)
    return tally, {n: {"value": v, "unit": END_TO_END[n][0]} for n, v in metrics.items()}


def traced_run(args, workdir):
    workload, _ = setup(args, workdir)
    workload.prepare()
    tally = Tally()
    _, passes, untraced_wall = run_passes(workload.ops, tally, seconds=args.seconds / 2.0)
    tr = Tracer()
    _, _, traced_wall = run_passes(workload.ops, tally, passes=passes, tr=tr)
    overhead = traced_wall - tr.tagged_seconds("replica") - untraced_wall
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, total in list(tr.self_times().items()) + list(tr.counts.items()):
        values[name] = values.get(name, 0.0) + total / passes
    values.update(tr.maxima)
    values["harness.trace_overhead_s"] = overhead / passes
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"spans or counters without a metric: {sorted(unknown)}")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    tr.dump(spans_path, workload=args.workload, seed=args.seed, passes=passes)
    print(f"workload {args.workload}, seed {args.seed}, per layer "
          f"(per pass of {len(workload.ops)} ops, {passes} traced passes):")
    for name, value in values.items():
        show(name, value, PER_LAYER[name][0])
    print(f"  traced wall {traced_wall:.4f} s (replica calls "
          f"{tr.tagged_seconds('replica'):.4f} s), untraced wall {untraced_wall:.4f} s")
    print(f"spans: {len(tr.spans)} -> {os.path.relpath(spans_path, ROOT)}")
    report_failures(tally)
    return tally, {n: {"value": v, "unit": PER_LAYER[n][0]} for n, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if workloads is None or not workloads.cc.__file__.startswith(SRC + os.sep):
        where = IMPORT_ERROR if workloads is None else workloads.cc.__file__
        print(f"error: ccsolve sources not found under {SRC} ({where})", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow in ill-posed solves

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            tally, metrics = traced_run(args, workdir)
        else:
            tally, metrics = timed_run(args, workdir, IMPORT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not tally.hard,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
