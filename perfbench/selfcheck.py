"""Self-checks of the ccsolve benchmark; run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the benchmark's workloads and metrics, with the
   same units and directions, and a short run of every workload in both
   modes prints exactly those metric names.
2. A planted wrong solution (x+ scaled by 1 + 1e-3 on a well-posed banded
   op) is counted as a failed op and makes the run incorrect.
3. In a directory holding only BENCHMARK.json and perfbench/, without the
   ccsolve sources, the benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads and puts src/ on sys.path

ROOT = run.ROOT
RUN = os.path.join("perfbench", "run.py")


def check_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(run.workloads.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json {declared} != {run.workloads.WORKLOADS}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            problems.append(f"{key}: BENCHMARK.json differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    for workload in declared:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "11",
                 "--seconds", "0.1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} --trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != {n: unit for n, (unit, _) in table.items()}:
                problems.append(f"{workload} --trace {trace}: printed metrics differ")
    return problems


def check_planted_failure() -> list[str]:
    workload = run.workloads.build("banded", 7, os.path.join(run.HERE, "out"))
    clean = [op for op in workload.canonical
             if op.well_posed and not op.check(op.call(), run.NULL)]
    if not clean:
        return ["planted: no well-posed banded op passes its check"]
    op = clean[0]

    def planted_call():
        sol = op.call()
        return dataclasses.replace(sol, x_plus=sol.x_plus * (1.0 + 1e-3))

    planted = dataclasses.replace(op, label=f"planted {op.label}", call=planted_call)
    tally = run.Tally()
    run.run_passes([op, planted], tally, passes=1)
    if tally.failed != 1 or planted.label not in tally.reasons or not tally.hard:
        return [f"planted: expected exactly the planted op to fail, got {tally.reasons}"]
    return []


def check_no_sources() -> list[str]:
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(run.HERE):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "banded", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"no sources: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    problems = check_planted_failure() + check_no_sources() + check_names()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
