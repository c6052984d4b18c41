#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the result line names exactly the metrics of ``BENCHMARK.json`` with their
   units, with no failed operation.
2. Corrupts one output per workload between the program writing it and the
   check reading it, and checks that the operation is counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, SRC, OpLog

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402  (needs SRC on the path)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result_lines(spec):
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            expect(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: {proc.stdout}")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: metrics {got} != {wanted}")
            for key, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {key} = {value!r}")
                expect(trace or value > 0, f"{name}: end-to-end {key} is {value!r}")
            print(f"ok  {name} trace {trace}: {len(got)} metrics, {result['attempted']} operations")


def _add_to_column(path, column, delta_of_row):
    """Rewrite a CSV with ``delta_of_row(i, t)`` added to one column."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    col, tcol = header.index(column), header.index("t")
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) + delta_of_row(i, float(cells[tcol])))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n")


def corrupted_pass(workload, method, corrupt):
    """One pass with ``corrupt(result)`` applied just before ``method`` checks the output."""
    original = getattr(workload, method)
    setattr(workload, method, lambda result, *rest: original(corrupt(result), *rest))
    ops = OpLog()
    try:
        workload.run_pass(ops)
    finally:
        ops.close()
        delattr(workload, method)
    return ops


def check_corruption_detected():
    def tone_above_mass(workload):
        # a strong e^{-2 i t} tone moves the dominant frequency out of (0, m)
        def corrupt(result):
            path = workload.dir / "run" / "observers.csv"
            _add_to_column(path, "psi1_re", lambda i, t: 10.0 * math.cos(2.0 * t))
            _add_to_column(path, "psi1_im", lambda i, t: -10.0 * math.sin(2.0 * t))
            return result
        return corrupt

    def bump_one_sample(workload):
        def corrupt(result):
            _add_to_column(workload.dir / "first" / "observers.csv", "psi1_re",
                           lambda i, t: 0.05 if i == 50 else 0.0)
            return result
        return corrupt

    def move_distance(result):
        return dataclasses.replace(result, dist=2.0 * result.dist + 1.0)

    cases = [("attraction", "check_simulate", tone_above_mass),
             ("wide_gap_restart", "check_first", bump_one_sample),
             ("manifold_scan", "check_distance", lambda workload: move_distance)]
    for name, method, make_corrupt in cases:
        workdir = OUT / f"selftest-{name}"
        try:
            workload = WORKLOADS[name](1, workdir, tiny=True)
            clean = OpLog()
            workload.run_pass(clean)
            clean.close()
            expect(clean.failed == 0, f"{name}: clean pass failed: {clean.problems}")
            ops = corrupted_pass(workload, method, make_corrupt(workload))
            expect(ops.failed >= 1, f"{name}: corrupted output via {method} was not counted as failed")
            print(f"ok  {name}: corrupted output counted as failed ({ops.problems[0]})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_corruption_detected()
    check_result_lines(spec)
    print("selftest ok")


if __name__ == "__main__":
    main()
