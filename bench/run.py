#!/usr/bin/env python3
"""kgpoint benchmark: closed-loop workloads through the CLI and the public API.

Run from the repository root:

    python3 bench/run.py --workload attraction --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``attraction``,
``wide_gap_restart``, ``manifold_scan``.  One process, one client, one
operation at a time; the package is imported from ``src/`` of the checkout.

Reference-scaled times.  On a shared machine the speed of one core drifts by
20-30 % over minutes, far more than a useful regression bound.  So before an
operation, whenever 0.2 s have passed since the last sample, and after the
last one, the benchmark times a fixed reference computation that uses no
kgpoint code, and scales each operation's time by ``REF_NOMINAL_S`` over the
mean of the samples just before and just after it.  The gated times are
therefore seconds on a machine where the reference takes 10 ms (a 2-vCPU
2.0 GHz x86-64 VM takes 8-10 ms); the raw medians are printed beside them.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: median over five fresh interpreters of ``import kgpoint``
  plus building the workload's inputs;
* ``wall_s``: median time of one pass over the workload's operations;
* ``op_p50_ms``: median latency of the workload's main operation (the
  ``simulate`` command; each evolving command; one ``dist_to_manifold`` call);
* ``work_per_s``: grid node-steps per second of the evolving commands, or,
  on ``manifold_scan``, solved branch points per second of
  ``solve --omega-range`` (total work over total time);
* ``peak_rss_mb``: peak resident memory of this process (not scaled).

``--trace 1`` spends half the time untraced, then wraps the package's public
functions with span recorders (``spans.py``) and reports the per-layer
metrics, per pass, from the other half.  Span times are scaled with their
operation, so layer self times add up to the scaled traced pass time;
spans are written to ``bench/out/spans-<workload>.csv``.

One pass runs untimed first, so lazy imports and caches are warm.  Every
operation's output is checked; a nonzero exit, an exception or a failed check
counts as a failed operation.  Lines before the last give machine facts and
the workload's own figures; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.2

_REF_RNG = np.random.default_rng(0)
_REF_FIELD = _REF_RNG.normal(size=5001) + 1j * _REF_RNG.normal(size=5001)
_REF_X = np.linspace(-50.0, 50.0, 5001)
_REF_MATRIX = 4.0 * np.eye(4) + _REF_RNG.normal(size=(4, 4))
_REF_VECTOR = _REF_RNG.normal(size=4)


def reference_kernel() -> float:
    """Fixed work in the program's style, driven by a Python loop: stencil
    sweeps and reductions on a README-sized grid, exponential profiles on it,
    and Newton-like iterations on a 4x4 system."""
    x = _REF_FIELD.copy()
    acc = 0.0
    for i in range(60):
        x[1:-1] += 1e-3 * (x[2:] - 2.0 * x[1:-1] + x[:-2])
        acc += float(np.sum(np.abs(x) ** 2))
        acc += float(np.sum(np.exp(-(0.5 + 0.01 * i) * np.abs(_REF_X - 0.1))))
        c = np.array([0.7, 0.1, 0.7, 0.0])
        for _ in range(4):
            r = _REF_MATRIX @ c - _REF_VECTOR
            c = c - np.linalg.solve(_REF_MATRIX, r)
            acc += float(np.max(np.abs(r)))
    return acc


class RefClock:
    """Durations of the reference kernel, sampled between timed operations."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")
        reference_kernel()  # the first call pays for lazy loading in numpy

    def sample(self):
        """Fastest of three back-to-back runs, so one interruption does not count."""
        times = []
        for _ in range(3):
            start = perf_counter()
            reference_kernel()
            self.last = perf_counter()
            times.append(self.last - start)
        self.samples.append(min(times))

    def scale(self, seconds: float, first: int) -> float:
        """``seconds`` at reference speed, from samples ``first`` and ``first + 1``."""
        return seconds * REF_NOMINAL_S / statistics.fmean(self.samples[first: first + 2])


class Op(NamedTuple):
    kind: str
    seconds: float
    work: int
    ok: bool
    ref: int  # index of the last reference sample taken before the operation


class OpLog:
    """Runs operations one at a time, with reference samples between them."""

    def __init__(self):
        self.records: list[Op] = []
        self.problems: list[str] = []
        self.clock = RefClock()
        self.tracer = None
        self._devnull = open(os.devnull, "w")

    def close(self):
        self._devnull.close()

    def scaled(self, op: Op) -> float:
        return self.clock.scale(op.seconds, op.ref)

    def cli(self, kind, argv, check, work=0):
        from kgpoint import cli

        def call():
            with contextlib.redirect_stdout(self._devnull):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"kgpoint {argv[0]} exited with code {code}")

        self.api(kind, call, check, work)

    def api(self, kind, call, check, work=0):
        if perf_counter() - self.clock.last >= REF_EVERY_S:
            self.clock.sample()
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id += 1
        problems = None
        start = perf_counter()
        try:
            result = call()
        except Exception as err:  # a failing operation is counted and the loop goes on
            problems = [f"raised {type(err).__name__}: {err}"]
        seconds = perf_counter() - start
        if problems is None:
            if tracer is not None:
                tracer.paused = True
            try:
                problems = check(result)
            except Exception as err:  # a missing or malformed output fails the check
                problems = [f"output check raised {type(err).__name__}: {err}"]
            finally:
                if tracer is not None:
                    tracer.paused = False
        self.problems += [f"{kind}: {p}" for p in problems]
        self.records.append(Op(kind, seconds, work, not problems, len(self.clock.samples) - 1))

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.records)


def timed_passes(workload, ops: OpLog, seconds: float) -> list[list[Op]]:
    """Run passes until ``seconds`` have elapsed; returns each pass's operations."""
    passes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        first = len(ops.records)
        workload.run_pass(ops)
        passes.append(ops.records[first:])
    ops.clock.sample()  # closes the bracket around the last operation
    return passes


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw and reference-scaled wall times of fresh setup processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    clock = RefClock()
    raw = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - start)
    clock.sample()
    return raw, [clock.scale(seconds, i) for i, seconds in enumerate(raw)]


def git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def machine_facts(args, load_at_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgpoint").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "git_head": git_head(),
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(workload, ops: OpLog, passes: list[list[Op]], setup):
    raw_setup, scaled_setup = setup
    timed = [op for ops_in_pass in passes for op in ops_in_pass]
    main = [op for op in timed if op.kind == workload.main_kind]
    working = [op for op in timed if op.work]
    main_ms = [1e3 * ops.scaled(op) for op in main]
    metrics = {
        "setup_s": statistics.median(scaled_setup),
        "wall_s": statistics.median(sum(ops.scaled(op) for op in p) for p in passes),
        "op_p50_ms": statistics.median(main_ms),
        "work_per_s": sum(op.work for op in working) / sum(ops.scaled(op) for op in working),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_main_ms = [1e3 * op.seconds for op in main]
    lines = [
        f"{workload.main_kind} latency (scaled): p50 {metrics['op_p50_ms']:.3f} ms, "
        f"p90 {p90(main_ms):.3f} ms (n={len(main)}); raw p50 {statistics.median(raw_main_ms):.3f} ms, "
        f"raw p90 {p90(raw_main_ms):.3f} ms",
        f"{workload.work_name} (scaled): {metrics['work_per_s']:.6g} over {len(working)} operations; "
        f"raw {sum(op.work for op in working) / sum(op.seconds for op in working):.6g}",
        f"wall_s (scaled) {metrics['wall_s']:.4f} s, raw {statistics.median(sum(op.seconds for op in p) for p in passes):.4f} s "
        f"over {len(passes)} passes; setup_s (scaled) {metrics['setup_s']:.4f} s, raw {statistics.median(raw_setup):.4f} s",
        f"reference kernel: median {1e3 * statistics.median(ops.clock.samples):.3f} ms over {len(ops.clock.samples)} samples "
        f"(nominal {1e3 * REF_NOMINAL_S:g} ms)",
    ]
    return metrics, lines


def traced_run(workload, ops: OpLog, seconds: float, package):
    from spans import Tracer, install, layer_metrics

    untraced = timed_passes(workload, ops, seconds / 2)
    tracer = Tracer()
    wrapped = install(tracer, package)
    ops.tracer = tracer
    first = len(ops.records)
    traced = timed_passes(workload, ops, seconds / 2)
    ops.tracer = None
    # operation ids count from 1 in the order the operations ran
    scale = [0.0] + [ops.scaled(op) / op.seconds for op in ops.records[first:]]
    metrics = layer_metrics(tracer, len(traced), scale)
    scaled = [sum(ops.scaled(op) for op in p) for p in traced]
    rows = tracer.table()
    rows = rows[rows[:, 1] < 0]  # spans called by the benchmark itself
    top = float(np.sum((rows[:, 5] - rows[:, 4]) * np.asarray(scale)[rows[:, 2].astype(int)]))
    metrics["trace.pass_s"] = statistics.fmean(scaled)
    metrics["trace.harness_s"] = (sum(scaled) - top) / len(traced)

    def scaled_wall(passes):
        return statistics.median(sum(ops.scaled(op) for op in p) for p in passes)

    metrics["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload.name}.csv")
    lines = [
        f"traced {len(traced)} passes with {wrapped} public functions wrapped, "
        f"{tracer.count} spans; untraced {len(untraced)} passes",
        f"wall_s (scaled): traced {scaled_wall(traced):.4f} s, untraced {scaled_wall(untraced):.4f} s, "
        f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per pass",
        f"traced pass mean (scaled) {metrics['trace.pass_s']:.4f} s = layer self times "
        f"{metrics['trace.pass_s'] - metrics['trace.harness_s']:.4f} s + outside spans {metrics['trace.harness_s']:.6f} s",
    ]
    return metrics, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "kgpoint" / "__init__.py").is_file():
        print(f"error: no kgpoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kgpoint

    if Path(kgpoint.__file__).resolve().parent != SRC / "kgpoint":
        print(f"error: kgpoint imported from {kgpoint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_probe:
        try:
            make(args.seed, workdir, args.tiny)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    facts = machine_facts(args, load_at_start)
    setup = None if args.trace else measure_setup(args)
    ops = OpLog()
    try:
        workload = make(args.seed, workdir, args.tiny)
        workload.run_pass(ops)  # warm-up, checked but not timed
        if args.trace:
            metrics, lines = traced_run(workload, ops, args.seconds, kgpoint)
        else:
            metrics, lines = end_to_end(workload, ops, timed_passes(workload, ops, args.seconds), setup)
    finally:
        ops.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(ops.records), ops.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print(line)
    print(f"operations: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    for problem in ops.problems[:20]:
        print("FAILED " + problem)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"facts": facts, "result": result, "lines": lines}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
