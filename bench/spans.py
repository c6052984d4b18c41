"""Span recorder for the traced benchmark run.

Every public function of the package (the names in each module's
``__all__``, plus ``cli.main``) is replaced by a wrapper that records one
span per call: name, start, end, parent span and operation id.  The wrapper
is bound under every name that refers to the function in any ``kgpoint``
module, so calls between modules (``cli`` calling its own ``evolve``,
``simulator`` calling its own ``force``) are recorded too.  Private helpers
such as ``simulator._acceleration`` are not wrapped; their cost lands in the
self time of the public function that calls them.

Spans stay in memory, packed as doubles (a traced run keeps about a million),
until ``write_csv``.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# The package modules are the layers; their order fixes the report order.
LAYERS = ("cli", "config", "model", "solitary", "simulator", "spectral", "counterexamples", "io")
OBSERVERS = ("simulator.hamiltonian", "simulator.charge", "simulator.local_seminorm", "simulator.energy_norm")
IO_WRITERS = ("io.fmt", "io.write_csv", "io.write_json", "io.series_to_csv", "io.state_to_csv", "io.spectrum_to_csv")
IO_READERS = ("io.read_trace_csv", "io.read_state_csv")
COLUMNS = ("index", "parent", "op", "name", "start", "end", "raised")


class Tracer:
    """In-memory span store.  ``op_id`` is set by the caller before each operation."""

    def __init__(self):
        self.data = array("d")  # one row of COLUMNS per span, in the order spans end
        self.names: list[str] = []
        self.count = 0
        self.stack: list[int] = []
        self.op_id = 0
        self.paused = False
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            index = tracer.count
            tracer.count += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            raised = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.data.extend((index, parent, tracer.op_id, name_id, start, end, raised))
            if count is not None:
                count(tracer.counts, args, kwargs)
            return result

        return traced

    def table(self) -> np.ndarray:
        """Spans as an (n, 7) array of COLUMNS, row i holding span i."""
        rows = np.frombuffer(self.data, dtype=float).reshape(-1, len(COLUMNS))
        return rows[np.argsort(rows[:, 0])]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for index, parent, op, name, start, end, raised in self.table().tolist():
                fh.write(f"{index:.0f},{parent:.0f},{op:.0f},{self.names[int(name)]},{start!r},{end!r},{raised:.0f}\n")


def _arg(fn, name):
    """Reader for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index(name)

    def read(args, kwargs):
        return args[pos] if pos < len(args) else kwargs[name]

    return read


def _count_evolve(evolve):
    grid_of, t_of, dt_of = _arg(evolve, "grid"), _arg(evolve, "T"), _arg(evolve, "dt")

    def count(counts, args, kwargs):
        T = t_of(args, kwargs)
        steps = int(round(T / dt_of(args, kwargs))) if T > 0 else 0
        counts["simulator.evolve.steps"] += steps
        counts["simulator.evolve.node_steps"] += steps * grid_of(args, kwargs).count

    return count


def _count_bytes(fn, key):
    path_of = _arg(fn, "path")

    def count(counts, args, kwargs):
        counts[key] += os.path.getsize(path_of(args, kwargs))

    return count


def install(tracer: Tracer, package) -> int:
    """Rebind every public function of ``package`` to a traced wrapper; returns how many."""
    prefix = package.__name__ + "."
    modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__[len(prefix):]
        names = list(getattr(mod, "__all__", ()))
        if layer == "cli":
            names.append("main")
        for attr in names:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            count = None
            if name == "simulator.evolve":
                count = _count_evolve(fn)
            elif name in ("io.write_csv", "io.write_json"):
                count = _count_bytes(fn, "io.write.bytes")
            elif name in IO_READERS:
                count = _count_bytes(fn, "io.read.bytes")
            wrappers[fn] = tracer.wrap(name, fn, count)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    return len(wrappers)


def layer_metrics(tracer: Tracer, passes: int, scale) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, each divided by ``passes``.

    Span times are multiplied by ``scale[op]``, the time scale of the
    operation they belong to.  Self time of a layer is the summed self time
    of its spans.  Observer metrics cover the observer calls made by
    ``evolve``; ``observe_us`` is their inclusive time (with the potentials
    they evaluate) per sample and ``step_us`` is the inclusive ``evolve``
    time outside observers per step.
    """
    rows = tracer.table()
    n_spans, n_names = len(rows), len(tracer.names)
    parent = rows[:, 1].astype(int)
    name = rows[:, 3].astype(int)
    duration = (rows[:, 5] - rows[:, 4]) * np.asarray(scale)[rows[:, 2].astype(int)]
    nested = parent >= 0
    own = duration - np.bincount(parent[nested], weights=duration[nested], minlength=n_spans)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def per_name(weights=None):
        totals = np.bincount(name, weights=weights, minlength=n_names)
        return {n: float(totals[i]) for n, i in ids.items()}

    calls, self_s, raised = per_name(), per_name(own), per_name(rows[:, 6])
    in_evolve = nested & (name[np.maximum(parent, 0)] == ids["simulator.evolve"])
    observing = in_evolve & np.isin(name, [ids[n] for n in OBSERVERS])
    samples = int(np.sum(in_evolve & (name == ids["simulator.hamiltonian"])))
    observe_incl = float(np.sum(duration[observing]))
    evolve_s = float(np.sum(duration[name == ids["simulator.evolve"]]))
    counts = tracer.counts
    steps = counts["simulator.evolve.steps"]
    solves = calls["solitary.solve_profile"]
    n = float(passes)
    layer_self = defaultdict(float)
    for key, value in self_s.items():
        layer_self[key.split(".", 1)[0]] += value
    out = {f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS}
    out.update({
        "simulator.evolve.steps": steps / n,
        "simulator.evolve.node_steps": counts["simulator.evolve.node_steps"] / n,
        "simulator.evolve.self_s": self_s["simulator.evolve"] / n,
        "simulator.step_us": 1e6 * (evolve_s - observe_incl) / steps if steps else 0.0,
        "simulator.observe.samples": samples / n,
        "simulator.observe.self_s": float(np.sum(own[observing])) / n,
        "simulator.observe_us": 1e6 * observe_incl / samples if samples else 0.0,
        "simulator.local_seminorm.calls": calls["simulator.local_seminorm"] / n,
        "simulator.metric_dist.self_s": self_s["simulator.metric_dist"] / n,
        "simulator.dist_to_manifold.self_s": self_s["simulator.dist_to_manifold"] / n,
        "solitary.solve_profile.calls": solves / n,
        "solitary.solve_profile.self_s": self_s["solitary.solve_profile"] / n,
        "solitary.solve_profile.failed": raised["solitary.solve_profile"] / n,
        "solitary.solve_profile.success_ratio": (solves - raised["solitary.solve_profile"]) / solves if solves else 0.0,
        "solitary.profile_eval.self_s": self_s["solitary.profile_eval"] / n,
        "io.write.bytes": counts["io.write.bytes"] / n,
        "io.write.self_s": sum(self_s[k] for k in IO_WRITERS) / n,
        "io.read.bytes": counts["io.read.bytes"] / n,
        "io.read.self_s": sum(self_s[k] for k in IO_READERS) / n,
        "spectral.time_spectrum.calls": calls["spectral.time_spectrum"] / n,
        "spectral.time_spectrum.self_s": self_s["spectral.time_spectrum"] / n,
        "model.calls": sum(v for k, v in calls.items() if k.startswith("model.")) / n,
        "config.parse_config_s": self_s["config.parse_config"] / n,
        "trace.spans": n_spans / n,
    })
    return out
