"""Measure one workload: set-up, warm-up, timed passes and the traced run.

A pass runs every operation of the workload once, in order.  Only the
operation calls are timed; output checks run between them, untimed.  The
run keeps starting passes until ``seconds`` have elapsed, and always runs at
least one.

A shared host's speed drifts while the benchmark runs: on a 2-vCPU x86-64
VM, pure-Python loops and memory-bound numpy products slowed down together
by up to 40%, in spells of seconds to minutes.  Repetition inside one run cannot average
that out, so every end-to-end time is scaled by a calibration kernel timed
just before and just after it: ``scaled = wall / speed factor``.  The
kernel uses numpy only, so no change to consensusflow can move it.  Raw wall
times are printed beside the scaled ones.  Per-layer times are raw.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from consensusflow import dynamics
from consensusflow.graphs import WeightedDigraph
from spans import Tracer
from workloads import WORKLOADS, ball_objectives

SETUP_REPS = 5
# Nominal times of the calibration kernel's three parts; scaled times read as
# seconds on a host that runs them this fast.
CAL_REF_S = (0.0028, 0.0034, 0.0059)
# Run in a fresh interpreter: seconds to import consensusflow (and numpy).
IMPORT_PROBE = ("import time; start = time.perf_counter(); import sys; "
                "sys.path.insert(0, 'src'); import consensusflow; "
                "print(time.perf_counter() - start)")
# ROADMAP "State" figures, printed beside the measured ones.
ROADMAP_STATE = {
    "rhs_us.5-ring-with-chords": 19.0,
    "rhs_us.200-cycle": 55.0,
    "rhs_us.200-complete": 7300.0,
    "verify-exact:balls_s": 1.03,
}


class Record:
    """Attempted and failed operations, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, op_id, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op_id}: {p}" for p in problems]


class Calibration:
    """Times a fixed numpy-only kernel to scale wall times by host speed.

    The kernel has three parts, one for each kind of work the workloads do:
    interpreter overhead, small-array numpy dispatch (as in an RK4 step) and
    a memory-bound product.  The host's speed factor is the geometric mean of
    each part's time over its nominal time in ``CAL_REF_S``.
    """

    def __init__(self):
        self._big = np.random.default_rng(0).random((256, 4096))   # 8 MB
        self._vec = np.ones((4096, 2))
        self._small = np.ones((5, 2))
        self._index = np.array([0, 1, 2, 3, 4, 0, 1])
        self.factors = []

    def _parts(self):
        times = []
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        x = self._small
        for _ in range(600):
            x = x * 0.5 + 1.0
            _ = x[self._index]
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(4):
            self._big @ self._vec
        times.append(time.perf_counter() - start)
        return times

    @contextlib.contextmanager
    def timing(self):
        """Yield a dict that receives ``wall`` and ``scaled`` seconds."""
        out = {}
        before = self._parts()
        start = time.perf_counter()
        try:
            yield out
        finally:
            out["wall"] = time.perf_counter() - start
            after = self._parts()
            factor = math.exp(statistics.fmean(
                math.log((b + a) / (2.0 * ref)) for b, a, ref in zip(before, after, CAL_REF_S)))
            self.factors.append(factor)
            out["scaled"] = out["wall"] / factor


def run_pass(workload, group, record, cal, refs, tracer=None, samples=None):
    """Run every operation once; return its summed (scaled, wall) seconds."""
    scaled = wall = 0.0
    for op in workload.ops():
        op_id = f"{group}/{op.name}"
        recording = tracer.recording(op_id) if tracer else contextlib.nullcontext()
        result, problems = None, []
        with cal.timing() as t:
            try:
                with recording:
                    result = op.call()
            except Exception as err:  # an operation that raises is a failed operation
                problems.append(f"raised {type(err).__name__}: {err}")
        scaled += t["scaled"]
        wall += t["wall"]
        if group == "warmup":
            refs.update(tracer.written_states(op_id))
        if not problems:
            try:
                problems = op.check(result, refs)
            except Exception:  # a check that cannot run counts against the operation
                problems = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
        record.add(op_id, problems)
        if samples is not None:
            samples.setdefault(op.name, []).append((t["scaled"], t["wall"]))
    return scaled, wall


def timed_passes(workload, seconds, record, cal, refs):
    """Passes until ``seconds`` have elapsed: ([(scaled, wall)], op samples)."""
    passes, samples = [], {}
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, f"pass.{len(passes)}", record, cal, refs,
                               samples=samples))
    return passes, samples


def per_call_us(fn, *args, block_s=0.02, blocks=7):
    """Median microseconds per call over blocks of at least ``block_s``."""
    fn(*args)
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - start >= block_s:
            break
        n *= 2
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def grid_graph(n, kind):
    if kind == "cycle":
        return WeightedDigraph.directed_cycle(n)
    if kind == "complete":
        return WeightedDigraph.complete(n)
    # bidirectional ring plus one chord per node: E = 3N
    arcs = [(k, (k + 1) % n) for k in range(n)] + [((k + 1) % n, k) for k in range(n)]
    arcs += [(k, (k + n // 2) % n) for k in range(n)]
    return WeightedDigraph.from_arcs(n, arcs)


def grid_objectives(n):
    centers = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    return ball_objectives(centers, slack=0.5)


def grid_state(n):
    return np.random.default_rng(n + 1).uniform(-5.0, 5.0, (n, 2))


def microbenchmarks():
    """Coupling and gradient grid, plus one RHS on the ROADMAP's cells."""
    out, rhs = {}, {}
    for n in layers.GRID_NODES:
        out[f"objectives.grad_us.{n}"] = per_call_us(grid_objectives(n).stacked_grad, grid_state(n))
    for n, kind in layers.grid_cells():
        x, graph = grid_state(n), grid_graph(n, kind)
        out[f"dynamics.coupling_us.{n}-{kind}"] = per_call_us(dynamics.neighbor_info, graph, x)
        key = f"rhs_us.{n}-{kind}"
        if key in ROADMAP_STATE:
            scenario = dynamics.Scenario(grid_objectives(n), graph, x, tf=1.0)
            rhs[key] = per_call_us(dynamics.rhs, scenario, 0.0, x)
    return out, rhs


def host_info():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def integration_inputs(tracer, ops):
    """N, E, T and m of every integration of each operation in the warm-up."""
    return {name: [{k: s.attrs[k] for k in ("N", "E", "T", "m", "steps")}
                   for s in tracer.op_spans(f"warmup/{name}", "dynamics.integrate")]
            for name in ops}


def import_seconds(root, cal):
    """Median over ``SETUP_REPS`` fresh interpreters of the import time."""
    with cal.timing() as t:
        times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                                      check=True, capture_output=True, text=True).stdout)
                 for _ in range(SETUP_REPS)]
    return statistics.median(times) * t["scaled"] / t["wall"]


def measure(name, seed, seconds, trace, tiny, root, workdir):
    """Run one workload and return a result dict (see ``run.py``)."""
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        return _measure(WORKLOADS[name](seed, tiny, Path(tmp)), seed, seconds,
                        trace, root)


def _median(pairs, k):
    return statistics.median(p[k] for p in pairs)


def _measure(workload, seed, seconds, trace, root):
    cal, tracer = Calibration(), Tracer()
    setups = []
    for rep in range(SETUP_REPS):
        recording = tracer.recording(f"setup.{rep}/setup") if trace else contextlib.nullcontext()
        with cal.timing() as t, recording:
            workload.setup()
        setups.append(t["scaled"])
    workload.prepare_checks()

    record, refs = Record(), {}
    run_pass(workload, "warmup", record, cal, refs, tracer)
    ops = [op.name for op in workload.ops()]
    node_steps = sum(tracer.node_steps(f"warmup/{op}") for op in ops)

    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_info(), "inputs": workload.inputs(),
        "integrations": integration_inputs(tracer, ops),
        "node_steps_per_pass": node_steps,
    }
    if not trace:
        passes, samples = timed_passes(workload, seconds, record, cal, refs)
        all_ops = [p for ps in samples.values() for p in ps]
        run_s = _median(passes, 0)
        result["metrics"] = {
            "setup_s": (import_seconds(root, cal) + statistics.median(setups), "s", len(setups)),
            "run_s": (run_s, "s", len(passes)),
            "op_p50_s": (_median(all_ops, 0), "s", len(all_ops)),
            "node_steps_per_s": (node_steps / run_s, "1/s", len(passes)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        result["tail"] = tail_percentile([p[0] for p in all_ops])
        result["passes"] = passes
        result["ops"] = {k: (_median(v, 0), _median(v, 1), len(v)) for k, v in samples.items()}
    else:
        # alternate, so that drift in host speed falls on both kinds alike
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(workload, f"untraced.{len(untraced)}", record, cal, refs))
            traced.append(run_pass(workload, f"pass.{len(traced)}", record, cal, refs, tracer))
        result["metrics"] = layer_metrics(workload, tracer)
        result["metrics"]["trace.overhead_s"] = (
            _median(traced, 0) - _median(untraced, 0), "s", len(traced))
        grid, rhs = microbenchmarks()
        for key, value in grid.items():
            result["metrics"][key] = (value, "us", 7)
        result["rhs_us"] = rhs
    result["speed_factor"] = (statistics.median(cal.factors), len(cal.factors))
    result["attempted"], result["failed"] = record.attempted, record.failed
    result["problems"] = record.problems
    result["hashes"] = workload.hashes.lines()
    return result


def layer_metrics(workload, tracer):
    """Per-layer metrics: one set-up plus one pass, each the median over reps."""
    setups, passes = tracer.groups("setup."), tracer.groups("pass.")
    out = {}
    for metric, unit, _, how, _ in layers.LAYER_METRICS:
        if how[0] != "derived":
            value = tracer.layer_value(how, setups) + tracer.layer_value(how, passes)
            out[metric] = (value, unit, len(passes))
    x = np.random.default_rng(0).uniform(-5.0, 5.0, (workload.graph.n_nodes, workload.objectives.m))
    grad_us = per_call_us(workload.objectives.stacked_grad, x)
    coupling_us = per_call_us(dynamics.neighbor_info, workload.graph, x)
    integrate_s, steps = out["dynamics.integrate_s"][0], out["dynamics.steps"][0]
    out["graphs.agg_bytes"] = (sum(g.aggregation_matrix().nbytes for g in workload.graphs), "B", 1)
    out["objectives.grad_us"] = (grad_us, "us", 7)
    out["dynamics.coupling_us"] = (coupling_us, "us", 7)
    out["dynamics.step_overhead_us"] = (
        integrate_s / steps * 1e6 - 4.0 * (coupling_us + grad_us), "us", len(passes))
    return out


def tail_percentile(samples):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    ordered = sorted(samples)
    for q in (99, 90):
        k = int(len(ordered) * q / 100)
        if len(ordered) - k - 1 >= 10:
            return q, ordered[k], len(ordered)
    return None

