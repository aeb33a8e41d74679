"""Recording wrappers for the traced run.

:class:`Tracer` replaces, inside the benchmark's own process, the module and
class attributes through which consensusflow's layers call each other with
wrappers that record one span per call: name, start, end, parent span and
the operation it belongs to.  Spans stay in memory until the run ends.
``ObjectiveSet.stacked_grad`` runs once per right-hand-side evaluation, so it
is kept as a call count plus accumulated time instead of as spans.  The
coupling product inside the integrator's field cannot be wrapped from
outside; the runner measures it with a microbenchmark of ``neighbor_info``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from dataclasses import dataclass, field

from consensusflow import analysis, cli, dynamics, graphs, harness, objectives


def _arc_count(topology):
    """Arc count of a fixed graph, or one count per interval of a schedule."""
    if isinstance(topology, graphs.WeightedDigraph):
        return len(topology.arcs)
    return [len(item[1]["arcs"]) for item in topology.describe()["intervals"]]


def _integrate_attrs(args, kwargs, traj):
    scenario = args[0] if args else kwargs["scenario"]
    return {"steps": traj.stats["steps"], "rhs_evals": traj.stats["rhs_evaluations"],
            "segments": traj.stats["segments"], "N": traj.n_nodes, "m": traj.m,
            "T": int(traj.times.shape[0]), "E": _arc_count(scenario.topology)}


def _write_trace_attrs(args, kwargs, paths):
    path = args[0] if args else kwargs["path"]
    traj = args[1] if len(args) > 1 else kwargs["trajectory"]
    return {"path": str(path), "rows": int(traj.times.shape[0]) * traj.n_nodes,
            "bytes": sum(os.path.getsize(p) for p in paths), "states": traj.states}


# (owners, attribute, span name, function computing span values from
# (args, kwargs, result) after the span has ended)
SPANNED = [
    ((graphs.WeightedDigraph, graphs.SwitchingSignal), "__init__", "graphs.build", None),
    ((graphs.WeightedDigraph,), "is_strongly_connected", "graphs.connectivity", None),
    ((graphs.WeightedDigraph,), "lambda2", "graphs.connectivity", None),
    ((graphs.SwitchingSignal,), "check_ujsc", "graphs.connectivity", None),
    ((harness, objectives), "intersection_nonempty", "objectives.intersection", None),
    ((harness, analysis), "global_min", "objectives.global_min", None),
    ((dynamics, harness, cli), "integrate", "dynamics.integrate", _integrate_attrs),
    ((harness,), "optimality_gap", "analysis.optimality_gap", None),
    ((harness,), "node_optimum_residuals", "analysis.residuals", None),
    ((harness,), "lyapunov_trace", "analysis.lyapunov", None),
    ((harness,), "detect_convergence", "analysis.convergence", None),
    ((harness, analysis), "stationary_quadratic", "analysis.stationary", None),
    ((harness, cli), "load_config", "harness.parse", None),
    ((harness, cli), "write_trace", "harness.write_trace", _write_trace_attrs),
    ((harness,), "read_trace", "harness.read_trace", None),
    ((harness, cli), "run", "harness.suite", None),
    ((harness, cli), "sweep_k", "harness.suite", None),
    ((cli,), "main", "cli.main", None),
]
COUNTED = [((objectives.ObjectiveSet,), "stacked_grad", "objectives.grad")]


@dataclass
class Span:
    name: str
    op: str          # "<group>/<operation>", e.g. "pass.3/verify-exact:balls"
    parent: int      # index into Tracer.spans, -1 at the top
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def group(self) -> str:
        return self.op.split("/", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[tuple[str, str], list] = {}   # (group, name) -> [calls, seconds]
        self._op = ""
        self._open: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def recording(self, op):
        """Install the wrappers for the duration of one operation."""
        self._op = op
        for owners, attr, name, after in SPANNED:
            for owner in owners:
                self._patch(owner, attr, self._spanned(name, vars(owner)[attr], after))
        for owners, attr, name in COUNTED:
            for owner in owners:
                self._patch(owner, attr, self._counted(name, vars(owner)[attr]))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._open.clear()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._op, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                span.attrs = after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        rec = self.hot.setdefault((self._op.split("/", 1)[0], name), [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[0] += 1
                rec[1] += time.perf_counter() - start
        return wrapper

    # -- queries -----------------------------------------------------------

    def op_spans(self, op, name):
        return [s for s in self.spans if s.op == op and s.name == name]

    def written_states(self, op):
        """``{trace path: states}`` of every trajectory the operation wrote."""
        return {s.attrs["path"]: s.attrs["states"]
                for s in self.op_spans(op, "harness.write_trace")}

    def node_steps(self, op):
        """Sum over the operation's integrations of RK4 steps times N."""
        return sum(s.attrs["steps"] * s.attrs["N"]
                   for s in self.op_spans(op, "dynamics.integrate"))

    def groups(self, prefix):
        return sorted({s.group for s in self.spans if s.group.startswith(prefix)}
                      | {g for g, _ in self.hot if g.startswith(prefix)})

    def group_value(self, group, how):
        """Value of one ``layers.LAYER_METRICS`` row over one span group."""
        kind = how[0]
        if kind in ("hot_calls", "hot_s"):
            calls, seconds = self.hot.get((group, how[1]), (0, 0.0))
            return calls if kind == "hot_calls" else seconds
        idx = [i for i, s in enumerate(self.spans) if s.group == group and s.name == how[1]]
        if kind == "calls":
            return len(idx)
        if kind == "attr":
            return sum(self.spans[i].attrs[how[2]] for i in idx)
        if kind == "time":
            return sum(self.spans[i].seconds for i in idx if not self._inside(i, how[1]))
        if kind == "self":
            covered = {}
            for s in self.spans:
                if s.parent >= 0:
                    covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
            return sum(self.spans[i].seconds - covered.get(i, 0.0) for i in idx)
        raise ValueError(f"unknown metric kind {kind!r}")

    def _inside(self, i, name):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def layer_value(self, how, groups):
        """Median of a metric over the given groups (0 when there are none)."""
        values = [self.group_value(g, how) for g in groups]
        return statistics.median(values) if values else 0
