"""Per-layer metrics of the traced run.

Each row names a metric, its unit, which direction is better, how the traced
run obtains it, and the end-to-end metric and workload it should move.  The
``how`` column is read by :meth:`spans.Tracer.group_value`:

- ``("time", span)``: seconds inside spans of that name, nested calls of the
  same name counted once;
- ``("calls", span)``: number of such spans;
- ``("attr", span, key)``: sum of a value recorded on each such span;
- ``("self", span)``: seconds inside such spans not covered by their child
  spans;
- ``("hot_calls", name)`` / ``("hot_s", name)``: call count and accumulated
  seconds of a call made once per right-hand-side evaluation;
- ``("derived",)``: computed by the runner (microbenchmarks, sizes, the
  difference between traced and untraced runs).
"""

LAYER_METRICS = [
    ("graphs.build_s", "s", "lower", ("time", "graphs.build"),
     "setup_s on large-graph"),
    ("graphs.agg_bytes", "B", "lower", ("derived",),
     "peak_rss_mb on large-graph"),
    ("graphs.connectivity_s", "s", "lower", ("time", "graphs.connectivity"),
     "op_p50_s on paper-configs"),
    ("objectives.grad_us", "us", "lower", ("derived",),
     "node_steps_per_s on seed-ensemble"),
    ("objectives.grad_calls", "count", "lower", ("hot_calls", "objectives.grad"),
     "node_steps_per_s on seed-ensemble"),
    ("objectives.grad_s", "s", "lower", ("hot_s", "objectives.grad"),
     "node_steps_per_s on seed-ensemble"),
    ("objectives.intersection_s", "s", "lower", ("time", "objectives.intersection"),
     "run_s on large-graph"),
    ("objectives.intersection_calls", "count", "lower",
     ("calls", "objectives.intersection"), "run_s on large-graph"),
    ("objectives.global_min_s", "s", "lower", ("time", "objectives.global_min"),
     "run_s on large-graph"),
    ("dynamics.integrate_s", "s", "lower", ("time", "dynamics.integrate"),
     "node_steps_per_s on every workload"),
    ("dynamics.integrate_calls", "count", "lower", ("calls", "dynamics.integrate"),
     "run_s on seed-ensemble"),
    ("dynamics.steps", "count", "lower", ("attr", "dynamics.integrate", "steps"),
     "run_s on every workload"),
    ("dynamics.rhs_evals", "count", "lower",
     ("attr", "dynamics.integrate", "rhs_evals"), "run_s on every workload"),
    ("dynamics.segments", "count", "lower",
     ("attr", "dynamics.integrate", "segments"), "op_p50_s on paper-configs"),
    ("dynamics.coupling_us", "us", "lower", ("derived",),
     "node_steps_per_s on large-graph"),
    ("dynamics.step_overhead_us", "us", "lower", ("derived",),
     "node_steps_per_s on seed-ensemble and paper-configs"),
    ("analysis.optimality_gap_s", "s", "lower", ("time", "analysis.optimality_gap"),
     "run_s on large-graph"),
    ("analysis.residuals_s", "s", "lower", ("time", "analysis.residuals"),
     "run_s on large-graph"),
    ("analysis.lyapunov_s", "s", "lower", ("time", "analysis.lyapunov"),
     "run_s on large-graph"),
    ("analysis.convergence_s", "s", "lower", ("time", "analysis.convergence"),
     "peak_rss_mb and run_s on large-graph"),
    ("analysis.stationary_s", "s", "lower", ("time", "analysis.stationary"),
     "op_p50_s on paper-configs, run_s on seed-ensemble"),
    ("analysis.stationary_calls", "count", "lower", ("calls", "analysis.stationary"),
     "op_p50_s on paper-configs, run_s on seed-ensemble"),
    ("harness.parse_s", "s", "lower", ("time", "harness.parse"),
     "setup_s on every workload"),
    ("harness.write_trace_s", "s", "lower", ("time", "harness.write_trace"),
     "op_p50_s on paper-configs, run_s on large-graph"),
    ("harness.trace_rows", "count", "lower", ("attr", "harness.write_trace", "rows"),
     "op_p50_s on paper-configs, run_s on large-graph"),
    ("harness.trace_bytes", "B", "lower", ("attr", "harness.write_trace", "bytes"),
     "op_p50_s on paper-configs, run_s on large-graph"),
    ("harness.read_trace_s", "s", "lower", ("time", "harness.read_trace"),
     "run_s on large-graph"),
    ("harness.suite_self_s", "s", "lower", ("self", "harness.suite"),
     "op_p50_s on paper-configs"),
    ("cli.main_self_s", "s", "lower", ("self", "cli.main"),
     "op_p50_s on paper-configs"),
    ("trace.overhead_s", "s", "lower", ("derived",),
     "none: traced run_s minus untraced run_s"),
]

# Microbenchmark grid.
GRID_NODES = (5, 50, 200, 1000)
GRID_GRAPHS = ("cycle", "ring-with-chords", "complete")
COMPLETE_MAX_NODES = 200
KNOWN_LIMIT = ("complete(1000) is not measured: its dense N x E aggregation matrix "
               "would need 1000 * 999000 * 8 bytes = 8 GB")


def grid_cells():
    """``(n, graph)`` pairs of the coupling microbenchmark grid."""
    return [(n, g) for n in GRID_NODES for g in GRID_GRAPHS
            if g != "complete" or n <= COMPLETE_MAX_NODES]


def grid_metrics():
    """Rows for the grid metrics, in the same layout as ``LAYER_METRICS``."""
    rows = [(f"dynamics.coupling_us.{n}-{g}", "us", "lower", ("derived",),
             "node_steps_per_s on large-graph") for n, g in grid_cells()]
    # stacked_grad depends on the state shape only, not on the graph
    rows += [(f"objectives.grad_us.{n}", "us", "lower", ("derived",),
              "node_steps_per_s on seed-ensemble") for n in GRID_NODES]
    return rows


def all_metrics():
    return LAYER_METRICS + grid_metrics()
