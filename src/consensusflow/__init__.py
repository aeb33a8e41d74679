"""Continuous-time distributed consensus-optimization flows.

Nodes of a directed, possibly time-varying graph each hold a private convex
objective and follow the velocity rule ``gain * n_i - grad f_i``, where
``n_i`` aggregates weighted neighbor disagreement.  The package simulates
these flows with a deterministic fixed-step integrator and verifies the
resulting agreement/optimality claims against closed-form oracles.
"""

from .analysis import (
    BoundCheck,
    DiniCheck,
    MetricSeries,
    StationaryPoint,
    check_disagreement_bound,
    consensus_diameter,
    detect_convergence,
    dini_nonincreasing,
    gradient_norm_series,
    lyapunov_trace,
    node_optimum_residuals,
    optimality_gap,
    sphere_intersection,
    stationary_quadratic,
)
from .dynamics import (
    DivergenceError,
    ExponentialDecayDisturbance,
    Scenario,
    Trajectory,
    integrate,
    integrate_batch,
    neighbor_info,
    rhs,
)
from .graphs import SwitchingSignal, WeightedDigraph
from .harness import (
    DEFAULT_TOLERANCES,
    SUITES,
    ClaimResult,
    ConfigError,
    RunReport,
    ScenarioConfig,
    load_config,
    read_trace,
    run,
    sweep_k,
    write_trace,
)
from .objectives import (
    Ball,
    Box,
    ConvexComponent,
    ConvexSet,
    GlobalMinimum,
    IntersectionResult,
    ObjectiveSet,
    Point,
    Quadratic,
    SquaredDistance,
    Sum,
    UnsupportedRepresentationError,
    global_min,
    interior_simplex,
    intersection_nonempty,
)

__version__ = "0.1.0"

__all__ = [
    "Ball", "BoundCheck", "Box", "ClaimResult",
    "ConfigError", "ConvexComponent", "ConvexSet",
    "DEFAULT_TOLERANCES", "DiniCheck",
    "DivergenceError", "ExponentialDecayDisturbance", "GlobalMinimum",
    "IntersectionResult", "MetricSeries", "ObjectiveSet", "Point",
    "Quadratic", "RunReport", "Scenario", "ScenarioConfig", "SquaredDistance",
    "StationaryPoint", "Sum", "SwitchingSignal", "Trajectory",
    "UnsupportedRepresentationError", "WeightedDigraph",
    "check_disagreement_bound", "consensus_diameter", "detect_convergence",
    "dini_nonincreasing", "global_min",
    "gradient_norm_series", "integrate", "integrate_batch", "interior_simplex",
    "intersection_nonempty", "load_config", "lyapunov_trace", "neighbor_info",
    "node_optimum_residuals", "optimality_gap", "read_trace", "rhs", "run",
    "sphere_intersection", "stationary_quadratic", "sweep_k", "write_trace",
    "SUITES",
]
