"""Trajectory metrics, stationary-point oracles, and disagreement bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedDigraph
from .objectives import (
    ObjectiveSet,
    Quadratic,
    _FINITE_SQUARES,
    _U,
    _grouped,
    global_min,  # not called here; perfbench's tracer replaces analysis.global_min by name
)


@dataclass
class MetricSeries:
    """Time-indexed metric values; columns index nodes when 2-D."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.shape[0] != self.times.shape[0]:
            raise ValueError("values must align with times along the first axis")

    def max_across(self) -> "MetricSeries":
        """Per-sample maximum over columns."""
        if self.values.ndim == 1:
            return MetricSeries(self.times, self.values.copy())
        return MetricSeries(self.times, self.values.max(axis=1))

    @property
    def terminal(self):
        return self.values[-1]


def lyapunov_trace(trajectory, z_star) -> MetricSeries:
    """Per-node squared distances ``V_i(t) = |x_i(t) - z_star|^2``."""
    z = np.asarray(z_star, dtype=float)
    if z.shape != (trajectory.m,):
        raise ValueError(f"z_star must have shape ({trajectory.m},)")
    v = ((trajectory.states - z) ** 2).sum(axis=2)
    return MetricSeries(trajectory.times, v)


@dataclass
class DiniCheck:
    nonincreasing: bool
    first_violation_time: float | None
    worst_excess: float


def dini_nonincreasing(series: MetricSeries, slack) -> DiniCheck:
    """Check forward difference quotients stay below ``slack``.

    ``slack`` may be a scalar or a per-sample array (its last entry is
    unused); pass e.g. ``1e-6 * np.maximum(1.0, v)`` for a relative band.
    """
    v = series.values
    if v.ndim != 1:
        raise ValueError("dini_nonincreasing expects a scalar-valued series; "
                         "reduce with max_across() first")
    dt = np.diff(series.times)
    rate = np.diff(v) / dt
    s = np.asarray(slack, dtype=float)
    if s.ndim == 1:
        if s.shape[0] == v.shape[0]:
            s = s[:-1]
        elif s.shape[0] != rate.shape[0]:
            raise ValueError("slack array must align with the series")
    excess = rate - s
    worst = float(excess.max()) if excess.size else -np.inf
    bad = np.nonzero(excess > 0.0)[0]
    if bad.size:
        return DiniCheck(False, float(series.times[bad[0]]), worst)
    return DiniCheck(True, None, worst)


_DIAMETER_CHUNK = 1 << 20  # (n, n) float entries per chunk: 8 MB temporaries


def consensus_diameter(x) -> np.ndarray | float:
    """Largest pairwise distance between node states.

    Accepts one stacked state ``(n, m)`` or a batch ``(..., n, m)``.  Pairs
    are walked in tiles of at most ``_DIAMETER_CHUNK`` entries: whole samples
    while ``n * n`` fits, else square blocks of one sample, of which only the
    upper triangle is needed because ``|x_i - x_j|`` and ``|x_j - x_i|`` round
    alike.  Squared component differences are summed in component order and
    the root is taken of each sample's maximum, so the result is
    bit-identical to the maximum of the pairwise norms for ``m < 8``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError("need at least (n_nodes, m)")
    n, m = x.shape[-2:]
    flat = x.reshape(-1, n, m)
    sq_max = np.empty(flat.shape[0])
    tile = n if n * n <= _DIAMETER_CHUNK else max(1, math.isqrt(_DIAMETER_CHUNK))
    step = max(1, _DIAMETER_CHUNK // max(1, tile * tile))
    sq_buf, d_buf = np.empty((2, min(step, flat.shape[0]), tile, tile))
    for lo in range(0, flat.shape[0], step):
        c = flat[lo:lo + step]
        best = sq_max[lo:lo + step]
        best.fill(0.0)
        for r0 in range(0, n, tile):
            for c0 in range(r0, n, tile):
                a, b = c[:, r0:r0 + tile], c[:, c0:c0 + tile]
                view = (slice(c.shape[0]), slice(a.shape[1]), slice(b.shape[1]))
                sq, d = sq_buf[view], d_buf[view]
                sq.fill(0.0)
                for k in range(m):
                    np.subtract(a[:, :, None, k], b[:, None, :, k], out=d)
                    d *= d
                    sq += d
                np.maximum(best, sq.max(axis=(1, 2)), out=best)
    out = np.sqrt(sq_max).reshape(x.shape[:-2])
    return float(out) if out.ndim == 0 else out


def _diameter_screen(x, tol):
    """Per sample of ``x`` ``(T, n, m)``: is the consensus diameter certainly
    ``<= tol``, and is it certainly ``> tol``?

    With the computed mean ``xbar`` and ``D = max_i |x_i - xbar|``, the exact
    diameter lies in ``[D - |xbar - mean|, 2 D]``, and the exact mean is within
    ``sqrt(m) (n + 1) u |x|_max`` of ``xbar``.  Each computed norm is within
    ``eta = (m + 4) u`` of the exact one, plus ``2**-535`` where squares
    underflow, so ``consensus_diameter`` lies in ``[D (1 - 3 eta) - sqrt(m) (n +
    1) u |x|_max - err, 2 D (1 + 3 eta) + err]``.  The slack ``s`` is twice
    those terms, enough to also cover the roundings of ``2 D + s`` and ``D -
    s``.  A sample is certainly within ``tol`` only while ``2 D + s`` stays
    below ``2**500``, where the kernel's squares are finite.  NaN and
    infinite samples are neither.
    """
    n, m = x.shape[-2:]
    dev = np.linalg.norm(x - x.mean(axis=-2, keepdims=True), axis=-1).max(axis=-1)
    big = np.abs(x).max(axis=(-2, -1))
    s = 8 * (n + m + 4) * (_U * (dev + np.sqrt(m) * big) + 2.0 ** -535)
    return 2.0 * dev + s <= min(tol, _FINITE_SQUARES), dev - s > tol


def optimality_gap(trajectory, objectives: ObjectiveSet, f_star) -> MetricSeries:
    """Per-node gap ``F(x_i(t)) - f_star`` for the team objective F.

    Not clamped: honest values may dip a hair below zero only from floating
    error in ``f_star``.
    """
    gaps = objectives.team_value(trajectory.states) - float(f_star)
    return MetricSeries(trajectory.times, gaps)


def node_optimum_residuals(trajectory, objectives: ObjectiveSet) -> MetricSeries:
    """Per-node distance to the node's own argmin set, the sets stacked by kind."""
    x = trajectory.states
    out = np.empty(x.shape[:-1])
    for group, idx in _grouped(objectives.argmin_sets(), range(objectives.n_nodes)):
        # a group of every node holds them in node order: no gather
        out[..., idx] = group.distance(x if idx.size == out.shape[-1] else x.take(idx, axis=-2))
    return MetricSeries(trajectory.times, out)


def gradient_norm_series(trajectory, objectives: ObjectiveSet) -> MetricSeries:
    g = objectives.stacked_grad(trajectory.states)
    return MetricSeries(trajectory.times, np.linalg.norm(g, axis=2))


def detect_convergence(trajectory, objectives: ObjectiveSet, tol=1e-6, run_length=100):
    """Classify a run as ("converged", t) or ("horizon", tf).

    Converged means diameter and the largest per-node gradient norm stay
    below ``tol`` for ``run_length`` consecutive samples; the reported time
    is the start of the first such run.
    """
    x = trajectory.states
    gn = gradient_norm_series(trajectory, objectives).values.max(axis=1)
    # the all-pairs diameter only where the screen cannot decide
    near, far = _diameter_screen(x, tol)
    ok = (gn <= tol) & ~far
    check = ok & ~near
    ok[check] = consensus_diameter(x[check]) <= tol
    if ok.size >= run_length:
        window = np.convolve(ok.astype(int), np.ones(run_length, dtype=int), mode="valid")
        hits = np.nonzero(window == run_length)[0]
        if hits.size:
            return "converged", float(trajectory.times[hits[0]])
    return "horizon", float(trajectory.times[-1])


@dataclass
class StationaryPoint:
    """Solution of the penalized stationarity system at one gain."""

    states: np.ndarray        # (n_nodes, m)
    gain: float
    residual: float           # norm of K(L (x) I)x + stacked gradient
    mean_state: np.ndarray    # (m,)
    disagreement: float       # sqrt(sum_i |x_i - mean|^2)
    grad_norm: float          # norm of the stacked gradient at the solution


def stationary_oracle_unmet(objectives: ObjectiveSet, topology):
    """Say why :func:`stationary_quadratic` does not apply, or None if it does.

    The oracle needs a fixed topology with symmetric weights on a
    bidirectional arc set, and all-quadratic objectives.  The reason is a
    pair ``(part, need)``: the input at fault (``"topology"`` or
    ``"objectives"``) and what it would have to be.
    """
    if not isinstance(topology, WeightedDigraph):
        return "topology", "a fixed topology"
    if not topology.has_symmetric_weights():
        return "topology", "a bidirectional topology with symmetric weights"
    if not all(isinstance(c, Quadratic) for c in objectives.components):
        return "objectives", "all-quadratic objectives"
    return None


def stationary_quadratic(objectives: ObjectiveSet, graph: WeightedDigraph,
                         gain) -> StationaryPoint:
    """Solve ``(K (L kron I_m) + blockdiag(Q_i)) x = blockdiag(Q_i) c``.

    Valid where :func:`stationary_oracle_unmet` finds nothing missing; the
    solutions are exactly the stationary states of the gain-weighted
    penalized objective.  ``gain`` may be zero (decoupled minimizers) as long
    as the system stays nonsingular; a singular system raises
    ``numpy.linalg.LinAlgError``.
    """
    unmet = stationary_oracle_unmet(objectives, graph)
    if unmet is not None:
        raise ValueError(f"stationary oracle requires {unmet[1]}")
    comps = objectives.components
    if graph.n_nodes != objectives.n_nodes:
        raise ValueError("graph and objectives disagree on the node count")
    gain = float(gain)
    if gain < 0.0:
        raise ValueError("gain must be nonnegative")

    n, m = objectives.n_nodes, objectives.m
    lap = graph.laplacian()
    big_l = np.kron(lap, np.eye(m))
    blocks = np.zeros((n * m, n * m))
    rhs = np.zeros(n * m)
    for i, c in enumerate(comps):
        blocks[i * m:(i + 1) * m, i * m:(i + 1) * m] = c.matrix
        rhs[i * m:(i + 1) * m] = c.matrix @ c.center
    system = gain * big_l + blocks

    try:
        flat = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        rank = np.linalg.matrix_rank(system)
        raise np.linalg.LinAlgError(
            f"stationary system is singular (rank {rank} of {n * m}); "
            "no isolated stationary point"
        ) from None

    x = flat.reshape(n, m)
    grads = objectives.stacked_grad(x)
    residual = float(np.linalg.norm(gain * (big_l @ flat) + grads.reshape(-1)))
    mean = x.mean(axis=0)
    disagreement = float(np.sqrt(((x - mean) ** 2).sum()))
    return StationaryPoint(x, gain, residual, mean, disagreement,
                           float(np.linalg.norm(grads)))


@dataclass
class BoundCheck:
    holds: bool
    margin: float   # bound - disagreement; may sit at zero up to float error
    bound: float


def check_disagreement_bound(point: StationaryPoint, grad_sup, lam2,
                             slack=1e-12) -> BoundCheck:
    """Verify ``disagreement <= grad_sup / (gain * lambda2)`` up to slack.

    ``grad_sup`` should dominate the stacked gradient norm over the
    stationary points of interest, e.g. the max of ``grad_norm`` over a gain
    grid.
    """
    if point.gain <= 0.0:
        raise ValueError("the bound needs a positive gain")
    lam2 = float(lam2)
    if lam2 <= 0.0:
        raise ValueError("lambda2 must be positive")
    bound = float(grad_sup) / (point.gain * lam2)
    margin = bound - point.disagreement
    return BoundCheck(point.disagreement <= bound + slack, margin, bound)


def sphere_intersection(centers, sq_dists, consistency_tol=1e-9) -> np.ndarray:
    """Recover the unique point at given squared distances from m+1 centers.

    Subtracting the first sphere equation from the rest leaves the linear
    system ``<y, z_j - z_1> = (d_1 - d_j + |z_j|^2 - |z_1|^2) / 2``; the
    centers must be affinely independent (difference rank m).  The candidate
    is then checked against the first sphere to ``consistency_tol``.
    """
    z = np.asarray(centers, dtype=float)
    d = np.asarray(sq_dists, dtype=float)
    if z.ndim != 2:
        raise ValueError("centers must be shaped (m + 1, m)")
    k, m = z.shape
    if k != m + 1:
        raise ValueError(f"need exactly {m + 1} centers in dimension {m}, got {k}")
    if d.shape != (k,) or np.any(d < 0.0):
        raise ValueError("sq_dists must be nonnegative, one per center")

    a = z[1:] - z[0]
    rank = np.linalg.matrix_rank(a)
    if rank < m:
        raise ValueError(
            f"centers are affinely dependent (difference rank {rank} < {m})"
        )
    rhs = 0.5 * (d[0] - d[1:] + (z[1:] ** 2).sum(axis=1) - (z[0] ** 2).sum())
    y = np.linalg.solve(a, rhs)
    defect = abs(float(((y - z[0]) ** 2).sum()) - float(d[0]))
    if defect > consistency_tol:
        raise ValueError(
            f"no point matches the given squared distances (defect {defect:.3e})"
        )
    return y
