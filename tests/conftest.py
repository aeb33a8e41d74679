"""Shared scenario builders used across the test modules."""

from __future__ import annotations

import tracemalloc

import numpy as np

from consensusflow import (
    Ball,
    Box,
    Point,
    Sum,
    ObjectiveSet,
    Quadratic,
    SquaredDistance,
    SwitchingSignal,
    WeightedDigraph,
)


def two_node_quadratics() -> ObjectiveSet:
    """f1 = x^2/2 and f2 = (x-3)^2/2; minimizers {0} and {3} do not meet."""
    return ObjectiveSet([Quadratic([[1.0]], [0.0]), Quadratic([[1.0]], [3.0])])


def two_node_graph() -> WeightedDigraph:
    return WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0})


def ball_objectives(centers, slack) -> ObjectiveSet:
    """Squared distances to balls that all contain the origin with margin."""
    centers = np.asarray(centers, dtype=float)
    comps = []
    for c in centers:
        comps.append(SquaredDistance(Ball(c, float(np.linalg.norm(c)) + slack)))
    return ObjectiveSet(comps)


def cycle_with_chords(n=5) -> WeightedDigraph:
    """Directed cycle plus two forward chords: strongly connected, one-way."""
    arcs = [(k, (k + 1) % n) for k in range(n)] + [(0, 2), (1, 3)]
    return WeightedDigraph.from_arcs(n, arcs)


def alternating_signal() -> SwitchingSignal:
    """{0->1, 1->2} on [0, 0.5) then {2->0} on [0.5, 1), repeating."""
    g1 = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2)])
    g2 = WeightedDigraph.from_arcs(3, [(2, 0)])
    return SwitchingSignal([(0.0, g1), (0.5, g2)], dwell=0.5, period=1.0)


def traced_peak(fn, *args):
    """``(fn(*args), peak bytes traced while it ran)``; the result counts too."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Random generators and property checks shared by the unit and acceptance
# suites.  Each *_worst function returns the worst violation it saw, so the
# caller owns the tolerance.

def random_convex_set(rng, m):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Point(rng.uniform(-2.0, 2.0, m))
    if kind == 1:
        return Ball(rng.uniform(-2.0, 2.0, m), float(rng.uniform(0.3, 2.5)))
    lower = rng.uniform(-2.5, 0.5, m)
    return Box(lower, lower + rng.uniform(0.5, 3.0, m))


def random_component(rng, m, allow_sum=True):
    kind = int(rng.integers(0, 3 if allow_sum else 2))
    if kind == 0:
        a = rng.uniform(-1.0, 1.0, (m, m))
        return Quadratic(a.T @ a + 0.1 * np.eye(m), rng.uniform(-2.0, 2.0, m))
    if kind == 1:
        return SquaredDistance(random_convex_set(rng, m))
    return Sum([random_component(rng, m, allow_sum=False) for _ in range(2)])


def projector_inequality_worst(rng, n_samples):
    """Worst value of <P(x)-x, P(x)-y> over random sets, x free, y in the set."""
    worst = -np.inf
    for _ in range(n_samples):
        m = int(rng.integers(1, 4))
        s = random_convex_set(rng, m)
        x = rng.uniform(-4.0, 4.0, m)
        y = s.project(rng.uniform(-4.0, 4.0, m))
        p = s.project(x)
        worst = max(worst, float(np.dot(p - x, p - y)))
    return worst


def nonexpansiveness_worst(rng, n_samples):
    """Worst value of |P(x)-P(y)| - |x-y| over random sets and point pairs."""
    worst = -np.inf
    for _ in range(n_samples):
        m = int(rng.integers(1, 4))
        s = random_convex_set(rng, m)
        x = rng.uniform(-4.0, 4.0, m)
        y = rng.uniform(-4.0, 4.0, m)
        gap = np.linalg.norm(s.project(x) - s.project(y)) - np.linalg.norm(x - y)
        worst = max(worst, float(gap))
    return worst


def _twice_differentiable_at(comp, x):
    # squared set distances are C^1 everywhere but only piecewise smooth at the
    # set boundary, where central differences lose accuracy; sample away from it
    if isinstance(comp, SquaredDistance):
        return abs(float(comp.target.interior_margin(x))) >= 1e-3
    if isinstance(comp, Sum):
        return all(_twice_differentiable_at(p, x) for p in comp.parts)
    return True


def gradient_fd_worst(rng, n_samples, step=1e-6):
    """Worst relative error between analytic gradients and central differences.

    Samples sit away from set boundaries and from flat regions (|grad| below
    1e-2), where a relative comparison is meaningless.
    """
    worst = 0.0
    done = 0
    attempts = 0
    while done < n_samples and attempts < 50 * n_samples:
        attempts += 1
        m = int(rng.integers(1, 4))
        comp = random_component(rng, m)
        x = rng.uniform(-3.0, 3.0, m)
        g = np.asarray(comp.grad(x), dtype=float)
        if not _twice_differentiable_at(comp, x) or np.linalg.norm(g) < 1e-2:
            continue
        fd = np.empty(m)
        for k in range(m):
            e = np.zeros(m)
            e[k] = step
            fd[k] = (comp.value(x + e) - comp.value(x - e)) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
        done += 1
    if done < n_samples:
        raise RuntimeError("sampling filters rejected too many points")
    return worst


def first_order_convexity_worst(rng, n_samples):
    """Worst violation of f(x) >= f(y) + <x - y, grad f(y)>."""
    worst = -np.inf
    for _ in range(n_samples):
        m = int(rng.integers(1, 4))
        comp = random_component(rng, m)
        x = rng.uniform(-3.0, 3.0, m)
        y = rng.uniform(-3.0, 3.0, m)
        gap = comp.value(y) + float(np.dot(x - y, comp.grad(y))) - comp.value(x)
        worst = max(worst, float(gap))
    return worst
