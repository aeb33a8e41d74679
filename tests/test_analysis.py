from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from consensusflow import (
    Ball,
    Box,
    ObjectiveSet,
    Point,
    Quadratic,
    Scenario,
    SquaredDistance,
    Sum,
    Trajectory,
    UnsupportedRepresentationError,
    WeightedDigraph,
    check_disagreement_bound,
    consensus_diameter,
    detect_convergence,
    dini_nonincreasing,
    integrate,
    lyapunov_trace,
    node_optimum_residuals,
    optimality_gap,
    sphere_intersection,
    stationary_quadratic,
)

from consensusflow import analysis
from consensusflow.analysis import _diameter_screen

from conftest import ball_objectives, two_node_graph, two_node_quadratics


def _flat_trajectory(states):
    states = np.asarray(states, dtype=float)
    return Trajectory(np.array([0.0, 1.0]), np.stack([states, states]))


# --- trajectory metrics ------------------------------------------------------

def test_lyapunov_trace_anchor():
    traj = _flat_trajectory([[1.0], [2.0]])
    v = lyapunov_trace(traj, [1.5])
    assert type(v) is np.ndarray
    assert np.array_equal(v, [[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ValueError):
        lyapunov_trace(traj, [1.5, 0.0])


def test_dini_checks():
    t = np.arange(5.0)
    ok = dini_nonincreasing(t, np.array([4.0, 3.0, 2.5, 2.5, 2.4]), 0.0)
    assert ok.nonincreasing and ok.first_violation_time is None
    assert ok.worst_excess <= 0.0

    bad = dini_nonincreasing(t, np.array([4.0, 3.0, 3.5, 2.0, 1.0]), 0.0)
    assert not bad.nonincreasing
    assert bad.first_violation_time == 1.0
    assert bad.worst_excess == 0.5

    # a per-sample slack band admits the same rise
    band = dini_nonincreasing(t, np.array([4.0, 3.0, 3.5, 2.0, 1.0]), np.full(5, 0.6))
    assert band.nonincreasing

    with pytest.raises(ValueError, match="scalar-valued"):
        dini_nonincreasing(t, np.zeros((5, 2)), 0.0)
    with pytest.raises(ValueError, match="slack array"):
        dini_nonincreasing(t, np.zeros(5), np.zeros(3))
    for times in (t[:3], np.stack([t, t])):
        with pytest.raises(ValueError, match="align with times"):
            dini_nonincreasing(times, np.zeros(5), 0.0)


def test_consensus_diameter_anchors():
    assert consensus_diameter(np.array([[0.0], [1.0]])) == 1.0
    assert consensus_diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0
    batch = np.stack([np.zeros((2, 2)), np.array([[0.0, 0.0], [3.0, 4.0]])])
    assert np.array_equal(consensus_diameter(batch), [0.0, 5.0])
    with pytest.raises(ValueError):
        consensus_diameter(np.zeros(3))

    # chunked over samples, bit-identical to the maximum of the pairwise norms
    rng = np.random.default_rng(33)
    for shape in [(40, 300, 1), (40, 300, 2), (40, 300, 3), (3, 4, 6, 2)]:
        states = rng.normal(scale=3.0, size=shape)
        if len(shape) == 4:
            states[1, 2, 5, 0] = np.nan
        diff = states[..., :, None, :] - states[..., None, :, :]
        reference = np.linalg.norm(diff, axis=-1).max(axis=(-1, -2))
        assert consensus_diameter(states).tobytes() == reference.tobytes()
    # the NaN stays in its own sample
    assert np.isnan(reference[1, 2]) and np.isnan(reference).sum() == 1


def test_consensus_diameter_tiles_bitwise(monkeypatch):
    rng = np.random.default_rng(36)
    batches = [rng.normal(scale=3.0, size=shape)
               for shape in [(5, 40, 2), (3, 4, 6, 2), (2, 33, 1), (9, 3), (1, 1, 2)]]
    batches[1][1, 2, 5, 0] = np.nan
    untiled = [consensus_diameter(x) for x in batches]
    # one sample at a time, then square blocks of a sample down to single pairs
    for chunk in (2000, 1500, 100, 7, 4, 1):
        monkeypatch.setattr(analysis, "_DIAMETER_CHUNK", chunk)
        for x, want in zip(batches, untiled):
            assert np.asarray(consensus_diameter(x)).tobytes() == np.asarray(want).tobytes()


def test_consensus_diameter_memory_is_bounded():
    # at N = 3000 one untiled sample needs two 72 MB (N, N) temporaries
    x = np.random.default_rng(37).normal(size=(3000, 2))
    tracemalloc.start()
    try:
        got = consensus_diameter(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * analysis._DIAMETER_CHUNK
    far = np.argmax(np.linalg.norm(x - x[0], axis=-1))
    assert got >= np.linalg.norm(x[far] - x[0], axis=-1)


def _all_pairs_convergence(trajectory, objectives, tol, run_length):
    """``detect_convergence`` with the all-pairs diameter of every sample."""
    diam = consensus_diameter(trajectory.states)
    gn = np.linalg.norm(objectives.stacked_grad(trajectory.states), axis=2).max(axis=1)
    ok = (diam <= tol) & (gn <= tol)
    for start in range(ok.size - run_length + 1):
        if ok[start:start + run_length].all():
            return "converged", float(trajectory.times[start])
    return "horizon", float(trajectory.times[-1])


def test_convergence_screen_matches_all_pairs():
    rng = np.random.default_rng(38)
    tol, eps = 1e-6, np.finfo(float).eps
    samples = {}
    for n in (2, 5, 40):
        # one ball holding every sample: gradients vanish, the diameter decides
        obj = ObjectiveSet([SquaredDistance(Ball([0.0, 0.0], 1e6))] * n)
        out = samples.setdefault(n, (obj, []))[1]
        for offset in (0.0, 1e3, -7.25):
            cloud = rng.normal(size=(n, 2))
            cloud *= tol / consensus_diameter(cloud)
            # within a few ulp of tol on both sides, inside the screen's band,
            # and clear of it on both sides
            for scale in [1.0 + k * eps for k in range(-6, 7)] + [0.3, 0.45, 0.7, 1.5, 2.5, 4.0]:
                out.append(offset + scale * cloud)
        nan = offset + cloud
        nan[0, 1] = np.nan
        out.append(nan)
    for n, (obj, states) in samples.items():
        states = np.stack(states)
        diam = consensus_diameter(states)
        assert (diam <= tol).any() and (diam > tol).any() and np.isnan(diam).any()
        near, far = _diameter_screen(states, tol)
        assert not (near & far).any()
        assert (diam[near] <= tol).all() and (diam[far] > tol).all()
        assert near.any() and far.any()
        for x in states:  # one sample: converged at once or not at all
            traj = Trajectory(np.array([2.0]), x[None])
            assert detect_convergence(traj, obj, tol, 1) == _all_pairs_convergence(traj, obj, tol, 1)
        times = np.arange(float(len(states)))
        for order in (np.arange(len(states)), rng.permutation(len(states))):
            traj = Trajectory(times, states[order])
            for run_length in (1, 2, 3):
                assert (detect_convergence(traj, obj, tol, run_length)
                        == _all_pairs_convergence(traj, obj, tol, run_length))


def test_trajectory_metric_anchors():
    obj = two_node_quadratics()
    traj = _flat_trajectory([[1.0], [2.0]])
    gaps = optimality_gap(traj, obj, 2.25)
    assert type(gaps) is np.ndarray and gaps.shape == (2, 2)
    assert np.allclose(gaps, 0.25, atol=1e-15)
    res = node_optimum_residuals(traj, obj)
    assert type(res) is np.ndarray
    assert np.array_equal(res, [[1.0, 1.0], [1.0, 1.0]])
    # agreement where the gradients do not vanish is not convergence
    agreed = _flat_trajectory([[1.5], [1.5]])
    assert detect_convergence(agreed, obj, run_length=1) == ("horizon", 1.0)
    assert np.array_equal(consensus_diameter(traj.states), [1.0, 1.0])


def test_node_optimum_residuals_match_node_loop():
    rng = np.random.default_rng(34)
    centers = rng.uniform(-1.0, 1.0, (4, 2))
    balls = ObjectiveSet([SquaredDistance(Ball(c, 0.5)) for c in centers])
    quads = ObjectiveSet([Quadratic(np.diag(rng.uniform(0.5, 2.0, 2)), c) for c in centers])
    mixed = ObjectiveSet([quads.components[0], balls.components[1],
                          SquaredDistance(Box([-1.0, 0.0], [0.0, 1.0])),
                          SquaredDistance(Point(centers[3]))])
    boxes = ObjectiveSet([SquaredDistance(Box(c - 0.5, c + [0.5, np.inf])) for c in centers])
    points = ObjectiveSet([SquaredDistance(Point(c)) for c in centers])
    states = rng.uniform(-3.0, 3.0, (9, 4, 2))
    states[0] = centers  # inside every argmin set
    traj = Trajectory(np.arange(9.0), states)
    for obj in (balls, quads, mixed, boxes, points):
        loop = [s.distance(states[:, i, :]) for i, s in enumerate(obj.argmin_sets())]
        res = node_optimum_residuals(traj, obj)
        assert res.tobytes() == np.stack(loop, axis=1).tobytes()
        assert not res[0].any()
    # a sum's argmin set is not represented, nested or not
    nested = ObjectiveSet([Sum([points.components[0], Sum([balls.components[1]])]),
                           *mixed.components[1:]])
    with pytest.raises(UnsupportedRepresentationError):
        node_optimum_residuals(traj, nested)


def test_optimality_gap_at_large_gain_stationary_point():
    obj = two_node_quadratics()
    traj = _flat_trajectory([[10.0 / 7.0], [11.0 / 7.0]])
    gaps = optimality_gap(traj, obj, 2.25)
    assert np.allclose(gaps, 1.0 / 196.0, atol=1e-12)


def test_detect_convergence_modes():
    obj = ObjectiveSet(
        [SquaredDistance(Ball([0.0], 1.0)), SquaredDistance(Ball([0.5], 1.0))]
    )
    scen = Scenario(obj, two_node_graph(), [4.0, -3.0], tf=30.0)
    status, t = detect_convergence(integrate(scen), obj)
    assert status == "converged" and 0.0 < t < 30.0

    quad = two_node_quadratics()
    scen2 = Scenario(quad, two_node_graph(), [0.0, 3.0], tf=10.0)
    status2, t2 = detect_convergence(integrate(scen2), quad)
    assert (status2, t2) == ("horizon", 10.0)


# --- stationary oracle -------------------------------------------------------

def test_stationary_unit_gain_anchor():
    sp = stationary_quadratic(two_node_quadratics(), two_node_graph(), 1.0)
    assert np.allclose(sp.states, [[1.0], [2.0]], atol=1e-12)
    assert sp.residual <= 1e-9
    assert abs(sp.disagreement - np.sqrt(0.5)) <= 1e-12
    assert abs(sp.grad_norm - np.sqrt(2.0)) <= 1e-12
    assert np.allclose(sp.mean_state, [1.5], atol=1e-12)


def test_stationary_gain_grid_matches_closed_form():
    obj = two_node_quadratics()
    g = two_node_graph()
    for gain in (1.0, 10.0, 100.0):
        sp = stationary_quadratic(obj, g, gain)
        lo = 3.0 * gain / (2.0 * gain + 1.0)
        assert np.allclose(sp.states, [[lo], [lo + 3.0 / (2.0 * gain + 1.0)]], atol=1e-12)
        assert abs(sp.disagreement - 3.0 / (np.sqrt(2.0) * (2.0 * gain + 1.0))) <= 1e-12


def test_stationary_zero_gain_decouples():
    sp = stationary_quadratic(two_node_quadratics(), two_node_graph(), 0.0)
    assert np.allclose(sp.states, [[0.0], [3.0]], atol=1e-12)
    assert sp.grad_norm <= 1e-12


def test_stationary_identical_centers_agree():
    obj = ObjectiveSet([Quadratic([[1.0]], [2.0]), Quadratic([[1.0]], [2.0])])
    sp = stationary_quadratic(obj, two_node_graph(), 5.0)
    assert np.allclose(sp.states, 2.0, atol=1e-12)
    assert sp.disagreement <= 1e-12


def test_stationary_preconditions():
    obj = two_node_quadratics()
    with pytest.raises(ValueError, match="symmetric"):
        stationary_quadratic(obj, WeightedDigraph(2, {(0, 1): 1.0}), 1.0)
    with pytest.raises(ValueError, match="quadratic"):
        stationary_quadratic(
            ball_objectives([[1.0, 0.0], [0.0, 1.0]], slack=0.5),
            WeightedDigraph.complete(2),
            1.0,
        )
    with pytest.raises(ValueError, match="nonnegative"):
        stationary_quadratic(obj, two_node_graph(), -1.0)
    with pytest.raises(ValueError, match="node count"):
        stationary_quadratic(obj, WeightedDigraph.complete(3), 1.0)


def test_stationary_singular_system():
    flat = ObjectiveSet([Quadratic([[0.0]], [0.0]), Quadratic([[0.0]], [0.0])])
    with pytest.raises(ValueError, match="singular"):
        stationary_quadratic(flat, two_node_graph(), 1.0)


# --- disagreement bound ------------------------------------------------------

def test_bound_is_tight_with_own_gradient():
    sp = stationary_quadratic(two_node_quadratics(), two_node_graph(), 10.0)
    chk = check_disagreement_bound(sp, sp.grad_norm, 2.0)
    assert chk.holds
    assert abs(chk.margin) <= 1e-12


def test_bound_over_gain_grid():
    obj = two_node_quadratics()
    g = two_node_graph()
    lam2 = g.lambda2()
    points = [stationary_quadratic(obj, g, k) for k in (1.0, 10.0, 100.0)]
    grad_sup = max(p.grad_norm for p in points)
    margins = []
    for p in points:
        chk = check_disagreement_bound(p, grad_sup, lam2)
        assert chk.holds
        assert chk.margin >= -1e-12
        margins.append(chk.margin)
    # at gain 1 the bound uses the grid-wide gradient supremum, so slack opens
    expected = 150.0 * np.sqrt(2.0) / 201.0 - 3.0 / (3.0 * np.sqrt(2.0))
    assert abs(margins[0] - expected) <= 1e-12
    assert margins[2] == min(margins)


def test_bound_validation():
    sp = stationary_quadratic(two_node_quadratics(), two_node_graph(), 0.0)
    with pytest.raises(ValueError, match="positive gain"):
        check_disagreement_bound(sp, 1.0, 2.0)
    sp10 = stationary_quadratic(two_node_quadratics(), two_node_graph(), 10.0)
    with pytest.raises(ValueError, match="lambda2"):
        check_disagreement_bound(sp10, 1.0, 0.0)


# --- sphere intersection -----------------------------------------------------

def test_sphere_intersection_line_anchor():
    y = sphere_intersection(np.array([[0.0], [3.0]]), np.array([1.0, 4.0]))
    assert np.array_equal(y, [1.0])


def test_sphere_intersection_recovers_planar_point():
    p = np.array([0.3, -1.2])
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = ((p - centers) ** 2).sum(axis=1)
    y = sphere_intersection(centers, d)
    assert np.allclose(y, p, atol=1e-12)


def test_sphere_intersection_rank_check():
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="affinely dependent"):
        sphere_intersection(centers, np.ones(3))


def test_sphere_intersection_consistency_check():
    centers = np.array([[0.0], [3.0]])
    with pytest.raises(ValueError, match="no point matches"):
        sphere_intersection(centers, np.array([1.0, 100.0]))
    # the same data is accepted under an explicitly loose tolerance
    y = sphere_intersection(centers, np.array([1.0, 100.0]), consistency_tol=300.0)
    assert np.array_equal(y, [-15.0])


def test_sphere_intersection_validation():
    with pytest.raises(ValueError, match="3 centers"):
        sphere_intersection(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError, match="nonnegative"):
        sphere_intersection(np.array([[0.0], [3.0]]), np.array([-1.0, 4.0]))
    with pytest.raises(ValueError):
        sphere_intersection(np.zeros(3), np.ones(3))
