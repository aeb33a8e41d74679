"""End-to-end acceptance checks.

Each test verifies one headline behavior of the library at its stated
tolerance and prints a single [PASS]/[FAIL] summary line (visible with
``pytest -s``), so a full run reads as a checklist.
"""

from __future__ import annotations

import itertools

import numpy as np

from consensusflow import (
    ExponentialDecayDisturbance,
    ObjectiveSet,
    Quadratic,
    Scenario,
    SwitchingSignal,
    WeightedDigraph,
    check_disagreement_bound,
    consensus_diameter,
    dini_nonincreasing,
    integrate,
    integrate_batch,
    interior_simplex,
    intersection_nonempty,
    global_min,
    lyapunov_trace,
    node_optimum_residuals,
    optimality_gap,
    sphere_intersection,
    stationary_quadratic,
)

from conftest import (
    alternating_signal,
    ball_objectives,
    cycle_with_chords,
    first_order_convexity_worst,
    gradient_fd_worst,
    nonexpansiveness_worst,
    projector_inequality_worst,
    two_node_graph,
    two_node_quadratics,
)


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def _linear_pair_solution(times, x0, gain=1.0):
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mat = gain * lap + np.eye(2)
    xbar = np.linalg.solve(mat, np.array([0.0, 3.0]))
    evals, evecs = np.linalg.eigh(mat)
    dev0 = evecs.T @ (np.asarray(x0, dtype=float) - xbar)
    return np.stack([xbar + evecs @ (np.exp(-evals * t) * dev0) for t in times])


def test_fixed_digraph_reaches_optimal_consensus():
    obj = ball_objectives(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], slack=0.5
    )
    graph = cycle_with_chords(5)
    assert graph.is_strongly_connected() and not graph.is_bidirectional()
    team = global_min(obj)

    worst = {"diameter": 0.0, "residual": 0.0, "gap": 0.0}
    members = [Scenario(obj, graph, np.random.default_rng(seed).uniform(-5.0, 5.0, (5, 2)),
                        tf=200.0, step=0.01) for seed in range(10)]
    for traj in integrate_batch(members):
        worst["diameter"] = max(worst["diameter"],
                                float(consensus_diameter(traj.terminal_state)))
        worst["residual"] = max(worst["residual"],
                                float(node_optimum_residuals(traj, obj)[-1].max()))
        worst["gap"] = max(worst["gap"],
                           float(optimality_gap(traj, obj, team.value)[-1].max()))

    ok = (worst["diameter"] <= 1e-4 and worst["residual"] <= 1e-4
          and worst["gap"] <= 1e-6)
    _report(
        "shared-minimizer flow on a one-way strongly connected digraph",
        ok,
        f"10 seeds to tf=200: diameter {worst['diameter']:.3e} (tol 1e-4), "
        f"own-argmin residual {worst['residual']:.3e} (tol 1e-4), "
        f"team gap {worst['gap']:.3e} (tol 1e-6)",
    )
    assert ok


def test_disjoint_minimizers_leave_a_gap():
    scen = Scenario(two_node_quadratics(), two_node_graph(), [0.0, 3.0], tf=25.0)
    traj = integrate(scen)
    terminal = traj.terminal_state[:, 0]
    dev = float(np.abs(terminal - [1.0, 2.0]).max())
    diam = float(consensus_diameter(traj.terminal_state))
    ok = dev <= 1e-6 and abs(diam - 1.0) <= 1e-4
    _report(
        "disjoint argmin sets keep the nodes apart",
        ok,
        f"terminal ({terminal[0]:.9f}, {terminal[1]:.9f}) within {dev:.3e} of (1, 2) "
        f"(tol 1e-6); diameter {diam:.6f} = 1.0 +- 1e-4, so exact agreement fails",
    )
    assert ok


def test_large_gains_shrink_disagreement_as_predicted():
    obj = two_node_quadratics()
    graph = two_node_graph()
    lam2 = graph.lambda2()
    gains = (1.0, 10.0, 100.0)
    points = {k: stationary_quadratic(obj, graph, k) for k in gains}
    grad_sup = max(p.grad_norm for p in points.values())

    worst_diam_err = 0.0
    worst_mismatch = 0.0
    min_margin = np.inf
    all_hold = True
    members = [Scenario(obj, graph, [0.0, 3.0], tf=25.0, gain=k, step=0.01)
               for k in gains]
    for k, traj in zip(gains, integrate_batch(members)):
        diam = float(consensus_diameter(traj.terminal_state))
        worst_diam_err = max(worst_diam_err, abs(diam - 3.0 / (2.0 * k + 1.0)))
        worst_mismatch = max(
            worst_mismatch, float(np.abs(traj.terminal_state - points[k].states).max())
        )
        chk = check_disagreement_bound(points[k], grad_sup, lam2)
        all_hold = all_hold and chk.holds
        min_margin = min(min_margin, chk.margin)

    ok = (worst_diam_err <= 1e-4 and all_hold and min_margin >= -1e-12
          and worst_mismatch <= 1e-6)
    _report(
        "gain sweep matches the stationary oracle and its disagreement bound",
        ok,
        f"gains {gains}: |diameter - 3/(2K+1)| <= {worst_diam_err:.3e} (tol 1e-4), "
        f"bound margins >= {min_margin:.3e} (>= -1e-12), "
        f"terminal-vs-oracle {worst_mismatch:.3e} (tol 1e-6)",
    )
    assert ok


def test_switching_topology_reaches_optimal_consensus():
    obj = ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], slack=0.5)
    sig = alternating_signal()
    assert sig.check_ujsc(1.0)

    sets = obj.argmin_sets()
    z = intersection_nonempty(sets).witness
    anchors = interior_simplex(sets, z)

    dini_ok = True
    worst_spread = 0.0
    worst_residual = 0.0
    worst_recon = 0.0
    members = [Scenario(obj, sig, np.random.default_rng(100 + seed).uniform(-5.0, 5.0, (3, 2)),
                        tf=120.0, step=0.01) for seed in range(10)]
    for traj in integrate_batch(members):
        v = lyapunov_trace(traj, z)
        env = v.max(axis=1)
        chk = dini_nonincreasing(traj.times, env, 1e-6 * np.maximum(1.0, env))
        dini_ok = dini_ok and chk.nonincreasing
        worst_spread = max(worst_spread, float(v[-1].max() - v[-1].min()))
        worst_residual = max(
            worst_residual, float(node_optimum_residuals(traj, obj)[-1].max())
        )

        terminal = traj.terminal_state
        sq = [float(((terminal - a) ** 2).sum(axis=1).max()) for a in anchors]
        diam = float(consensus_diameter(terminal))
        scale = 1.0 + np.abs(anchors).max() + np.abs(terminal).max()
        y = sphere_intersection(anchors, sq,
                                consistency_tol=max(1e-9, 10.0 * diam * scale))
        dev = float(np.linalg.norm(terminal - y, axis=1).max())
        inside = max(float(s.distance(y)) for s in sets)
        worst_recon = max(worst_recon, dev, inside)

    ok = (dini_ok and worst_spread <= 1e-3 and worst_residual <= 1e-3
          and worst_recon <= 1e-3)
    _report(
        "periodic jointly connected switching reaches one shared optimum",
        ok,
        f"10 seeds to tf=120: envelope nonincreasing={dini_ok}, "
        f"terminal V spread {worst_spread:.3e} (tol 1e-3), "
        f"residual {worst_residual:.3e} (tol 1e-3), "
        f"distance-based limit reconstruction {worst_recon:.3e} (tol 1e-3)",
    )
    assert ok


def test_projection_and_convexity_property_suite():
    p_inner = projector_inequality_worst(np.random.default_rng(101), 1000)
    p_nonexp = nonexpansiveness_worst(np.random.default_rng(102), 1000)
    p_grad = gradient_fd_worst(np.random.default_rng(103), 1000)
    p_convex = first_order_convexity_worst(np.random.default_rng(104), 1000)
    ok = (p_inner <= 1e-12 and p_nonexp <= 1e-12 and p_grad <= 1e-5
          and p_convex <= 1e-12)
    _report(
        "projection and convexity properties over 1000 random samples each",
        ok,
        f"projector inner product {p_inner:.3e} (tol 1e-12), "
        f"nonexpansiveness excess {p_nonexp:.3e} (tol 1e-12), "
        f"gradient-vs-differences {p_grad:.3e} (tol 1e-5), "
        f"first-order convexity violation {p_convex:.3e} (tol 1e-12)",
    )
    assert ok


def test_minimizer_hull_cube_is_invariant():
    obj = ObjectiveSet([Quadratic([[1.0]], [c]) for c in (0.0, 1.0, 2.0)])
    graph = WeightedDigraph.bidirectional_path(3)
    lo, hi = 0.0 - 0.5, 2.0 + 0.5  # node minimizer hull padded by eta = 0.5

    rng = np.random.default_rng(106)
    starts = [np.array(c, dtype=float).reshape(3, 1)
              for c in itertools.product([lo, hi], repeat=3)]
    starts += [rng.uniform(lo, hi, (3, 1)) for _ in range(4)]

    worst_exit = 0.0
    members = [Scenario(obj, graph, x0, tf=20.0, gain=gain)
               for gain in (0.5, 1.0, 10.0) for x0 in starts]
    for traj in integrate_batch(members):
        worst_exit = max(worst_exit,
                         float((traj.states - hi).max()),
                         float((lo - traj.states).max()))
    ok = worst_exit <= 1e-9
    _report(
        "padded minimizer hull is invariant for every gain",
        ok,
        f"gains (0.5, 1, 10), {len(starts)} starts incl. all corners of "
        f"[{lo}, {hi}]^3: worst excursion {worst_exit:.3e} (tol 1e-9)",
    )
    assert ok


def test_integrator_matches_matrix_exponential_with_fourth_order_decay():
    errs = {}
    for h in (0.01, 0.005):
        traj = integrate(
            Scenario(two_node_quadratics(), two_node_graph(), [0.0, 3.0],
                     tf=10.0, step=h)
        )
        exact = _linear_pair_solution(traj.times, [0.0, 3.0])
        errs[h] = float(np.abs(traj.states[:, :, 0] - exact).max())
    ratio = errs[0.01] / errs[0.005]
    ok = errs[0.01] <= 1e-8 and ratio >= 8.0
    _report(
        "integrator agrees with the matrix exponential and halving the step "
        "divides the error by at least 8",
        ok,
        f"max error {errs[0.01]:.3e} at h=0.01 (tol 1e-8); "
        f"halving h shrinks it {ratio:.1f}x (needs >= 8)",
    )
    assert ok


def test_decaying_disturbance_still_yields_consensus():
    sig = SwitchingSignal(
        [(0.0, WeightedDigraph.from_arcs(3, [(0, 1)])),
         (0.5, WeightedDigraph.from_arcs(3, [(0, 2)]))],
        dwell=0.5, period=1.0,
    )
    union = sig.joint_graph(0.0, 1.0)
    assert union.has_spanning_tree() and not union.is_strongly_connected()

    obj = ObjectiveSet([Quadratic([[0.0]], [0.0]) for _ in range(3)])
    members = []
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        vectors = rng.uniform(-1.0, 1.0, (3, 1))  # per-node magnitude at most 1
        x0 = rng.uniform(-5.0, 5.0, (3, 1))
        members.append(Scenario(obj, sig, x0, tf=50.0,
                                disturbance=ExponentialDecayDisturbance(vectors)))
    worst = 0.0
    for traj in integrate_batch(members):
        worst = max(worst, float(consensus_diameter(traj.terminal_state)))

    ok = worst <= 1e-3
    _report(
        "decaying disturbance on a rooted switching graph still gives consensus",
        ok,
        f"5 seeds: diameter at t=50 is {worst:.3e} (tol 1e-3)",
    )
    assert ok
