from __future__ import annotations

import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from consensusflow import (
    Ball,
    Box,
    DivergenceError,
    ExponentialDecayDisturbance,
    ObjectiveSet,
    Point,
    Quadratic,
    Scenario,
    SquaredDistance,
    Sum,
    SwitchingSignal,
    Trajectory,
    WeightedDigraph,
    integrate,
    integrate_batch,
    load_config,
    neighbor_info,
    rhs,
)
from consensusflow.dynamics import (
    DIVERGENCE_BLOCK,
    DIVERGENCE_LIMIT,
    RK4_STABILITY_BOUND,
    StepStabilityError,
    _fields,
    _rk4_defect,
)
from consensusflow.graphs import coupling_kernel

from conftest import (
    alternating_signal,
    ball_objectives,
    cycle_with_chords,
    traced_peak,
    two_node_graph,
    two_node_quadratics,
)


def _two_node_scenario(gain=1.0, tf=10.0, x0=(0.0, 3.0), step=0.01):
    return Scenario(
        two_node_quadratics(),
        two_node_graph(),
        np.asarray(x0, dtype=float),
        tf=tf,
        gain=gain,
        step=step,
    )


def _forced_pair(x0=(0.0, 3.0), gain=1.0, tf=5.0):
    # a divergence the stability certificate lets through (h*rho = 0.03 at gain
    # 1): node 1's forcing of 1e9 takes it past the limit at t=0.12 from (0, 3)
    return Scenario(two_node_quadratics(), two_node_graph(), np.asarray(x0, dtype=float),
                    tf=tf, gain=gain,
                    disturbance=ExponentialDecayDisturbance([[0.0], [1e9]], rate=0.1))


def _linear_solution(times, x0, gain=1.0):
    # closed form for the two-node quadratic pair: xdot = -(gain L + I) x + c
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mat = gain * lap + np.eye(2)
    xbar = np.linalg.solve(mat, np.array([0.0, 3.0]))
    evals, evecs = np.linalg.eigh(mat)
    dev0 = evecs.T @ (np.asarray(x0, dtype=float) - xbar)
    out = np.empty((len(times), 2))
    for idx, t in enumerate(times):
        out[idx] = xbar + evecs @ (np.exp(-evals * t) * dev0)
    return out


# --- control law -------------------------------------------------------------

def test_control_law_anchors():
    # node 0 of the pair sees n = x_1 - x_0 and g = x_0 (its centre is 0)
    assert rhs(_two_node_scenario(gain=1.0), 0.0, [[0.0], [3.0]])[0, 0] == 3.0
    assert rhs(_two_node_scenario(gain=10.0), 0.0, [[1.0], [4.0]])[0, 0] == 29.0
    # with zero disagreement the rule is -g
    g = np.array([[1.0], [-2.0]])
    assert np.array_equal(rhs(_two_node_scenario(gain=7.0), 0.0, [[1.0], [1.0]]), -g)


def test_scenario_rejects_bad_gains():
    for gain in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gain must be a positive real"):
            _two_node_scenario(gain=gain)
    for gain in ("2", lambda n, gr: n - gr):
        with pytest.raises(TypeError):
            _two_node_scenario(gain=gain)


@pytest.mark.parametrize("gain", [True, False, np.True_])
def test_scenario_refuses_a_bool_gain(gain):
    # True would run the gain-1 flow under a fingerprint of its own; a config's
    # JSON true is refused the same way
    with pytest.raises(TypeError, match="gain must be a real number, not a bool"):
        _two_node_scenario(gain=gain)


# --- neighbor aggregation ----------------------------------------------------

def test_neighbor_info_anchor():
    n = neighbor_info(two_node_graph(), np.array([[0.0], [3.0]]))
    assert np.array_equal(n, [[3.0], [-3.0]])


def test_neighbor_info_orientation():
    # the arc (0, 1) feeds node 1 only
    g = WeightedDigraph(2, {(0, 1): 2.0})
    n = neighbor_info(g, np.array([[1.0], [5.0]]))
    assert np.array_equal(n, [[0.0], [-8.0]])


def test_neighbor_info_matches_laplacian():
    rng = np.random.default_rng(30)
    graphs = [cycle_with_chords(), WeightedDigraph.bidirectional_path(7),
              WeightedDigraph.complete(50), WeightedDigraph(4)]
    graphs += [alternating_signal().graph_at(t) for t in (0.0, 0.5)]
    for _ in range(100):
        n_nodes = int(rng.integers(2, 7))
        weights = {}
        for j in range(n_nodes):
            for i in range(n_nodes):
                if i != j and rng.random() < 0.4:
                    weights[(j, i)] = float(rng.uniform(0.1, 3.0))
        graphs.append(WeightedDigraph(n_nodes, weights))
    for g in graphs:
        x = rng.normal(size=(g.n_nodes, int(rng.integers(1, 4))))
        n = neighbor_info(g, x)
        assert np.abs(n + g.laplacian() @ x).max() <= 1e-12
        assert neighbor_info(g, np.asfortranarray(x)).tobytes() == n.tobytes()
        # arcs are summed per entering node in arc order: the dense product's
        # sum bit for bit up to two in-arcs, a few ulp beyond
        src, dst, w = g.arc_arrays()
        in_degree = np.bincount(dst, minlength=g.n_nodes)
        reference = g.aggregation_matrix() @ (w[:, None] * (x[src] - x[dst]))
        if in_degree.max(initial=0) <= 2:
            assert n.tobytes() == reference.tobytes()
        else:
            bound = 1e-14 * np.abs(x).max() * in_degree.max()
            assert np.abs(n - reference).max() <= bound
        assert not n[in_degree == 0].any()
    # {2 -> 0} of the switching config: nodes 1 and 2 have no in-arcs
    n = neighbor_info(alternating_signal().graph_at(0.5), np.arange(6.0).reshape(3, 2))
    assert np.array_equal(n, [[4.0, 4.0], [0.0, 0.0], [0.0, 0.0]])


def test_neighbor_info_scales_with_arcs():
    # a dense N x E aggregation matrix here would take 3.2 GB
    g = WeightedDigraph.directed_cycle(20_000)
    x = np.random.default_rng(32).normal(size=(20_000, 2))
    start = time.perf_counter()
    n = neighbor_info(g, x)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(n, np.roll(x, 1, axis=0) - x)


def test_neighbor_info_exactly_zero_on_consensus():
    rng = np.random.default_rng(31)
    g = WeightedDigraph(4, {(0, 1): 0.3, (1, 2): 1.7, (2, 3): 0.9, (3, 0): 2.2})
    x = np.tile(rng.normal(size=(1, 3)), (4, 1))
    n = neighbor_info(g, x)
    assert n.tobytes() == np.zeros_like(n).tobytes()


def test_batch_union_couples_each_member_on_its_own_graph():
    g = cycle_with_chords()
    weighted = WeightedDigraph(5, {(j, (j + s) % 5): 0.5 + j + 0.25 * s
                                   for j in range(5) for s in (1, 3)})
    graphs = [g, WeightedDigraph(5), weighted, g]
    x = np.random.default_rng(33).normal(size=(20, 2))
    n = coupling_kernel(graphs, 2)(x)
    for b, graph in enumerate(graphs):
        rows = slice(5 * b, 5 * b + 5)
        assert n[rows].tobytes() == neighbor_info(graph, x[rows]).tobytes()
    # an equal graph, another object, couples to the same bytes
    twin = cycle_with_chords()
    assert twin == g and twin is not g
    assert coupling_kernel([twin], 2)(x[:5]).tobytes() == neighbor_info(g, x[:5]).tobytes()


def test_runs_leave_graphs_untouched():
    """Runs, batches, couplings and field evaluations build their own kernels
    and keep none on the graphs they read."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    scens = [load_config(configs / f"{name}.json").build_scenario()
             for name in ("balls", "switching")]
    scens = [Scenario(s.objectives, s.topology, s.x0, tf=2.0, gain=s.gain, step=s.step)
             for s in scens]
    graphs = list({id(g): g for s in scens for *_, g in s.segments}.values())
    assert len(graphs) == 3

    def held(g):
        return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(g).items()}

    before = [held(g) for g in graphs]
    for s in scens:
        integrate(s)
        integrate_batch([s, s])
        rhs(s, 0.7, s.x0)
    for g in graphs:
        neighbor_info(g, np.ones((g.n_nodes, 2)))
    assert [held(g) for g in graphs] == before


def test_neighbor_info_shape_check():
    with pytest.raises(ValueError):
        neighbor_info(two_node_graph(), np.zeros(4))


# --- right-hand side ---------------------------------------------------------

def test_rhs_anchor():
    scen = _two_node_scenario()
    v = rhs(scen, 0.0, scen.x0)
    assert np.array_equal(v, [[3.0], [-3.0]])


def test_rhs_vanishes_at_equilibrium():
    scen = _two_node_scenario()
    v = rhs(scen, 1.0, np.array([[1.0], [2.0]]))
    assert np.abs(v).max() <= 1e-12


def test_rhs_time_range_check():
    scen = _two_node_scenario(tf=1.0)
    with pytest.raises(ValueError):
        rhs(scen, 2.0, scen.x0)
    with pytest.raises(ValueError):
        rhs(scen, -0.5, scen.x0)


def test_rhs_is_negative_gradient_of_penalized_objective():
    # on symmetric graphs the flow descends gain * pairwise disagreement / 2
    # plus the node objectives; compare against central differences
    rng = np.random.default_rng(32)
    for gain in (0.5, 2.0):
        n_nodes, m = 3, 2
        weights = {}
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                w = float(rng.uniform(0.2, 2.0))
                weights[(i, j)] = w
                weights[(j, i)] = w
        graph = WeightedDigraph(n_nodes, weights)
        comps = []
        for _ in range(n_nodes):
            a = rng.uniform(-1.0, 1.0, (m, m))
            comps.append(Quadratic(a.T @ a + 0.3 * np.eye(m), rng.uniform(-1, 1, m)))
        obj = ObjectiveSet(comps)
        scen = Scenario(obj, graph, np.zeros((n_nodes, m)), tf=1.0, gain=gain)

        src, dst, w = graph.arc_arrays()
        once = src < dst  # count each undirected pair a single time

        def potential(flat):
            y = flat.reshape(n_nodes, m)
            pair = np.sum(w[once] * np.sum((y[dst[once]] - y[src[once]]) ** 2, axis=-1))
            return 0.5 * gain * pair + sum(float(c.value(y[i]))
                                           for i, c in enumerate(obj.components))

        x = rng.uniform(-1.5, 1.5, (n_nodes, m))
        vel = rhs(scen, 0.5, x).reshape(-1)
        flat = x.reshape(-1)
        fd = np.empty(flat.size)
        for k in range(flat.size):
            e = np.zeros(flat.size)
            e[k] = 1e-6
            fd[k] = (potential(flat + e) - potential(flat - e)) / 2e-6
        assert np.linalg.norm(vel + fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


# --- integration accuracy ----------------------------------------------------

def test_integrate_matches_matrix_exponential():
    scen = _two_node_scenario(tf=10.0)
    traj = integrate(scen)
    exact = _linear_solution(traj.times, [0.0, 3.0])
    err = np.abs(traj.states[:, :, 0] - exact).max()
    assert err <= 1e-8
    assert np.abs(traj.terminal_state[:, 0] - [1.0, 2.0]).max() <= 1e-6


def test_integrator_order():
    errs = []
    for step in (0.02, 0.01):
        scen = _two_node_scenario(tf=2.0, step=step)
        traj = integrate(scen)
        exact = _linear_solution(traj.times, [0.0, 3.0])
        errs.append(np.abs(traj.states[:, :, 0] - exact).max())
    assert errs[0] / errs[1] >= 8.0


def test_integration_is_deterministic():
    a = integrate(_two_node_scenario(tf=3.0))
    b = integrate(_two_node_scenario(tf=3.0))
    assert a.states.tobytes() == b.states.tobytes()
    assert a.times.tobytes() == b.times.tobytes()


def test_zero_field_keeps_state_bitwise_constant():
    obj = ObjectiveSet([Quadratic([[0.0]], [0.0]), Quadratic([[0.0]], [0.0])])
    scen = Scenario(obj, WeightedDigraph(2), np.array([[0.25], [-1.75]]), tf=1.0)
    traj = integrate(scen)
    assert (traj.states == scen.x0).all()


# --- sample points and segmentation ------------------------------------------

def test_switch_instants_are_exact_sample_points():
    scen = Scenario(
        ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], slack=0.5),
        alternating_signal(),
        np.zeros((3, 2)),
        tf=2.0,
    )
    traj = integrate(scen)
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert t in traj.times
    assert traj.stats["segments"] == 4
    assert np.diff(traj.times).max() <= scen.step + 1e-12


def test_switching_run_matches_per_segment_reference():
    graphs = [WeightedDigraph.from_arcs(3, [(0, 1)]),
              WeightedDigraph.from_arcs(3, [(1, 2)]),
              WeightedDigraph.from_arcs(3, [(2, 0)])]
    sig = SwitchingSignal(list(zip((0.0, 0.1, 0.2), graphs)), dwell=0.1, period=0.3)
    obj = ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], slack=0.5)
    x0 = np.array([[3.0, -1.0], [-2.0, 2.0], [0.5, -3.0]])
    traj = integrate(Scenario(obj, sig, x0, tf=3.0))
    # reference: RK4 on each segment's fixed graph, taken at the segment midpoint;
    # the last instant, 9 * 0.3 + 0.3 = 2.9999999999999996, is tf itself
    instants = [k * 0.3 + off for k in range(10) for off in (0.1, 0.2, 0.3)]
    bounds = [0.0] + [s for s in instants if s < 3.0 - 1e-12] + [3.0]
    assert len(bounds) - 1 == 30
    x, times, states = x0, [0.0], [x0]
    for a, b in zip(bounds, bounds[1:]):
        ref = integrate(Scenario(obj, sig.graph_at((a + b) / 2), x, tf=b, t0=a))
        x = ref.terminal_state
        times += list(ref.times[1:])
        states += list(ref.states[1:])
    assert traj.stats["segments"] == len(bounds) - 1
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, np.stack(states))


def test_final_substep_is_truncated():
    scen = _two_node_scenario(tf=1.005)
    traj = integrate(scen)
    assert traj.times[-1] == 1.005
    assert traj.stats["steps"] == 101
    gaps = np.diff(traj.times)
    assert gaps[-1] < scen.step
    assert gaps[:-1].max() <= scen.step + 1e-12


def test_stats_fields():
    traj = integrate(_two_node_scenario(tf=1.0))
    assert traj.stats == {"steps": 100, "rhs_evaluations": 400, "segments": 1,
                          "h_rho": 0.03, "rk4_defect": _rk4_defect(0.03)}
    # about (h rho)^5 / 5!, the leading term of e^z - R(z) at z = -h rho
    assert 2.01e-10 < traj.stats["rk4_defect"] < 2.02e-10


def test_rk4_defect_on_the_certificate_disc():
    # balls.json at K = 69: stable at h = 0.01 (h rho = 2.77) but 0.91 off
    # the flow per step; at h = 0.002 (h rho = 0.554), 4.0e-4
    assert round(_rk4_defect(2.77), 2) == 0.91
    assert round(_rk4_defect(0.554), 5) == 4.0e-4
    assert _rk4_defect(0.0) == 0.0
    # against exp(z) - R(z) written out on a finer half circle (the other half
    # mirrors it), where it has its digits
    for h_rho in (0.554, 1.0, 2.0, RK4_STABILITY_BOUND):
        z = 0.5 * h_rho * (np.exp(np.linspace(0.0, 1j * np.pi, 32769)) - 1.0)
        direct = np.abs(np.exp(z) - (1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)).max()
        assert abs(_rk4_defect(h_rho) - direct) <= 1e-12 * direct
    # at small h rho, where exp(z) - R(z) has none: the leading term (h rho)^5 / 5!
    for h_rho in (1e-3, 1e-6):
        assert _rk4_defect(h_rho) == pytest.approx(h_rho ** 5 / 120, rel=1e-3)
    # nested discs: it grows with h rho, so a schedule's is the one at its largest
    grid = np.linspace(0.0, RK4_STABILITY_BOUND, 40)
    assert all(a < b for a, b in zip(map(_rk4_defect, grid), map(_rk4_defect, grid[1:])))
    heavy = WeightedDigraph(2, {(0, 1): 5.0, (1, 0): 5.0})
    schedule = SwitchingSignal([(0.0, two_node_graph()), (0.5, heavy)], dwell=0.5, horizon=1.0)
    stats = integrate(Scenario(two_node_quadratics(), schedule, [0.0, 3.0], tf=1.0)).stats
    assert stats["h_rho"] == 0.11 and stats["rk4_defect"] == _rk4_defect(0.11)
    assert _rk4_defect(0.11) > _rk4_defect(0.03)


# --- the in-place step against an out-of-place reference ---------------------

def _reference_run(scenario):
    """RK4 from the public, validated pieces, with the stages combined out of place."""
    obj, gain, disturbance, h = scenario.objectives, scenario.gain, scenario.disturbance, scenario.step
    topo = scenario.topology
    if isinstance(topo, SwitchingSignal):
        segments = topo.segments(scenario.t0, scenario.tf)
    else:
        segments = [(scenario.t0, scenario.tf, topo)]

    def field(graph, t, y):
        grads = np.stack([c.grad(y[i]) for i, c in enumerate(obj.components)])
        u = gain * neighbor_info(graph, y) - grads
        return u if disturbance is None else u + disturbance(t)

    x, times, states = scenario.x0, [scenario.t0], [scenario.x0]
    for a, b, graph in segments:
        n_sub = max(1, int(math.ceil((b - a) / h - 1e-9)))
        for k in range(n_sub):
            t_k = a + k * h
            t_next = b if k == n_sub - 1 else a + (k + 1) * h
            hk = t_next - t_k
            half = 0.5 * hk
            k1 = field(graph, t_k, x)
            k2 = field(graph, t_k + half, x + half * k1)
            k3 = field(graph, t_k + half, x + half * k2)
            k4 = field(graph, t_next, x + hk * k3)
            x = x + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.abs(x).max() <= DIVERGENCE_LIMIT:
                raise DivergenceError(t_next, x, states[-1])
            times.append(t_next)
            states.append(x)
    return np.array(times), np.stack(states)


def _component(kind, rng, m):
    if kind == "ball":
        return SquaredDistance(Ball(rng.uniform(-2.0, 2.0, m), float(rng.uniform(0.0, 1.5))))
    if kind == "quadratic":
        a = rng.uniform(-1.0, 1.0, (m, m))
        return Quadratic(a.T @ a + 0.2 * np.eye(m), rng.uniform(-1.0, 1.0, m))
    if kind == "point":
        return SquaredDistance(Point(rng.uniform(-2.0, 2.0, m)))
    lower = rng.uniform(-2.0, 0.0, m)
    return SquaredDistance(Box(lower, lower + 1.0))


def _family(kind, rng, n, m):
    comps = []
    for i in range(n):
        if kind == "mixed":
            comps.append(_component(("ball", "quadratic", "box")[i % 3], rng, m))
        elif kind == "sum":
            # nested sums of every kind, and a plain component among them
            point, quad, ball, box = (_component(k, rng, m)
                                      for k in ("point", "quadratic", "ball", "box"))
            comps.append((Sum([point, Sum([quad, ball])]),
                          Sum([Sum([box, point]), quad, ball]),
                          ball)[i % 3])
        else:
            comps.append(_component(kind, rng, m))
    if kind == "ball":
        # a radius-0 ball, and a sphere of dyadic centre and radius that
        # _ball_edges can place a node on exactly
        comps[0] = SquaredDistance(Ball(comps[0].target.center, 0.0))
        comps[1] = SquaredDistance(Ball(np.full(m, 0.5), 0.75))
    return ObjectiveSet(comps)


def _ball_edges(obj, x0):
    """``x0`` for a ``_family("ball")`` run, with node 0 at its radius-0 ball's
    centre (``r = 0``: the divisor is the floor), node 1 exactly on its sphere
    (``r = radius``) and node 2 at its ball's centre (``r = 0 < radius``)."""
    x0 = x0.copy()
    x0[0], x0[1], x0[2] = (c.target.center for c in obj.components[:3])
    x0[1, 0] += 0.75  # 0.5 + 0.75, exact
    return x0


# ball families of every component count across 8, where add.reduce stops
# summing in component order
_CASES = [(kind, m) for kind in ("ball", "quadratic", "mixed", "box", "point", "sum")
          for m in (1, 2, 3)] + [("ball", m) for m in (7, 8, 9)]


@pytest.mark.parametrize("kind, m", _CASES)
def test_integrate_matches_out_of_place_reference(kind, m):
    rng = np.random.default_rng(40 + 3 * m + len(kind))
    n = 5
    obj = _family(kind, rng, n, m)
    x0 = rng.uniform(-5.0, 5.0, (n, m))
    if kind == "ball":
        x0 = _ball_edges(obj, x0)
    weighted = WeightedDigraph(n, {(j, i): float(rng.uniform(0.2, 3.0))
                                   for j in range(n) for i in range(n)
                                   if i != j and (i - j) % n in (1, 2)})
    schedule = SwitchingSignal([(0.0, cycle_with_chords(n)), (0.13, weighted),
                                (0.2, WeightedDigraph(n))], dwell=0.05, period=0.37)
    cached = np.full((n, m), 0.5)
    runs = [
        {"topology": cycle_with_chords(n)},
        {"topology": weighted, "gain": 2.5},
        {"topology": schedule},
        {"topology": weighted, "disturbance": ExponentialDecayDisturbance(
            rng.uniform(-1.0, 1.0, (n, m)), rate=0.7)},
        {"topology": schedule, "disturbance": lambda t: cached},
    ]
    for run in runs:
        scen = Scenario(obj, x0=x0, tf=1.0, step=0.03, **run)
        traj = integrate(scen)
        times, states = _reference_run(scen)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
    assert np.array_equal(cached, np.full((n, m), 0.5))

    forcing = np.zeros((n, m))
    forcing[3, m - 1] = 1e9
    diverging = Scenario(obj, cycle_with_chords(n), x0, tf=5.0,
                         disturbance=ExponentialDecayDisturbance(forcing, rate=0.1))
    with pytest.raises(DivergenceError) as err:
        integrate(diverging)
    with pytest.raises(DivergenceError) as ref:
        _reference_run(diverging)
    assert err.value.time == ref.value.time and err.value.node == ref.value.node
    assert err.value.state.tobytes() == ref.value.state.tobytes()
    assert str(err.value) == str(ref.value)


# --- a batch of members against their single runs ---------------------------

def _assert_same_run(traj, single):
    assert traj.times.tobytes() == single.times.tobytes()
    assert traj.states.tobytes() == single.states.tobytes()
    assert traj.fingerprint == single.fingerprint
    assert traj.stats == single.stats


@pytest.mark.parametrize("kind, m", _CASES)
def test_batch_members_match_single_runs(kind, m):
    rng = np.random.default_rng(70 + 3 * m + len(kind))
    n = 5
    obj = _family(kind, rng, n, m)
    weighted = WeightedDigraph(n, {(j, i): float(rng.uniform(0.2, 3.0))
                                   for j in range(n) for i in range(n)
                                   if i != j and (i - j) % n in (1, 2)})
    schedule = SwitchingSignal([(0.0, cycle_with_chords(n)), (0.13, weighted),
                                (0.2, WeightedDigraph(n))], dwell=0.05, period=0.37)
    disturbance = ExponentialDecayDisturbance(rng.uniform(-1.0, 1.0, (n, m)), rate=0.7)
    # one member; four with one gain; unequal gains with and without 1, each with a duplicate
    grids = [(1.0,), (2.5, 2.5, 2.5, 2.5), (0.5, 1.0, 3.0, 1.0), (3.0, 0.5, 3.0, 7.0)]
    for topology in (cycle_with_chords(n), weighted, schedule):
        for dist in (None, disturbance):
            for gains in grids:
                starts = rng.uniform(-5.0, 5.0, (len(gains), n, m))
                if kind == "ball":
                    starts[0] = _ball_edges(obj, starts[0])
                members = [Scenario(obj, topology, x0, tf=0.6, step=0.03, gain=k,
                                    disturbance=dist)
                           for k, x0 in zip(gains, starts)]
                batch = integrate_batch(members)
                assert len(batch) == len(members)
                for scen, traj in zip(members, batch):
                    _assert_same_run(traj, integrate(scen))
    # members one apart in x0 only
    x0 = rng.uniform(-5.0, 5.0, (n, m))
    twins = [Scenario(obj, weighted, x0, tf=1.0, step=0.03) for _ in range(2)]
    a, b = integrate_batch(twins)
    assert a.states.tobytes() == b.states.tobytes() and a.states is not b.states

    # members of one shape that differ in everything else: a family of every
    # kind (this one first), two schedules with the same instants, each its own
    # forcing object, no forcing beside a forcing, a custom forcing, and gains
    kinds = [kind] + [k for k in ("ball", "quadratic", "mixed", "box", "point", "sum")
                      if k != kind]
    families = [_family(k, rng, n, m) for k in kinds]
    starts = rng.uniform(-5.0, 5.0, (len(kinds), n, m))
    other = SwitchingSignal([(0.0, weighted), (0.13, WeightedDigraph(n)),
                             (0.2, cycle_with_chords(n))], dwell=0.05, period=0.37)
    cached = np.full((n, m), 0.25)
    forcings = [ExponentialDecayDisturbance(rng.uniform(-1.0, 1.0, (n, m)), rate=0.7), None,
                lambda t: cached, None,
                ExponentialDecayDisturbance(rng.uniform(-1.0, 1.0, (n, m)), rate=1.3), None]

    def members(forcings):
        return [Scenario(obj, (schedule, other)[b % 2], x0, tf=0.6, step=0.03,
                         gain=(1.0, 2.5, 0.5)[b % 3], disturbance=w)
                for b, (obj, x0, w) in enumerate(zip(families, starts, forcings))]

    mixed = members(forcings)
    for scen, traj in zip(mixed, integrate_batch(mixed)):
        _assert_same_run(traj, integrate(scen))
    # one member forced past the limit: the batch raises that member's own error
    blowup = np.zeros((n, m))
    blowup[3, m - 1] = 1e9
    mixed = members(forcings[:3] + [ExponentialDecayDisturbance(blowup, rate=0.1)]
                    + forcings[4:])
    with pytest.raises(DivergenceError) as own:
        integrate(mixed[3])
    with pytest.raises(DivergenceError) as err:
        integrate_batch(mixed)
    _assert_same_error(err.value, own.value)


def test_integrate_batch_rejects_members_that_differ_in_shape():
    base = dict(objectives=two_node_quadratics(), topology=two_node_graph(),
                x0=[0.0, 3.0], tf=1.0)
    lead = Scenario(**base)
    with pytest.raises(ValueError, match="at least one scenario"):
        integrate_batch([])
    with pytest.raises(TypeError, match="member 1 is not a Scenario"):
        integrate_batch([lead, base])
    cases = {
        "n_nodes": {"objectives": ObjectiveSet([Quadratic([[1.0]], [0.0])] * 3),
                    "topology": WeightedDigraph.bidirectional_path(3), "x0": [0.0, 1.0, 2.0]},
        "m": {"objectives": ObjectiveSet([Quadratic(np.eye(2), [0.0, 0.0])] * 2),
              "x0": [[0.0, 1.0], [2.0, 3.0]]},
        "step": {"step": 0.02},
        "segment instants": {"tf": 2.0},
    }
    for name, change in cases.items():
        with pytest.raises(ValueError, match=f"one shape: member 1 differs from member 0 "
                                             f"in {name}"):
            integrate_batch([lead, Scenario(**{**base, **change})])
    # the instants are compared by their bits: t0 = -0.0 is not 0.0
    with pytest.raises(ValueError, match="in segment instants"):
        integrate_batch([lead, Scenario(**base, t0=-0.0)])
    # one switch instant moved by one ulp
    schedule = SwitchingSignal([(0.0, two_node_graph()), (0.5, WeightedDigraph(2))],
                               dwell=0.1, horizon=1.0)
    moved = SwitchingSignal([(0.0, two_node_graph()),
                             (math.nextafter(0.5, 1.0), WeightedDigraph(2))],
                            dwell=0.1, horizon=1.0)
    with pytest.raises(ValueError, match="in segment instants"):
        integrate_batch([Scenario(**{**base, "topology": schedule}),
                         Scenario(**{**base, "topology": moved})])
    # members that differ in family, topology and forcing, but not in shape, run
    periodic = SwitchingSignal([(0.0, two_node_graph()), (0.5, WeightedDigraph(2))],
                               dwell=0.1, period=1.0)
    points = ObjectiveSet([SquaredDistance(Point([1.0]))] * 2)
    integrate_batch([Scenario(**{**base, "topology": schedule}),
                     Scenario(**{**base, "topology": periodic, "objectives": points},
                              disturbance=lambda t: np.ones((2, 1)))])


def _assert_same_error(err, own):
    assert err.time == own.time and err.node == own.node
    assert err.state.tobytes() == own.state.tobytes()
    assert str(err) == str(own)


def test_batch_divergence_raises_the_first_in_time_error():
    # from (0, -9e7) the forced pair diverges at t=0.2, from (0, 5e7) at t=0.06:
    # in either order the batch raises the t=0.06 member's own error
    late, early = _forced_pair(x0=(0.0, -9e7)), _forced_pair(x0=(0.0, 5e7))
    with pytest.raises(DivergenceError) as own:
        integrate(early)
    assert own.value.time == 0.06
    for order in ([late, early], [early, late]):
        with pytest.raises(DivergenceError) as err:
            integrate_batch(order)
        _assert_same_error(err.value, own.value)
    # gains 1 and 2 both leave the limit at t=0.12, with different states:
    # the tie goes to the first member in member order
    for gains in ((1.0, 2.0), (2.0, 1.0)):
        with pytest.raises(DivergenceError) as own:
            integrate(_forced_pair(gain=gains[0]))
        with pytest.raises(DivergenceError) as err:
            integrate_batch([_forced_pair(gain=k) for k in gains])
        assert err.value.time == 0.12
        _assert_same_error(err.value, own.value)


# --- the field's workspaces ---------------------------------------------------

def test_workspaces_alias_no_result():
    rng = np.random.default_rng(80)
    n, m = 5, 2
    obj = _family("ball", rng, n, m)
    graph = cycle_with_chords(n)
    x = _ball_edges(obj, rng.uniform(-5.0, 5.0, (n, m)))
    # a stretch's four stages are four distinct arrays, at gain 1 and at another
    # gain, which scales the coupling's fresh array in place
    for gain in (1.0, 2.5):
        scen = Scenario(obj, graph, x, tf=1.0, gain=gain)
        field = _fields([scen])((graph,))
        stages = [field(0.0, x + k) for k in range(4)]
        for a, b in itertools.combinations(stages, 2):
            assert not np.shares_memory(a, b)
        for k, u in enumerate(stages):
            assert u.tobytes() == rhs(scen, 0.0, x + k).tobytes()

    # a second public call leaves the first result as it was
    for call in (obj.stacked_grad, obj.components[1].target.project,
                 lambda y: neighbor_info(graph, y)):
        first = call(x)
        kept = first.copy()
        call(x + 1.0)
        assert first.tobytes() == kept.tobytes()

    # back-to-back runs on one family keep their own trajectories
    members = [Scenario(obj, graph, x + k, tf=0.6, step=0.03) for k in range(2)]
    first = integrate_batch(members)
    kept = [traj.states.copy() for traj in first]
    second = integrate_batch(members[::-1])
    for traj, states in zip(first, kept):
        assert traj.states.tobytes() == states.tobytes()
    assert not np.shares_memory(first[0].states, second[1].states)
    assert second[1].states.tobytes() == first[0].states.tobytes()

    # a caught divergence keeps its state through a rerun of the same scenario
    forced = _forced_pair()
    with pytest.raises(DivergenceError) as err:
        integrate(forced)
    kept = err.value.state.copy()
    with pytest.raises(DivergenceError):
        integrate(forced)
    assert err.value.state.tobytes() == kept.tobytes() and err.value.state.base is None


def test_threads_share_a_graph_and_a_family():
    # each call builds its own coupling kernel and each run its own gradient
    # kernel, so threads coupling on one graph and integrating one family get
    # the results of one thread
    rng = np.random.default_rng(81)
    n, workers = 400, 3
    arcs = {(k, (k + 1) % n) for k in range(n)}
    arcs |= {(int(j), i) for i in range(n) for j in rng.choice(n, 12) if j != i}
    graph = WeightedDigraph.from_arcs(n, sorted(arcs))
    obj = ObjectiveSet([SquaredDistance(Ball(c, 1.0)) for c in rng.uniform(-1.0, 1.0, (n, 2))])
    starts = rng.uniform(-5.0, 5.0, (workers, n, 2))
    runs = [Scenario(obj, graph, x0, tf=0.1, step=0.01) for x0 in starts]
    expected = [(neighbor_info(graph, x0).tobytes(), integrate(s).states.tobytes())
                for x0, s in zip(starts, runs)]
    seen = [[] for _ in range(workers)]

    def work(b):
        for _ in range(20):
            seen[b].append((neighbor_info(graph, starts[b]).tobytes(),
                            integrate(runs[b]).states.tobytes()))

    threads = [threading.Thread(target=work, args=(b,)) for b in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for b in range(workers):
        assert len(seen[b]) == 20 and all(got == expected[b] for got in seen[b])


# --- observed order -----------------------------------------------------------

def test_observed_order_on_the_committed_configs():
    """Largest terminal-state differences between successive halvings of h
    from 0.04 to 0.0025, on the committed configs and on a generated point
    and box family (5 nodes, m = 2, the cycle with chords, tf = 2).
    Classical RK4 on a smooth flow divides them by 16; ``x - P(x)`` has a
    kink where a node crosses a ball's sphere or a box's face, so the ball
    and box families converge at a lower order."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = {}
    for name, tf in (("pair", 2.0), ("balls", 2.0), ("switching", 4.0)):
        base = load_config(configs / f"{name}.json").build_scenario()
        runs[name] = (base.objectives, base.topology, base.x0, tf, base.gain)
    rng = np.random.default_rng(5)
    centers, lower = rng.uniform(-2.0, 2.0, (5, 2)), rng.uniform(-2.0, 0.0, (5, 2))
    x0 = rng.uniform(-5.0, 5.0, (5, 2))
    for name, sets in (("points", [Point(c) for c in centers]),
                       ("boxes", [Box(lo, lo + 1.0) for lo in lower])):
        family = ObjectiveSet([SquaredDistance(s) for s in sets])
        runs[name] = (family, cycle_with_chords(5), x0, 2.0, 1.0)
    ratios = {}
    for name, (objectives, topology, start, tf, gain) in runs.items():
        ends = [integrate(Scenario(objectives, topology, start, tf=tf, gain=gain,
                                   step=0.04 / 2 ** k)).terminal_state
                for k in range(5)]
        diffs = [float(np.abs(a - b).max()) for a, b in zip(ends, ends[1:])]
        assert all(a > b for a, b in zip(diffs, diffs[1:])), (name, diffs)
        ratios[name] = [a / b for a, b in zip(diffs, diffs[1:])]
        print(f"{name}: differences {diffs}, ratios {[round(q, 2) for q in ratios[name]]}")
    # measured: pair 16.8, 16.4, 16.2; balls 4.9, 5.5, 2.1; switching 8.9, 2.1, 10.3;
    # points 16.7, 16.3, 16.2; boxes 6.5, 3.0, 1.9
    for name in ("pair", "points"):
        assert all(15.0 <= q <= 17.5 for q in ratios[name]), (name, ratios[name])


# --- divergence and validation -----------------------------------------------

def test_divergence_guard():
    with pytest.raises(DivergenceError) as err:
        integrate(_forced_pair())
    assert err.value.time == 0.12
    assert "diverged" in str(err.value)
    # the last finite state is the sample before the failing step
    assert np.isfinite(err.value.state).all()
    assert np.abs(err.value.state).max() <= DIVERGENCE_LIMIT
    assert err.value.node == 1
    assert "node 1 has |x| = 1.063e+08" in str(err.value)

    # without arcs the NaN stays at node 2 (on a cycle it reaches node 0 in one step)
    forcing = np.zeros((4, 2))
    forcing[2, 1] = np.nan
    scen = Scenario(ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], 0.5),
                    WeightedDigraph(4), np.ones((4, 2)), tf=1.0, disturbance=lambda t: forcing)
    with pytest.raises(DivergenceError) as err:
        integrate(scen)
    assert err.value.time == scen.step
    assert err.value.node == 2
    assert np.array_equal(err.value.state, scen.x0)
    assert "node 2 has a non-finite entry" in str(err.value)


# --- the divergence check per block of stored rows ---------------------------

class _Kick:
    """Forcing of ``value`` at ``node``'s last coordinate from the step ``step``
    on (stage times past a quarter step into it), zero before; it counts its
    calls, four per step."""

    def __init__(self, n, m, node, step, value, h=0.01):
        self.at = (step - 1) * h + 0.25 * h
        self.zero, self.kick = np.zeros((n, m)), np.zeros((n, m))
        self.kick[node, -1] = value
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.kick if t > self.at else self.zero


def _per_step_error(scenarios):
    """``(error, step)``: the :class:`DivergenceError` that a check of every
    new row as it is made raises, from the integrator's own field, and the
    step it fails in; ``(None, steps)`` if no row fails."""
    lead = scenarios[0]
    n, h = lead.n_nodes, lead.step
    fields = _fields(scenarios)
    x, step = np.concatenate([s.x0 for s in scenarios]), 0
    for stretch in zip(*(s.segments for s in scenarios)):
        a, b, _ = stretch[0]
        field = fields([g for _, _, g in stretch])
        n_sub = max(1, int(math.ceil((b - a) / h - 1e-9)))
        for k in range(n_sub):
            t_k = a + k * h
            t_next = b if k == n_sub - 1 else a + (k + 1) * h
            hk = t_next - t_k
            half = 0.5 * hk
            k1 = field(t_k, x)
            k2 = field(t_k + half, x + half * k1)
            k3 = field(t_k + half, x + half * k2)
            k4 = field(t_next, x + hk * k3)
            new = x + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step += 1
            if not np.abs(new).max() <= DIVERGENCE_LIMIT:
                # the first failing member in member order, on its own rows
                lo = np.argmax(~(np.abs(new).max(axis=1) <= DIVERGENCE_LIMIT)) // n * n
                return DivergenceError(t_next, new[lo:lo + n], x[lo:lo + n]), step
            x = new
    return None, step


def _kicked(kicks, topology=None):
    """One member of a 5-node ball family per ``(node, step, value)`` kick, 200 steps."""
    rng = np.random.default_rng(90)
    obj = ball_objectives(rng.uniform(-2.0, 2.0, (5, 2)), 0.5)
    return [Scenario(obj, topology or cycle_with_chords(5), rng.uniform(-5.0, 5.0, (5, 2)),
                     tf=2.0, disturbance=_Kick(5, 2, *kick)) for kick in kicks]


def _switching_kick():
    # the first stretch, [0, 0.3], ends with step 30, which the kick fails
    schedule = SwitchingSignal([(0.0, cycle_with_chords(5)), (0.3, WeightedDigraph(5))],
                               dwell=0.1, horizon=2.0)
    return _kicked([(2, 30, 1e12)], topology=schedule)


def _nan_at_node_2():
    # test_divergence_guard's run: without arcs the NaN stays at node 2
    return [Scenario(ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], 0.5),
                     WeightedDigraph(4), np.ones((4, 2)), tf=1.0,
                     disturbance=_Kick(4, 2, 2, 0, np.nan))]


# (members, failing step, steps the integrator runs, failing member)
_DIVERGENCES = {
    # an overflow to inf: the steps after it meet inf - inf and inf * 0
    "first-step": (lambda: _kicked([(3, 1, 1e308)]), 1, 64, 0),
    # squares that overflow in every step after it
    "mid-block": (lambda: _kicked([(1, 40, 1e200)]), 40, 64, 0),
    "block-end": (lambda: _kicked([(0, 64, 1e12)]), 64, 64, 0),
    # below -1e8, which only the lower bound of the check sees
    "block-start": (lambda: _kicked([(4, 65, -1e12)]), 65, 128, 0),
    "stretch-end": (_switching_kick, 30, 30, 0),
    "later-member-first": (lambda: _kicked([(1, 100, 1e12), (3, 70, 1e12)]), 70, 128, 1),
    "same-step": (lambda: _kicked([(4, 30, 1e12), (0, 30, 1e15)]), 30, 64, 0),
    "nan-at-node-2": (_nan_at_node_2, 1, 64, 0),
}


@pytest.mark.parametrize("case", list(_DIVERGENCES))
def test_divergence_block_check_matches_the_per_step_check(case):
    build, failing, ran, member = _DIVERGENCES[case]
    members = build()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as err:
            integrate_batch(members)
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)] == []
    # the steps after the failing one run to the end of its block or stretch
    assert DIVERGENCE_BLOCK == 64
    assert [s.disturbance.calls for s in members] == [4 * ran] * len(members)
    assert 0 <= ran - failing <= 64

    # the failing step's own overflow and inf - inf warn in a per-step check too
    with np.errstate(over="ignore", invalid="ignore"):
        ref, step = _per_step_error(build())
    assert step == failing
    assert err.value.time == ref.time and err.value.node == ref.node
    assert err.value.state.tobytes() == ref.state.tobytes()
    assert str(err.value) == str(ref)
    # and it is the failing member's own error
    with pytest.raises(DivergenceError) as own:
        integrate(build()[member])
    _assert_same_error(err.value, own.value)


@pytest.mark.parametrize("build, message", [
    (lambda: WeightedDigraph(2, weight_bounds=(0.0, 1.0)),
     "weight bounds must satisfy 0 < low <= high"),
    (lambda: WeightedDigraph(2, weight_bounds=(2.0, 1.0)),
     "weight bounds must satisfy 0 < low <= high"),
    (lambda: WeightedDigraph(1).lambda2(), "lambda2 is undefined on a single node"),
    (lambda: Trajectory(np.zeros((2, 1)), np.zeros((2, 1, 1))),
     r"times must be \(T,\) and states \(T, n_nodes, m\)"),
    (lambda: Trajectory(np.arange(2.0), np.zeros((2, 1))),
     r"times must be \(T,\) and states \(T, n_nodes, m\)"),
    (lambda: Trajectory(np.arange(3.0), np.zeros((2, 1, 1))),
     "times and states disagree on sample count"),
    (lambda: Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1, 1))),
     "times must be strictly increasing"),
], ids=["bounds-low", "bounds-order", "lambda2-one-node", "times-2d", "states-2d",
        "sample-count", "times-order"])
def test_graph_and_trajectory_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_stability_certificate_refuses_the_step_before_integrating():
    # pair: d_i = 1 and Lip_i = 1, so rho = 2K + 1; at h = 0.01 gain 135 has
    # h*rho = 2.71 and passes, gain 140 has 2.81 and gain 1000 has 20.01
    assert integrate(_two_node_scenario(gain=135.0, tf=0.1)).stats["h_rho"] == 2.71
    calls = []

    def forcing(t):
        calls.append(t)
        return np.zeros((2, 1))

    def member(gain):
        return Scenario(two_node_quadratics(), two_node_graph(), [0.0, 3.0], tf=5.0,
                        gain=gain, disturbance=forcing)

    # the first member in member order that fails the certificate names the error
    for gains, message in (
            ((1.0, 1000.0, 140.0), "at gain 1000.0: rho = max_i(2*K*d_i + Lip_i) = 2001 and "
                                   "h*rho = 20.01 > 2.785; the largest step that passes is "
                                   "0.0013918040979510246"),
            ((1.0, 140.0, 1000.0), "at gain 140.0: rho = max_i(2*K*d_i + Lip_i) = 281 and "
                                   "h*rho = 2.81 > 2.785; the largest step that passes is "
                                   "0.009911032028469751")):
        with pytest.raises(StepStabilityError) as err:
            integrate_batch([member(k) for k in gains])
        assert str(err.value) == "step 0.01 fails RK4's stability certificate " + message
        # an ArithmeticError, which the CLI maps to exit 2 (a ValueError is a config error)
        assert isinstance(err.value, ArithmeticError) and not isinstance(err.value, ValueError)
        # the largest step that passes does, and the next float up does not
        largest = float(message.rsplit(" ", 1)[1])
        integrate(_two_node_scenario(gain=gains[1], tf=0.01, step=largest))
        with pytest.raises(StepStabilityError):
            integrate(_two_node_scenario(gain=gains[1], tf=0.01,
                                         step=np.nextafter(largest, 1.0)))
    assert calls == []  # refused before any step

    # h*rho is the largest over the segments: rho is 3 on the unit pair and 11 on
    # the pair of weight 5
    heavy = WeightedDigraph(2, {(0, 1): 5.0, (1, 0): 5.0})
    schedule = SwitchingSignal([(0.0, two_node_graph()), (0.5, heavy)], dwell=0.5, horizon=1.0)
    scen = Scenario(two_node_quadratics(), schedule, [0.0, 3.0], tf=1.0)
    assert integrate(scen).stats["h_rho"] == 0.01 * 11.0
    with pytest.raises(StepStabilityError, match="at gain 30.0: rho .* = 301 "):
        integrate(Scenario(two_node_quadratics(), schedule, [0.0, 3.0], tf=1.0,
                           gain=30.0))
    # with no arcs and flat objectives rho is 0, and every step passes
    flat = ObjectiveSet([Quadratic([[0.0]], [0.0])] * 2)
    still = integrate(Scenario(flat, WeightedDigraph(2), [1.0, 2.0], tf=20.0, step=10.0))
    assert still.stats["h_rho"] == 0.0


@pytest.mark.parametrize("gains", [(1.0,), (10.0, 1.0)])
def test_divergence_error_owns_a_copy_of_the_last_finite_sample(gains):
    # the forced pair at gain 1 leaves the limit in its 12th step, before gain
    # 10 does (t=0.17); a batch raises the diverging member's own error
    with pytest.raises(DivergenceError) as err:
        integrate_batch([_forced_pair(gain=k) for k in gains])
    assert err.value.time == 0.12 and err.value.node == 1
    assert str(err.value) == ("state diverged at t=0.12: node 1 has |x| = 1.063e+08 "
                              "beyond 1e+08")
    last = integrate(_forced_pair(tf=0.11)).terminal_state
    assert err.value.state.tobytes() == last.tobytes()
    assert [v.hex() for v in err.value.state.ravel().tolist()] == [
        "0x1.3e6c30369f175p+22", "0x1.773e14b363958p+26"]
    assert err.value.state.base is None


@pytest.mark.parametrize("gains", [(1.0,), (10.0, 1.0)])
def test_caught_divergence_error_holds_no_integrator_buffer(gains):
    # 10**6 steps preallocate 8 MB of times alone; the error's traceback keeps
    # the integrator's frame, which must not keep its buffers.  The member
    # that diverges first comes last in the batch.
    members = [_forced_pair(gain=k, tf=1e4) for k in gains]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            integrate_batch(members)
        except DivergenceError as err:
            caught = err
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert caught.time == 0.12
    assert held < 2**20


@pytest.mark.parametrize("count", [1, 2])
def test_integration_holds_one_trajectory_buffer(count):
    # 5001 samples of 5 nodes: the traced peak is the (T, B * N, m) buffer and
    # the times, not one array per sample and then their stack
    rng = np.random.default_rng(12)
    obj = ball_objectives(rng.uniform(-2.0, 2.0, (5, 2)), 0.5)
    members = [Scenario(obj, cycle_with_chords(5), rng.uniform(-5.0, 5.0, (5, 2)), tf=50.0)
               for _ in range(count)]
    run = (lambda: [integrate(members[0])]) if count == 1 else (lambda: integrate_batch(members))
    trajs, peak = traced_peak(run)
    assert trajs[0].times.shape == (5001,)
    buffer = sum(traj.states.nbytes for traj in trajs)
    assert peak <= buffer + 2 * trajs[0].times.nbytes + (512 << 10)


def test_scenario_fingerprints_are_pinned():
    """The law entry of ``describe()`` is ``{"kind": "gain-law", "gain": gain}``
    with the gain as given, so an int gain keeps its own fingerprint."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    pair = load_config(configs / "pair.json")
    assert pair.build_scenario().fingerprint == (
        "73380a5abb3ab09b16eb3eee1e0a9e458bf8847c90d558cdda265b3c3e26307c")
    assert pair.build_scenario(gain=10.0).fingerprint == (
        "56f606231c1b25ab86ccb3f1fe32deb94cb84851b356eaae7893a4c2f5dc6748")
    assert load_config(configs / "balls.json").build_scenario().fingerprint == (
        "f4520c3be00d64d1d6f4eeabc139b90f4e1a32f3dbcf3faf7b51e1e717e36f45")
    scen = Scenario(pair.objectives, pair.topology, [[0.0], [3.0]], tf=25.0, gain=10)
    assert scen.fingerprint == "f087b6af209a9356b4a0971e6066e71913b0caa8907ccfff20079100f2f13479"


def test_scenario_validation():
    obj = two_node_quadratics()
    g = two_node_graph()
    with pytest.raises(TypeError):
        Scenario([type("X", (), {})()], g, np.zeros((2, 1)), tf=1.0)
    with pytest.raises(TypeError):
        Scenario(obj, "graph", np.zeros((2, 1)), tf=1.0)
    with pytest.raises(TypeError):
        Scenario(obj, g, np.zeros((2, 1)), tf=1.0, gain=lambda n, gr: n - gr)
    with pytest.raises(ValueError, match="nodes"):
        Scenario(obj, WeightedDigraph.directed_cycle(3), np.zeros((2, 1)), tf=1.0)
    with pytest.raises(ValueError):
        Scenario(obj, g, np.zeros((3, 1)), tf=1.0)
    with pytest.raises(ValueError, match="finite"):
        Scenario(obj, g, np.array([[np.nan], [0.0]]), tf=1.0)
    with pytest.raises(ValueError):
        Scenario(obj, g, np.zeros((2, 1)), tf=0.0, t0=0.0)
    with pytest.raises(ValueError):
        Scenario(obj, g, np.zeros((2, 1)), tf=1.0, step=0.0)


def test_scenario_accepts_flat_x0():
    scen = Scenario(two_node_quadratics(), two_node_graph(), [0.0, 3.0], tf=1.0)
    assert scen.x0.shape == (2, 1)
    assert not scen.x0.flags.writeable


def test_scenario_respects_schedule_horizon():
    g = WeightedDigraph.directed_cycle(3)
    sig = SwitchingSignal([(0.0, g)], dwell=0.5, horizon=2.0)
    obj = ball_objectives([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], slack=0.5)
    with pytest.raises(ValueError, match="window end 3.0 is outside the schedule horizon 2.0"):
        Scenario(obj, sig, np.zeros((3, 2)), tf=3.0)
    with pytest.raises(ValueError, match="time -1.0 precedes the schedule start 0.0"):
        Scenario(obj, sig, np.zeros((3, 2)), tf=1.0, t0=-1.0)
    # the scenario keeps the stretches its topology gives for [t0, tf]
    periodic = alternating_signal()
    for topology, t0, tf in ((sig, 0.25, 2.0), (periodic, 0.25, 3.6)):
        scen = Scenario(obj, topology, np.zeros((3, 2)), tf=tf, t0=t0)
        assert scen.segments == topology.segments(t0, tf)
    assert len(scen.segments) == 8
    scen = Scenario(obj, g, np.zeros((3, 2)), tf=1.5, t0=0.5)
    assert scen.segments == [(0.5, 1.5, g)]


def test_scenario_fingerprint_tracks_content():
    a = _two_node_scenario(tf=1.0)
    b = _two_node_scenario(tf=1.0)
    c = _two_node_scenario(tf=1.0, x0=(0.5, 3.0))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


# --- disturbances ------------------------------------------------------------

def test_exponential_disturbance_values():
    d = ExponentialDecayDisturbance([[1.0, 0.0], [0.0, -2.0]], rate=0.5)
    assert np.array_equal(d(0.0), [[1.0, 0.0], [0.0, -2.0]])
    assert np.allclose(d(2.0), np.exp(-1.0) * np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(ValueError):
        ExponentialDecayDisturbance([1.0, 0.0])
    with pytest.raises(ValueError):
        ExponentialDecayDisturbance([[1.0]], rate=0.0)


def test_disturbance_enters_rhs_and_describe():
    d = ExponentialDecayDisturbance([[1.0], [0.0]], rate=1.0)
    scen = Scenario(
        two_node_quadratics(), two_node_graph(), [1.0, 2.0], tf=1.0, disturbance=d
    )
    v = rhs(scen, 0.0, scen.x0)
    assert np.array_equal(v, [[1.0], [0.0]])  # equilibrium plus the forcing
    assert scen.describe()["disturbance"]["kind"] == "exponential"
    custom = Scenario(
        two_node_quadratics(), two_node_graph(), [1.0, 2.0], tf=1.0,
        disturbance=lambda t: np.zeros((2, 1)),
    )
    assert custom.describe()["disturbance"] == {"kind": "custom"}


# --- trajectory container ----------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2, 1)))
    traj = Trajectory(np.array([0.0, 1.0]), np.arange(4.0).reshape(2, 2, 1))
    assert np.array_equal(traj.terminal_state, [[2.0], [3.0]])
    assert traj.n_nodes == 2 and traj.m == 1
