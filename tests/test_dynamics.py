from __future__ import annotations

import math
import time
import tracemalloc
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
from consensusflow.dynamics import DIVERGENCE_LIMIT, StepStabilityError, _union

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


def test_coupling_kernel_is_built_once_per_graph_and_dimension():
    g = cycle_with_chords()
    assert g.coupling(2) is g.coupling(2)
    assert g.coupling(3) is not g.coupling(2)
    # an equal graph is another object with its own kernel, computing the same
    twin = cycle_with_chords()
    assert twin == g and twin.coupling(2) is not g.coupling(2)
    x = np.arange(10.0).reshape(5, 2)
    assert twin.coupling(2)(x).tobytes() == neighbor_info(g, x).tobytes()


def test_batch_union_couples_each_member_on_its_own_graph():
    g = cycle_with_chords()
    assert _union([g], 2) is g.coupling(2)  # one graph keeps its memoised kernel
    weighted = WeightedDigraph(5, {(j, (j + s) % 5): 0.5 + j + 0.25 * s
                                   for j in range(5) for s in (1, 3)})
    graphs = [g, WeightedDigraph(5), weighted, g]
    x = np.random.default_rng(33).normal(size=(20, 2))
    n = _union(graphs, 2)(x)
    for b, graph in enumerate(graphs):
        rows = slice(5 * b, 5 * b + 5)
        assert n[rows].tobytes() == graph.coupling(2)(x[rows]).tobytes()


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
                          "h_rho": 0.03}


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
    return ObjectiveSet(comps)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "quadratic", "mixed", "box", "point", "sum"])
def test_integrate_matches_out_of_place_reference(kind, m):
    rng = np.random.default_rng(40 + 3 * m + len(kind))
    n = 5
    obj = _family(kind, rng, n, m)
    x0 = rng.uniform(-5.0, 5.0, (n, m))
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


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "quadratic", "mixed", "box", "point", "sum"])
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
                members = [Scenario(obj, topology, rng.uniform(-5.0, 5.0, (n, m)), tf=0.6,
                                    step=0.03, gain=k, disturbance=dist)
                           for k in gains]
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
