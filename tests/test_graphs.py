from __future__ import annotations

import math

import numpy as np
import pytest

from consensusflow import SwitchingSignal, WeightedDigraph

from conftest import alternating_signal

NTRIALS = 200


def _closure(graph):
    """Reachability oracle via boolean matrix powers, independent of BFS:
    ``reach[j, i]`` holds when ``j`` reaches ``i``."""
    n = graph.n_nodes
    reach = np.eye(n, dtype=bool)
    for (j, i) in graph.arcs:
        reach[j, i] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def _closure_strongly_connected(graph):
    return bool(_closure(graph).all())


def _random_graph(rng, bidirectional=False):
    n = rng.integers(2, 8)
    weights = {}
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if rng.random() < 0.35:
                w = float(rng.uniform(0.1, 5.0))
                weights[(j, i)] = w
                if bidirectional:
                    weights[(i, j)] = w
    if not weights:
        weights = {(0, 1): 1.0}
        if bidirectional:
            weights[(1, 0)] = 1.0
    return WeightedDigraph(n, weights)


def test_laplacian_two_node_complete():
    g = WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0})
    assert np.array_equal(g.laplacian(), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_three_node_path():
    g = WeightedDigraph.bidirectional_path(3)
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(g.laplacian(), expected)


def test_adjacency_orientation():
    # arc (0, 1) enters node 1, so the weight lands in row 1, column 0
    g = WeightedDigraph(3, {(0, 1): 2.0})
    a = g.adjacency()
    assert a[1, 0] == 2.0
    assert a.sum() == 2.0


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(NTRIALS):
        g = _random_graph(rng)
        rows = g.laplacian().sum(axis=1)
        assert np.abs(rows).max() <= 1e-12


def test_bidirectional_laplacian_symmetric_psd():
    rng = np.random.default_rng(2)
    for _ in range(NTRIALS):
        g = _random_graph(rng, bidirectional=True)
        lap = g.laplacian()
        assert np.array_equal(lap, lap.T)
        assert np.linalg.eigvalsh(lap)[0] >= -1e-10


def test_strong_connectivity_matches_closure_oracle():
    rng = np.random.default_rng(3)
    for _ in range(NTRIALS):
        g = _random_graph(rng)
        assert g.is_strongly_connected() == _closure_strongly_connected(g)


def test_single_node_is_strongly_connected():
    assert WeightedDigraph(1).is_strongly_connected()


def test_bidirectional_flags():
    assert not WeightedDigraph.directed_cycle(3).is_bidirectional()
    assert WeightedDigraph.bidirectional_path(4).is_bidirectional()
    # symmetric arcs, asymmetric weights
    g = WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 2.0})
    assert g.is_bidirectional()
    assert not g.has_symmetric_weights()


def test_spanning_tree_detection():
    chain = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2)])
    assert chain.has_spanning_tree()
    assert not chain.is_strongly_connected()
    no_root = WeightedDigraph.from_arcs(3, [(0, 1), (2, 1)])
    assert not no_root.has_spanning_tree()


def test_spanning_tree_matches_closure_oracle():
    rng = np.random.default_rng(4)
    for _ in range(NTRIALS):
        g = _random_graph(rng)
        assert g.has_spanning_tree() == bool(_closure(g).all(axis=1).any())


def test_spanning_tree_of_a_long_chain_is_one_pass(monkeypatch):
    # k+1 -> k: only the last node is a root.  The walks share one seen record,
    # so each node's successors are looked up once, and once more by the check
    # from the last start: 2N lookups, where a walk per candidate root takes N^2/2
    n = 2000
    chain = WeightedDigraph.from_arcs(n, [(k + 1, k) for k in range(n - 1)])
    lookups = []

    class Counting(dict):
        def get(self, node, default=None):
            lookups.append(node)
            return super().get(node, default)

    successors = WeightedDigraph._successors
    monkeypatch.setattr(WeightedDigraph, "_successors",
                        lambda self, *args: Counting(successors(self, *args)))
    assert chain.has_spanning_tree()
    assert len(lookups) == 2 * n
    broken = WeightedDigraph.from_arcs(n, [(k + 1, k) for k in range(n - 1) if k != n // 2])
    assert not broken.has_spanning_tree()


def test_lambda2_frozen_values():
    # spectra known in closed form: {0,2}, {0,1,3}, {0,3,3}
    assert abs(WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}).lambda2() - 2.0) <= 1e-10
    assert abs(WeightedDigraph.bidirectional_path(3).lambda2() - 1.0) <= 1e-10
    assert abs(WeightedDigraph.complete(3).lambda2() - 3.0) <= 1e-10


def test_lambda2_preconditions():
    with pytest.raises(ValueError):
        WeightedDigraph.directed_cycle(3).lambda2()
    with pytest.raises(ValueError):
        WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 2.0}).lambda2()
    disconnected = WeightedDigraph(4, {(0, 1): 1.0, (1, 0): 1.0,
                                       (2, 3): 1.0, (3, 2): 1.0})
    with pytest.raises(ValueError):
        disconnected.lambda2()


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        WeightedDigraph(2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        WeightedDigraph(2, {(0, 2): 1.0})
    with pytest.raises(ValueError, match="positive"):
        WeightedDigraph(2, {(0, 1): 0.0})
    with pytest.raises(ValueError, match="bounds"):
        WeightedDigraph(2, {(0, 1): 5.0}, weight_bounds=(0.5, 2.0))
    with pytest.raises(ValueError):
        WeightedDigraph(0)


def test_switching_schedule_validation():
    g = WeightedDigraph.directed_cycle(3)
    with pytest.raises(ValueError, match="dwell"):
        SwitchingSignal([(0.0, g), (0.3, g)], dwell=0.5, period=1.0)
    with pytest.raises(ValueError):
        SwitchingSignal([(0.0, g)], dwell=0.5)  # neither horizon nor period
    with pytest.raises(ValueError):
        SwitchingSignal([(0.0, g)], dwell=0.5, horizon=2.0, period=2.0)
    with pytest.raises(ValueError):
        SwitchingSignal([(0.0, g), (0.6, WeightedDigraph.directed_cycle(4))],
                        dwell=0.5, period=2.0)
    # wrap-around gap shorter than the dwell time
    with pytest.raises(ValueError, match="dwell"):
        SwitchingSignal([(0.0, g), (0.8, g)], dwell=0.5, period=1.0)


_G3 = WeightedDigraph.directed_cycle(3)


@pytest.mark.parametrize("build, message", [
    (lambda: SwitchingSignal([], 0.5, period=1.0), "at least one interval is required"),
    (lambda: SwitchingSignal([(0.5, _G3), (0.0, _G3)], 0.1, period=1.0),
     "interval starts must be strictly increasing"),
    (lambda: SwitchingSignal([(0.0, _G3), (0.6, WeightedDigraph.directed_cycle(4))], 0.5,
                             period=2.0), "all graphs in a schedule must share the node count"),
    (lambda: SwitchingSignal([(0.0, _G3)], 0.0, period=1.0), "dwell time must be positive"),
    (lambda: SwitchingSignal([(0.0, _G3)], 0.5), "exactly one of horizon or period must be given"),
    (lambda: SwitchingSignal([(0.0, _G3)], 0.5, period=0.0), "period must be positive"),
    (lambda: SwitchingSignal([(0.0, _G3), (1.0, _G3)], 0.5, period=1.0),
     "intervals must fit inside one period"),
    (lambda: SwitchingSignal([(0.0, _G3), (1.0, _G3)], 0.5, horizon=1.0),
     "horizon must exceed the last interval start"),
    (lambda: SwitchingSignal([(0.0, _G3)], 0.5, period=1.0).check_ujsc(0.0),
     "window must be positive"),
])
def test_switching_signal_errors_name_their_cause(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_graph_at_periodic_folding():
    sig = alternating_signal()
    g1 = sig.graph_at(0.0)
    g2 = sig.graph_at(0.5)
    assert g1 != g2
    assert sig.graph_at(0.49) == g1
    assert sig.graph_at(1.0) == g1
    assert sig.graph_at(7.25) == g1
    assert sig.graph_at(7.75) == g2


def test_graph_at_range_errors():
    g = WeightedDigraph.directed_cycle(3)
    sig = SwitchingSignal([(0.0, g)], dwell=0.5, horizon=2.0)
    with pytest.raises(ValueError):
        sig.graph_at(-0.1)
    with pytest.raises(ValueError):
        sig.graph_at(2.0)


def test_switch_times_enumeration():
    sig = alternating_signal()
    g1, g2 = sig.graph_at(0.0), sig.graph_at(0.5)
    assert sig.segments(0.0, 2.0) == [(0.0, 0.5, g1), (0.5, 1.0, g2),
                                      (1.0, 1.5, g1), (1.5, 2.0, g2)]
    assert sig.segments(0.25, 0.75) == [(0.25, 0.5, g1), (0.5, 0.75, g2)]
    assert sig.segments(0.5, 0.5) == []
    # a fixed graph is a one-stretch schedule
    g = WeightedDigraph.directed_cycle(3)
    assert g.segments(0.25, 0.75) == [(0.25, 0.75, g)]
    assert g.segments(1.0, 1.0) == []
    assert g.graph_at(0.3) is g
    # instants a few ulp from the window end or start are that end or start
    below, above = 1.0 - 2.0 * math.ulp(1.0), 1.0 + 2.0 * math.ulp(1.0)
    assert sig.segments(0.5, above) == [(0.5, above, g2)]
    assert sig.segments(below, 1.5) == [(below, 1.5, g1)]
    assert sig.graph_at(below) is g1
    # 9 * 0.3 + 0.3 is 2.9999999999999996: no 4e-16 stretch before tf = 3
    graphs = [WeightedDigraph.from_arcs(3, [(0, 1)]), WeightedDigraph.from_arcs(3, [(1, 2)]),
              WeightedDigraph.from_arcs(3, [(2, 0)])]
    sig = SwitchingSignal(list(zip((0.0, 0.1, 0.2), graphs)), dwell=0.1, period=0.3)
    segs = sig.segments(0.0, 3.0)
    assert len(segs) == 30
    assert segs[-1][1] == 3.0 and segs[-1][1] - segs[-1][0] > 0.09
    assert [g for _, _, g in segs] == graphs * 10


def _random_schedule(rng, periodic):
    """Schedule on 4 nodes with a non-zero start and starts on a 0.05 grid.

    Returns the signal and the end of its first period (or its horizon).
    """
    base = float(rng.choice([0.1, 0.3, 1.7]))
    span = float(rng.choice([0.3, 0.7, 0.8, 1.1]))
    k = int(rng.integers(1, 4))
    cuts = sorted(rng.choice(np.arange(1, round(span / 0.05)), k - 1, replace=False))
    starts = [base] + [round(base + 0.05 * c, 2) for c in cuts]
    arcs = [(j, i) for j in range(4) for i in range(4) if j != i]
    items = [(t, WeightedDigraph(4, {a: float(rng.integers(1, 3))
                                     for a in arcs if rng.random() < 0.35}))
             for t in starts]
    end = round(base + span, 2)
    if periodic:
        return SwitchingSignal(items, dwell=0.025, period=span), end
    return SwitchingSignal(items, dwell=0.025, horizon=end), end


@pytest.mark.parametrize("periodic", [True, False])
def test_segments_agree_with_graph_at(periodic):
    rng = np.random.default_rng(11 if periodic else 12)
    for _ in range(40):
        sig, end = _random_schedule(rng, periodic)
        base = sig.start_time
        if periodic:
            t0 = float(rng.uniform(base, base + 3.0))
            tf = t0 + float(rng.uniform(0.01, 6.0))
        else:
            t0, tf = sorted(rng.uniform(base, end, 2))
        segs = sig.segments(t0, tf)
        assert segs[0][0] == t0 and segs[-1][1] == tf
        assert all(s[1] == n[0] for s, n in zip(segs, segs[1:]))
        for a, b, g in segs:
            assert a < b
            assert g is sig.graph_at(a)
            assert g is sig.graph_at((a + b) / 2)


@pytest.mark.parametrize("periodic", [True, False])
def test_ujsc_matches_dense_window_placements(periodic):
    rng = np.random.default_rng(13 if periodic else 14)
    for _ in range(40):
        sig, end = _random_schedule(rng, periodic)
        base = sig.start_time
        last = base + 3.0 * sig.period if periodic else end
        grid = [a for a, _, _ in sig.segments(base, last)]
        grid += list(np.linspace(base, last, 97, endpoint=False))
        for w in (sig.period if periodic else end - base, *rng.uniform(0.05, 2.5, 3)):
            w = float(w)
            placements = [t for t in grid if periodic or t + w <= end]
            if placements:
                expected = all(sig.joint_graph(t, t + w).is_strongly_connected()
                               for t in placements)
            else:
                expected = sig.joint_graph(base, end).is_strongly_connected()
            assert sig.check_ujsc(w) is expected


def test_joint_graph_matches_single_interval():
    sig = alternating_signal()
    assert sig.joint_graph(0.0, 0.5) == sig.graph_at(0.0)
    assert sig.joint_graph(0.5, 1.0) == sig.graph_at(0.5)


def test_joint_graph_union_over_period():
    sig = alternating_signal()
    union = sig.joint_graph(0.0, 1.0)
    assert union.arcs == frozenset({(0, 1), (1, 2), (2, 0)})
    assert union.is_strongly_connected()
    # starts 0.1 / 0.4, period 0.8: the window begins exactly at the schedule start
    g1, g2 = sig.graph_at(0.0), sig.graph_at(0.5)
    shifted = SwitchingSignal([(0.1, g1), (0.4, g2)], dwell=0.3, period=0.8)
    assert shifted.joint_graph(0.1, 0.9).arcs == union.arcs
    assert shifted.check_ujsc(0.8) is True


def test_joint_graph_latest_weight_wins():
    ga = WeightedDigraph(2, {(0, 1): 1.0})
    gb = WeightedDigraph(2, {(0, 1): 3.0})
    sig = SwitchingSignal([(0.0, ga), (1.0, gb)], dwell=1.0, horizon=2.0)
    assert sig.joint_graph(0.0, 2.0).weights[(0, 1)] == 3.0
    assert sig.joint_graph(0.0, 1.0).weights[(0, 1)] == 1.0


def test_joint_graph_monotone_in_window():
    rng = np.random.default_rng(4)
    sig = alternating_signal()
    for _ in range(50):
        t1 = float(rng.uniform(0.0, 3.0))
        d1 = float(rng.uniform(0.1, 1.5))
        d2 = d1 + float(rng.uniform(0.1, 1.5))
        assert sig.joint_graph(t1, t1 + d1).arcs <= sig.joint_graph(t1, t1 + d2).arcs


def test_joint_graph_range_errors():
    g = WeightedDigraph.directed_cycle(3)
    sig = SwitchingSignal([(0.0, g)], dwell=0.5, horizon=2.0)
    with pytest.raises(ValueError):
        sig.joint_graph(1.0, 2.5)
    with pytest.raises(ValueError):
        sig.joint_graph(1.0, 1.0)


def _sampled_ujsc(sig, window, starts):
    """Dense-sampling oracle: union arcs gathered at fine time steps."""
    ok = True
    for t in starts:
        arcs = set()
        for tau in np.arange(t, t + window, 0.01):
            arcs |= set(sig.graph_at(float(tau)).arcs)
        probe = WeightedDigraph(sig.n_nodes, {a: 1.0 for a in arcs})
        ok = ok and probe.is_strongly_connected()
    return ok


def test_ujsc_alternating_signal():
    sig = alternating_signal()
    starts = np.arange(0.0, 1.0, 0.05)
    assert sig.check_ujsc(1.0) is True
    assert _sampled_ujsc(sig, 1.0, starts) is True
    # a window of 0.4 fits inside a single phase and sees only one graph
    assert sig.check_ujsc(0.4) is False
    assert _sampled_ujsc(sig, 0.4, starts) is False


def test_ujsc_window_shorter_than_an_ulp_at_a_start():
    # 0.5 + 1e-17 == 0.5: the window still holds the graph in force at 0.5
    cycles = SwitchingSignal([(0.0, _G3), (0.5, _G3)], dwell=0.5, period=1.0)
    assert cycles.check_ujsc(1e-17) is cycles.check_ujsc(1e-3) is True
    sig = alternating_signal()
    assert sig.check_ujsc(1e-17) is sig.check_ujsc(1e-3) is False


def test_ujsc_constant_connected_signal():
    g = WeightedDigraph.directed_cycle(4)
    sig = SwitchingSignal([(0.0, g)], dwell=0.5, horizon=3.0)
    for window in (0.1, 1.0, 10.0):
        assert sig.check_ujsc(window) is True


def test_ujsc_monotone_in_window():
    rng = np.random.default_rng(5)
    graphs = [
        WeightedDigraph.from_arcs(4, [(0, 1), (1, 2)]),
        WeightedDigraph.from_arcs(4, [(2, 3), (3, 0)]),
        WeightedDigraph.from_arcs(4, [(1, 0), (2, 1)]),
        WeightedDigraph.directed_cycle(4),
    ]
    for _ in range(30):
        k = int(rng.integers(1, 4))
        chosen = [graphs[int(rng.integers(0, len(graphs)))] for _ in range(k)]
        sig = SwitchingSignal([(0.5 * i, g) for i, g in enumerate(chosen)],
                              dwell=0.5, period=0.5 * k)
        results = [sig.check_ujsc(w) for w in (0.25, 0.5, 1.0, 2.0, 4.0)]
        # once true, must stay true for every longer window
        first = results.index(True) if True in results else len(results)
        assert all(results[first:])


def test_describe_round_trip_fields():
    sig = alternating_signal()
    d = sig.describe()
    assert d["period"] == 1.0 and d["dwell"] == 0.5
    assert len(d["intervals"]) == 2
    g = WeightedDigraph(2, {(0, 1): 2.0}, weight_bounds=(1.0, 3.0))
    gd = g.describe()
    assert gd["arcs"] == [[0, 1, 2.0]] and gd["weight_bounds"] == [1.0, 3.0]
