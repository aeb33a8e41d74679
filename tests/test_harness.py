from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from consensusflow import (
    Ball,
    ConfigError,
    DEFAULT_TOLERANCES,
    DivergenceError,
    ObjectiveSet,
    Point,
    Quadratic,
    RunReport,
    ScenarioConfig,
    Scenario,
    SquaredDistance,
    Sum,
    Trajectory,
    WeightedDigraph,
    global_min,
    integrate,
    load_config,
    lyapunov_trace,
    optimality_gap,
    read_trace,
    run,
    sweep_k,
    write_trace,
)
from consensusflow import harness
from consensusflow.cli import main
from consensusflow.harness import _g17, _gain_plan, _integrate
from consensusflow.objectives import ConvexSet

from conftest import traced_peak

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def ball_dicts():
    return [
        {"kind": "sqdist", "set": {"kind": "ball", "center": [1.0, 0.0], "radius": 1.5}},
        {"kind": "sqdist", "set": {"kind": "ball", "center": [0.0, 1.0], "radius": 1.5}},
        {"kind": "sqdist", "set": {"kind": "ball", "center": [-1.0, 0.0], "radius": 1.5}},
    ]


def ball_config(tf=40.0, **extra):
    cfg = {
        "name": "balls",
        "m": 2,
        "nodes": 3,
        "objectives": ball_dicts(),
        "topology": {
            "kind": "fixed",
            "arcs": [[0, 1], [1, 2], [2, 0], [1, 0], [2, 1], [0, 2]],
        },
        "integrator": {"tf": tf},
        "seed": 7,
    }
    cfg.update(extra)
    return cfg


def quad_config(tf=25.0, **extra):
    cfg = {
        "name": "pair",
        "m": 1,
        "nodes": 2,
        "objectives": [
            {"kind": "quadratic", "matrix": [[1.0]], "center": [0.0]},
            {"kind": "quadratic", "matrix": [[1.0]], "center": [3.0]},
        ],
        "topology": {"kind": "fixed", "arcs": [[0, 1], [1, 0]]},
        "law": {"kind": "jstar"},
        "integrator": {"tf": tf},
        "x0": [[0.0], [3.0]],
    }
    cfg.update(extra)
    return cfg


# node 1's forcing of 1e9 takes the pair past the divergence limit at t=0.12 at
# gain 1, a step the stability certificate passes (h*rho = 0.03)
FORCING = {"kind": "exponential", "vectors": [[0.0], [1e9]], "rate": 0.1}


def switching_config(tf=80.0, **extra):
    cfg = {
        "name": "alt",
        "m": 2,
        "nodes": 3,
        "objectives": ball_dicts(),
        "topology": {
            "kind": "switching",
            "dwell": 0.5,
            "period": 1.0,
            "intervals": [
                {"start": 0.0, "arcs": [[0, 1], [1, 2]]},
                {"start": 0.5, "arcs": [[2, 0]]},
            ],
        },
        "integrator": {"tf": tf},
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def _write(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- config parsing ----------------------------------------------------------

def test_minimal_config_defaults():
    cfg = ScenarioConfig.from_dict(quad_config())
    assert cfg.name == "pair"
    assert cfg.t0 == 0.0 and cfg.tf == 25.0 and cfg.step == 0.01
    assert cfg.seed == 0
    assert cfg.gain == 1.0
    assert cfg.tolerances == DEFAULT_TOLERANCES


def test_config_name_defaults_to_file_stem(tmp_path):
    cfg_dict = quad_config()
    del cfg_dict["name"]
    cfg = load_config(_write(tmp_path, cfg_dict, "myscenario.json"))
    assert cfg.name == "myscenario"


def test_unknown_keys_are_rejected_with_paths():
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        ScenarioConfig.from_dict(quad_config(frobnicate=1))
    bad = quad_config()
    bad["objectives"][0]["typo"] = 1
    with pytest.raises(ConfigError, match=r"objectives\[0\]"):
        ScenarioConfig.from_dict(bad)
    bad2 = quad_config()
    bad2["topology"]["flavor"] = "x"
    with pytest.raises(ConfigError, match="topology"):
        ScenarioConfig.from_dict(bad2)


def test_weight_positivity_error_message():
    bad = quad_config()
    bad["topology"]["weights"] = [1.0, 0.0]
    with pytest.raises(ConfigError,
                       match=r"^topology: arc \(1, 0\): weights must be positive, got 0.0$"):
        ScenarioConfig.from_dict(bad)


def test_weight_and_weights_are_exclusive():
    bad = quad_config()
    bad["topology"]["weights"] = [1.0, 1.0]
    bad["topology"]["weight"] = 1.0
    with pytest.raises(ConfigError, match="not both"):
        ScenarioConfig.from_dict(bad)
    # a repeated [from, to] pair must not silently keep only its last weight
    bad = quad_config()
    bad["topology"]["arcs"] = [[0, 1], [1, 0], [0, 1]]
    bad["topology"]["weights"] = [1.0, 1.0, 5.0]
    with pytest.raises(ConfigError, match=r"topology\.arcs\[2\]: duplicate arc \[0, 1\]"):
        ScenarioConfig.from_dict(bad)


def test_switching_dwell_error_surfaces():
    bad = switching_config()
    bad["topology"]["intervals"][1]["start"] = 0.9
    with pytest.raises(ConfigError, match="dwell"):
        ScenarioConfig.from_dict(bad)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,\n  "nodes": }')
    with pytest.raises(ConfigError, match="invalid JSON at line 2"):
        load_config(str(path))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/no/such/file.json")


def test_structural_count_checks():
    bad = quad_config()
    bad["objectives"] = bad["objectives"][:1]
    with pytest.raises(ConfigError, match="expected 2 objectives"):
        ScenarioConfig.from_dict(bad)
    bad = quad_config()
    bad["x0"] = [[0.0]]
    with pytest.raises(ConfigError, match="expected 2 initial states"):
        ScenarioConfig.from_dict(bad)
    bad = quad_config()
    bad["x0"] = [[0.0, 1.0], [3.0, 0.0]]
    with pytest.raises(ConfigError, match="expected 1 entries"):
        ScenarioConfig.from_dict(bad)
    bad = quad_config()
    bad["objectives"][0]["matrix"] = [[1.0, 2.0]]
    with pytest.raises(ConfigError, match="entries"):
        ScenarioConfig.from_dict(bad)
    # box bounds take the number checks of every other number, but may be infinite
    box = {"kind": "box", "lower": [-1.0, -np.inf], "upper": [np.inf, 1.5]}
    cfg = ScenarioConfig.from_dict(ball_config(objectives=[{"kind": "sqdist", "set": box}] * 3))
    assert cfg.objectives.components[0].target.lower.tolist() == [-1.0, -np.inf]
    for lower, match in (([True, -1.5], r"\.set\.lower\[0\]: expected a number"),
                         ([-1.0, "-1.5"], r"\.set\.lower\[1\]: expected a number"),
                         ([np.nan, -1.5], r"\.set\.lower\[0\]: number must not be NaN"),
                         ([-1.0], r"\.set\.lower: expected 2 entries"),
                         ([-1.0, 2.0], r"objectives\[0\]\.set: box needs lower <= upper")):
        bad = ball_config(objectives=[{"kind": "sqdist", "set": dict(box, lower=lower)}] * 3)
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(bad)


def test_point_sets_and_nested_sums_build_the_hand_built_family():
    point = {"kind": "sqdist", "set": {"kind": "point", "at": [0.5, -0.5]}}
    nested = {"kind": "sum", "parts": [point, {"kind": "sum", "parts": [
        {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 3.0]], "center": [-1.0, 0.0]},
        {"kind": "sqdist", "set": {"kind": "ball", "center": [0.0, -1.0], "radius": 0.7}}]}]}
    cfg = ScenarioConfig.from_dict(
        ball_config(tf=2.0, objectives=[point, nested, ball_dicts()[2]]))
    family = ObjectiveSet([
        SquaredDistance(Point([0.5, -0.5])),
        Sum([SquaredDistance(Point([0.5, -0.5])),
             Sum([Quadratic([[1.0, 0.0], [0.0, 3.0]], [-1.0, 0.0]),
                  SquaredDistance(Ball([0.0, -1.0], 0.7))])]),
        SquaredDistance(Ball([-1.0, 0.0], 1.5)),
    ])
    graph = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)])
    scen = cfg.build_scenario()
    hand = Scenario(family, graph, scen.x0, tf=2.0, name="balls")
    assert scen.describe() == hand.describe()
    assert integrate(scen).states.tobytes() == integrate(hand).states.tobytes()


@pytest.mark.parametrize("objective, match", [
    ({"kind": "sqdist", "set": {"kind": "ellipse"}},
     r"^objectives\[0\]\.set: unknown set kind 'ellipse'$"),
    ({"kind": "quadratic", "matrix": 1.0, "center": [0.0, 0.0]},
     r"^objectives\[0\]\.matrix: matrix must be a list of rows$"),
    ({"kind": "quadratic", "matrix": [[1.0, 0.0]], "center": [0.0, 0.0]},
     r"^objectives\[0\]\.matrix: matrix must be 2x2$"),
    ({"kind": "quadratic", "matrix": [[1.0, 2.0], [0.0, 1.0]], "center": [0.0, 0.0]},
     r"^objectives\[0\]: matrix must be symmetric$"),
    ({"kind": "sum", "parts": []}, r"^objectives\[0\]\.parts: parts must be a nonempty list$"),
    ({"kind": "sum", "parts": [{"kind": "sum", "parts": [
        {"kind": "quadratic", "matrix": [[-1.0, 0.0], [0.0, 1.0]], "center": [0.0, 0.0]}]}]},
     r"^objectives\[0\]\.parts\[0\]\.parts\[0\]: matrix must be positive semidefinite"),
])
def test_objective_errors_carry_their_path(objective, match):
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.from_dict(ball_config(objectives=[objective] + ball_dicts()[1:]))


def test_weight_bounds_reach_the_graph():
    bounded = ball_config()
    bounded["topology"].update(weight=2.0, weight_bounds=[1.0, 3.0])
    graph = ScenarioConfig.from_dict(bounded).topology
    assert graph.weight_bounds == (1.0, 3.0)
    assert set(graph.weights.values()) == {2.0}
    bounded["topology"]["weight"] = 5.0
    with pytest.raises(ConfigError, match=r"^topology: arc \(0, 1\): weight 5\.0 violates "
                                          r"declared bounds \(1\.0, 3\.0\)$"):
        ScenarioConfig.from_dict(bounded)


def test_integrator_and_seed_validation():
    with pytest.raises(ConfigError, match="missing required key 'tf'"):
        ScenarioConfig.from_dict(quad_config(integrator={}))
    with pytest.raises(ConfigError, match="^integrator: tf must exceed t0$"):
        ScenarioConfig.from_dict(quad_config(integrator={"tf": 0.0}))
    with pytest.raises(ConfigError, match="positive"):
        ScenarioConfig.from_dict(quad_config(integrator={"tf": 1.0, "h": 0.0}))
    with pytest.raises(ConfigError, match="at least 0"):
        ScenarioConfig.from_dict(quad_config(seed=-1))
    with pytest.raises(ConfigError, match="integer"):
        ScenarioConfig.from_dict(quad_config(seed=1.5))


def test_law_and_x0_validation():
    with pytest.raises(ConfigError, match="unknown law kind"):
        ScenarioConfig.from_dict(quad_config(law={"kind": "pid"}))
    with pytest.raises(ConfigError, match="missing required key 'K'"):
        ScenarioConfig.from_dict(quad_config(law={"kind": "jk"}))
    with pytest.raises(ConfigError, match="positive"):
        ScenarioConfig.from_dict(quad_config(law={"kind": "jk", "K": 0.0}))
    with pytest.raises(ConfigError, match="unknown x0 kind"):
        ScenarioConfig.from_dict(quad_config(x0={"kind": "gaussian"}))
    with pytest.raises(ConfigError, match="high must exceed low"):
        ScenarioConfig.from_dict(
            quad_config(x0={"kind": "uniform_box", "low": 1.0, "high": 1.0})
        )


def test_analysis_validation():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        ScenarioConfig.from_dict(quad_config(analysis={"tolerances": {"bogus": 1.0}}))
    with pytest.raises(ConfigError, match="positive"):
        ScenarioConfig.from_dict(quad_config(analysis={"tolerances": {"gap": 0.0}}))
    with pytest.raises(ConfigError, match="nonnegative"):
        ScenarioConfig.from_dict(quad_config(analysis={"k_grid": [-1.0]}))
    cfg = ScenarioConfig.from_dict(quad_config(analysis={"tolerances": {"gap": 1e-3}}))
    assert cfg.tolerances["gap"] == 1e-3
    assert cfg.tolerances["diameter"] == DEFAULT_TOLERANCES["diameter"]


def test_disturbance_validation():
    with pytest.raises(ConfigError, match="unknown disturbance kind"):
        ScenarioConfig.from_dict(
            quad_config(disturbance={"kind": "white", "vectors": [[1.0], [0.0]]})
        )
    with pytest.raises(ConfigError, match="expected 2 disturbance vectors"):
        ScenarioConfig.from_dict(
            quad_config(disturbance={"kind": "exponential", "vectors": [[1.0]]})
        )
    cfg = ScenarioConfig.from_dict(
        quad_config(disturbance={"kind": "exponential", "vectors": [[1.0], [0.0]]})
    )
    scen = cfg.build_scenario()
    assert np.array_equal(scen.disturbance(0.0), [[1.0], [0.0]])


@pytest.mark.parametrize("extra, path, message", [
    ({"integrator": [25.0]}, "integrator", "expected an object"),
    ({"objectives": [{"kind": "sqdist",
                      "set": {"kind": "ball", "center": [0.0], "radius": -1.0}}] * 2},
     "objectives[0].set.radius", "number must be nonnegative"),
    ({"x0": [0.0, 3.0]}, "x0[0]", "expected a list of numbers"),
    ({"objectives": [{"kind": "huber"}] * 2}, "objectives[0]", "unknown objective kind 'huber'"),
    ({"topology": {"kind": "fixed", "arcs": "0->1"}},
     "topology.arcs", "arcs must be a list of [from, to] pairs"),
    ({"topology": {"kind": "fixed", "arcs": [[0, 1, 2]]}},
     "topology.arcs[0]", "each arc is a [from, to] pair"),
    ({"topology": {"kind": "switching", "dwell": 0.5, "intervals": []}},
     "topology.intervals", "intervals must be a nonempty list"),
    ({"topology": {"kind": "ring"}}, "topology", "unknown topology kind 'ring'"),
    ({"name": ""}, "name", "name must be a nonempty string"),
    ({"objectives": {"kind": "quadratic"}},
     "objectives", "expected a list with one objective per node"),
], ids=["mapping", "radius", "number-list", "objective-kind", "arc-list", "arc-pair",
        "intervals", "topology-kind", "name", "objective-list"])
def test_config_errors_name_their_path(extra, path, message):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(quad_config(**extra))
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


# --- scenario building -------------------------------------------------------

def test_build_scenario_seed_determinism():
    cfg = ScenarioConfig.from_dict(ball_config())
    a = cfg.build_scenario()
    b = cfg.build_scenario()
    c = dataclasses.replace(cfg, seed=8).build_scenario()
    assert np.array_equal(a.x0, b.x0)
    assert not np.array_equal(a.x0, c.x0)
    assert np.abs(a.x0).max() <= 5.0


def test_build_scenario_gain_override():
    cfg = ScenarioConfig.from_dict(quad_config())
    scen = cfg.build_scenario(gain=10.0)
    assert scen.gain == 10.0
    assert cfg.build_scenario().gain == 1.0


def test_content_hash_tracks_overrides():
    cfg = ScenarioConfig.from_dict(quad_config())
    assert cfg.content_hash() == cfg.content_hash()
    assert dataclasses.replace(cfg, seed=1).content_hash() != cfg.content_hash()
    assert dataclasses.replace(cfg, step=0.02).content_hash() != cfg.content_hash()


# --- trace round trip --------------------------------------------------------

def test_trace_round_trip_is_bitwise(tmp_path):
    cfg = ScenarioConfig.from_dict(quad_config(tf=1.0))
    traj = integrate(cfg.build_scenario())
    v = lyapunov_trace(traj, np.array([1.5]))
    paths = write_trace(tmp_path / "run.csv", traj, extras={"v": v})
    times, states, extras = read_trace(paths[0])
    assert times.tobytes() == traj.times.tobytes()
    assert states.tobytes() == traj.states.tobytes()
    assert extras["v"].tobytes() == v.tobytes()

    sidecar = json.loads((tmp_path / "run.csv.json").read_text())
    assert sidecar["fingerprint"] == traj.fingerprint
    assert sidecar["columns"] == ["t", "node", "comp_0", "v"]
    assert sidecar["stats"]["steps"] == 100
    # every integrator stat, rk4_defect beside h_rho, round-trips through JSON
    assert sidecar["stats"] == traj.stats and "rk4_defect" in sidecar["stats"]


def test_trace_golden_bytes(tmp_path):
    traj = Trajectory(np.array([0.0, 0.1]),
                      np.array([[[1.0 / 3.0], [-0.0]], [[5e-324], [-2.5]]]))
    extra = np.array([[1e300, 0.5], [-1.0, 7.0]])
    paths = write_trace(tmp_path / "run.csv", traj, extras={"v": extra})
    assert (tmp_path / "run.csv").read_bytes() == (
        b"t,node,comp_0,v\r\n"
        b"0,0,0.33333333333333331,1.0000000000000001e+300\r\n"
        b"0,1,-0,0.5\r\n"
        b"0.10000000000000001,0,4.9406564584124654e-324,-1\r\n"
        b"0.10000000000000001,1,-2.5,7\r\n")
    times, states, extras = read_trace(paths[0])
    assert times.tobytes() == traj.times.tobytes()
    assert states.tobytes() == traj.states.tobytes()
    assert extras["v"].tobytes() == extra.tobytes()


@pytest.mark.parametrize("with_extra", [True, False], ids=["extra", "bare"])
@pytest.mark.parametrize("n, t", [(300, 7), (1, 1), (1, 3), (1, 2049), (1024, 1), (1024, 3),
                                  (1025, 1), (1025, 3)])
def test_trace_blocks_match_savetxt(tmp_path, n, t, with_extra):
    # 300 nodes: 3 samples per block, 7 samples over three blocks, the last one
    # short; 1 node: 1024 samples per block; 1024 and 1025 nodes: one sample
    rng = np.random.default_rng(40)
    specials = [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, np.nan, np.inf, -np.inf]
    states = rng.normal(size=(t, n, 2)) * 10.0 ** rng.integers(-300, 300, (t, n, 2))
    head = states.reshape(-1)[::97][:len(specials)]
    head[...] = specials[:head.size]
    extra = rng.normal(size=(t, n))
    tail = extra.reshape(-1)[-len(specials):]
    tail[...] = specials[-tail.size:]
    traj = Trajectory(np.linspace(0.0, 0.6, t), states)
    extras = {"v": extra} if with_extra else {}
    path = write_trace(tmp_path / "run.csv", traj, extras=extras)[0]
    table = np.column_stack([np.repeat(traj.times, n), np.tile(np.arange(n), t),
                             states.reshape(-1, 2)] + [e.reshape(-1) for e in extras.values()])
    reference = io.StringIO(newline="")
    reference.write(",".join(["t", "node", "comp_0", "comp_1", *extras]) + "\r\n")
    np.savetxt(reference, table, fmt=["%.17g", "%d"] + ["%.17g"] * (table.shape[1] - 2),
               delimiter=",", newline="\r\n")
    assert (tmp_path / "run.csv").read_bytes() == reference.getvalue().encode()
    times, back, back_extras = read_trace(path)
    assert times.tobytes() == traj.times.tobytes()
    assert back.tobytes() == states.tobytes()
    assert back_extras.keys() == extras.keys()
    assert all(back_extras[k].tobytes() == extras[k].tobytes() for k in extras)


def test_trace_write_holds_one_block(tmp_path):
    # 101 samples of 300 nodes and 3 extra columns, written a block of samples
    # at a time: a (T * N, 6) table of the rows alone would be 1.45 MB
    rng = np.random.default_rng(41)
    traj = Trajectory(np.linspace(0.0, 1.0, 101), rng.normal(size=(101, 300, 2)))
    extras = {k: rng.normal(size=(101, 300)) for k in ("gap", "residual", "v")}
    _, peak = traced_peak(write_trace, tmp_path / "run.csv", traj, extras)
    assert peak <= 1 << 20


def _g17_texts(values):
    """The writer's '%.17g' fields for ``values``, NULs dropped."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in _g17(values)]


def test_g17_matches_percent_on_random_bit_patterns():
    # 10**6 doubles from seeded uint64 bit patterns; the second half has its
    # exponent field drawn around the numpy path's range (1e-6, 1e16), so both
    # that path and the one-by-one '%' fallback see about half a million values
    rng = np.random.default_rng(43)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    half = bits[bits.size // 2:]
    half &= ~np.uint64(0x7FF << 52)
    half |= rng.integers(1002, 1077, size=half.size).astype(np.uint64) << np.uint64(52)
    values = bits.view(np.float64)
    a = np.abs(values)
    assert ((a > 1e-6) & (a < 1e16)).sum() > 4 * 10 ** 5
    for chunk in np.array_split(values, 64):
        fields = _g17(chunk)
        got = np.concatenate([fields, np.full((chunk.size, 1), 44, np.uint8)], axis=1)
        want = "".join("%.17g," % x for x in chunk.tolist()).encode()
        if got[got != 0].tobytes() != want:
            texts = _g17_texts(chunk)
            bad = [(x, t) for x, t in zip(chunk.tolist(), texts) if t != "%.17g" % x]
            pytest.fail(f"'%.17g' differs for {bad[:5]}")


_POWERS = [float(f"1e{k}") for k in range(-6, 17)]
G17_EDGES = [
    0.0, -0.0,
    *(np.nextafter(x, to) for x in (1e-6, 1e16) for to in (0.0, np.inf)),
    *_POWERS,
    *(np.nextafter(x, to) for x in _POWERS for to in (0.0, np.inf)),
    # below 10**k by less than half a 17th digit: '%.17g' carries to 1e-14 and
    # 1e+98 (through the fallback; no double in (1e-6, 1e16) does this)
    1e-14, 1e98,
    # exact half-way cases, rounded half-even: hi + lo ends in .5
    1000000000000000.25, 1000000000000000.75, 100000000000000.125, 100000000000000.375,
    9.9999999999999995e-05, 0.0001, 1234.5, 0.1, 1.0 / 3.0, 7.0,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.nan, np.inf,
]


def test_g17_edge_table():
    values = np.array(G17_EDGES + [-x for x in G17_EDGES[2:]])
    texts = _g17_texts(values)
    assert [(x, t) for x, t in zip(values.tolist(), texts) if t != "%.17g" % x] == []
    # and one value at a time, where each path sees a single row
    assert [_g17_texts(values[i:i + 1])[0] for i in range(values.size)] == texts


def test_trace_extras_shape_check(tmp_path):
    cfg = ScenarioConfig.from_dict(quad_config(tf=1.0))
    traj = integrate(cfg.build_scenario())
    with pytest.raises(ValueError, match="extra column"):
        write_trace(tmp_path / "run.csv", traj, extras={"v": np.zeros(3)})


# --- suites ------------------------------------------------------------------

def test_simulate_suite_reports_convergence():
    report = run(ScenarioConfig.from_dict(ball_config(tf=60.0)), "simulate")
    assert report.passed
    assert [c.id for c in report.claims] == ["integration-completed"]
    assert "status=converged" in report.claims[0].detail


def test_exact_suite_passes_on_shared_minimizers():
    report = run(ScenarioConfig.from_dict(ball_config()), "exact")
    assert report.passed
    assert [c.id for c in report.claims] == [
        "fixed-graph-strongly-connected",
        "lyapunov-nonincreasing",
        "terminal-diameter",
        "node-optimum-residuals",
        "optimality-gap",
    ]
    for claim in report.claims[1:]:
        assert claim.margin is None or claim.margin >= 0.0


def test_exact_suite_documents_disjoint_minimizers():
    report = run(ScenarioConfig.from_dict(quad_config()), "exact")
    assert report.passed
    ids = [c.id for c in report.claims]
    assert ids == [
        "fixed-graph-strongly-connected",
        "disagreement-persists",
        "terminal-matches-stationary",
        "diameter-matches-oracle",
    ]
    persists = report.claims[1]
    assert abs(persists.margin - (1.0 - 1e-3)) <= 1e-4


def test_exact_suite_reports_the_first_envelope_increase():
    # node 0 pushed away from the shared minimizers: the envelope rises at once
    cfg = json.loads((CONFIGS / "balls.json").read_text())
    cfg["integrator"]["tf"] = 10.0
    cfg["disturbance"] = {"kind": "exponential",
                          "vectors": [[20.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    report = run(ScenarioConfig.from_dict(cfg), "exact")
    dini = {c.id: c for c in report.claims}["lyapunov-nonincreasing"]
    assert not dini.passed and dini.margin < 0.0
    assert dini.detail == "first violation at t=0.03"


def test_exact_suite_flags_undecidable_intersections():
    cfg = ball_config(tf=1.0)
    cfg["objectives"] = [
        {"kind": "sqdist", "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
        {"kind": "sqdist", "set": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}},
        {"kind": "sqdist", "set": {"kind": "ball",
                                   "center": [1.0, 1.7320508075688772], "radius": 1.0}},
    ]
    report = run(ScenarioConfig.from_dict(cfg), "exact")
    assert not report.passed
    undecided = {c.id: c for c in report.claims}["common-minimizer-decided"]
    assert not undecided.passed


def test_exact_suite_decides_intersection_once(monkeypatch):
    import consensusflow.harness as harness_mod
    import consensusflow.objectives as objectives_mod

    calls = []
    original = objectives_mod.intersection_nonempty

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "intersection_nonempty", counted)
    monkeypatch.setattr(objectives_mod, "intersection_nonempty", counted)
    report = run(load_config(CONFIGS / "balls.json"), "exact")
    assert len(calls) == 1
    gap = {c.id: c for c in report.claims}["optimality-gap"]
    assert gap.detail.startswith("team minimum 0.000000e+00 (intersection); ")


def test_exact_suite_needs_fixed_topology():
    with pytest.raises(ConfigError, match="fixed topology"):
        run(ScenarioConfig.from_dict(switching_config()), "exact")


def test_eps_suite_verifies_gain_grid():
    cfg = ScenarioConfig.from_dict(quad_config(analysis={"k_grid": [1.0, 10.0, 100.0]}))
    report = run(cfg, "eps-optimal")
    assert report.passed
    ids = [c.id for c in report.claims]
    assert ids == [
        "terminal-matches-stationary[k=1]",
        "disagreement-bound[k=1]",
        "terminal-matches-stationary[k=10]",
        "disagreement-bound[k=10]",
        "terminal-matches-stationary[k=100]",
        "disagreement-bound[k=100]",
    ]
    bounds = [c for c in report.claims if c.id.startswith("disagreement-bound")]
    assert all(c.margin >= -1e-12 for c in bounds)


def test_eps_suite_gain_zero_has_no_claims():
    cfg = ScenarioConfig.from_dict(quad_config(analysis={"k_grid": [0.0, 1.0, 10.0]}))
    assert [c.id for c in run(cfg, "eps-optimal").claims] == [
        "terminal-matches-stationary[k=1]",
        "disagreement-bound[k=1]",
        "terminal-matches-stationary[k=10]",
        "disagreement-bound[k=10]",
    ]


def test_eps_suite_preconditions():
    with pytest.raises(ConfigError, match="k_grid"):
        run(ScenarioConfig.from_dict(quad_config()), "eps-optimal")
    one_way = quad_config(analysis={"k_grid": [1.0]})
    one_way["topology"]["arcs"] = [[0, 1]]
    with pytest.raises(ConfigError, match="symmetric"):
        run(ScenarioConfig.from_dict(one_way), "eps-optimal")
    balls = ball_config(analysis={"k_grid": [1.0]})
    with pytest.raises(ConfigError, match="quadratic"):
        run(ScenarioConfig.from_dict(balls), "eps-optimal")


def test_switching_suite_passes():
    report = run(ScenarioConfig.from_dict(switching_config()), "switching")
    assert report.passed
    assert [c.id for c in report.claims] == [
        "jointly-connected",
        "common-minimizer-exists",
        "lyapunov-nonincreasing",
        "lyapunov-limits-agree",
        "node-optimum-residuals",
        "limit-point-reconstruction",
    ]


def test_switching_suite_window_override_fails_ujsc():
    cfg = ScenarioConfig.from_dict(
        switching_config(tf=2.0, analysis={"ujsc_window": 0.4})
    )
    report = run(cfg, "switching")
    assert not report.passed
    joint = report.claims[0]
    assert joint.id == "jointly-connected" and not joint.passed


def test_switching_suite_stops_on_disjoint_minimizers(tmp_path):
    # node 0's ball moved off the others: no witness, so no envelope claims
    cfg = switching_config(tf=2.0)
    cfg["objectives"][0]["set"]["center"] = [10.0, 0.0]
    report = run(ScenarioConfig.from_dict(cfg), "switching")
    assert [(c.id, c.passed) for c in report.claims] == [
        ("jointly-connected", True), ("common-minimizer-exists", False)]
    assert report.claims[1].detail == "intersection status: empty"
    assert main(["verify", "switching", "--config", _write(tmp_path, cfg), "--quiet"]) == 3


def test_switching_suite_without_interior_anchors():
    # a point has no interior, so no anchor simplex exists around the witness
    point = {"kind": "sqdist", "set": {"kind": "point", "at": [0.5, 0.5]}}
    cfg = ScenarioConfig.from_dict(switching_config(tf=2.0, objectives=[point] * 3))
    claim = {c.id: c for c in run(cfg, "switching").claims}["limit-point-reconstruction"]
    assert not claim.passed and claim.margin is None
    assert claim.detail == "reconstruction unavailable: base point is not interior to every set"


def _finite_schedule(alternations):
    """switching_config's two arc sets on intervals of 0.5 from t = 0, the
    last one held until a horizon of 80 in place of the period."""
    cfg = switching_config()
    topo = cfg["topology"]
    arcs = [interval["arcs"] for interval in topo["intervals"]]
    del topo["period"]
    topo["horizon"] = 80.0
    topo["intervals"] = [{"start": 0.5 * k, "arcs": arcs[k % 2]} for k in range(alternations)]
    return cfg


@pytest.mark.parametrize("alternations, failed", [
    (160, []),
    (2, ["jointly-connected", "lyapunov-limits-agree", "node-optimum-residuals",
         "limit-point-reconstruction"]),
], ids=["alternating", "two-intervals"])
def test_finite_horizon_schedules(tmp_path, capsys, alternations, failed):
    """A schedule with a horizon in place of a period, checked over windows of
    length 1.  The two arc sets alternating every 0.5 until the horizon pass
    the suite.  The two intervals alone hold the second arc set from 0.5 to
    80: not jointly connected over any window after 0.5, and the run fails
    its envelope claims too."""
    cfg = _finite_schedule(alternations)
    cfg["analysis"] = {"ujsc_window": 1.0}
    path = _write(tmp_path, cfg)
    assert main(["check-graph", "--config", path, "--quiet"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["window"] == 1.0
    assert info["uniformly_jointly_strongly_connected"] is (not failed)
    assert main(["verify", "switching", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == (3 if failed else 0)
    claims = json.loads((tmp_path / "alt_switching_report.json").read_text())["claims"]
    assert len(claims) == 6 and claims[0]["detail"] == "window 1"
    assert [c["id"] for c in claims if not c["pass"]] == failed


def test_finite_horizon_schedule_needs_a_window(tmp_path, capsys):
    # the whole span would pass any schedule connected in aggregate, so a
    # schedule with a horizon must name its window; sim needs none
    path = _write(tmp_path, _finite_schedule(2))
    capsys.readouterr()
    for command in (["verify", "switching"], ["check-graph"]):
        assert main(command + ["--config", path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: analysis.ujsc_window: a schedule with a horizon needs a "
            "joint-connectivity window\n")
    assert not list(tmp_path.glob("alt_switching*"))
    assert main(["sim", "--config", path, "--out-dir", str(tmp_path), "--quiet"]) == 0


def test_switching_suite_needs_switching_topology():
    with pytest.raises(ConfigError, match="switching topology"):
        run(ScenarioConfig.from_dict(ball_config()), "switching")


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        run(ScenarioConfig.from_dict(quad_config()), "everything")


# --- artifacts and reproducibility -------------------------------------------

COMMITTED_REPORTS = [
    ("balls.json", "exact",
     "958b39246ba00a101d60e412e17db3ea7347c64c1cd0b40f1b8730cbdc0ac105"),
    ("balls.json", "simulate",
     "93b4b9144c725d7ce590852f32afcdbb4ed73a209435e420c89614d1f256efe6"),
    ("switching.json", "switching",
     "29c6c5dda8383dc5ad20a467e1f2ce3fd26d9259085122fb4470a974372f2780"),
    ("pair.json", "eps-optimal",
     "4a026ee88b0ea8162fbd285fb2184dc1b836d738a5b16c4f3fb5cfb21aad4126"),
]


def _no_integration(monkeypatch):
    """Make any integration through the harness fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrated")
    monkeypatch.setattr(harness, "integrate", refuse)
    monkeypatch.setattr(harness, "integrate_batch", refuse)


@pytest.mark.parametrize("config_file, suite, expected", COMMITTED_REPORTS)
def test_committed_config_report_hashes(tmp_path, config_file, suite, expected):
    """The committed configs pass their suites from the command line (exit 0)
    and keep their report hashes, the ones in perfbench/report_hashes.json.

    A refactor must leave these hashes unchanged.  ROADMAP allows a changed
    hash only where summation order has to change, the trajectories still
    agree to within a few ulp, and CHANGES.md records why; update the
    constants here in that same change.
    """
    command = ["sim"] if suite == "simulate" else ["verify", suite]
    assert main(command + ["--config", str(CONFIGS / config_file),
                           "--out-dir", str(tmp_path), "--quiet"]) == 0
    [report] = tmp_path.glob("*_report.json")
    assert json.loads(report.read_text())["report_hash"] == expected


@pytest.mark.parametrize("config_file, suite, expected", COMMITTED_REPORTS)
def test_trace_rebuilds_committed_report(tmp_path, monkeypatch, config_file, suite, expected):
    """The traces are the evidence for their report: each run's judge,
    given only the trajectory read back from its trace, rebuilds the report
    hash and every trace column bit for bit, with no integration."""
    config = load_config(CONFIGS / config_file)
    assert run(config, suite, out_dir=tmp_path).report_hash == expected
    _no_integration(monkeypatch)
    rebuilt = RunReport(config.name, suite, config.content_hash())
    for _, tag, judge in harness._SUITE_FUNCS[suite](config):
        times, states, columns = read_trace(tmp_path / f"{config.name}_{suite}{tag}.csv")
        claims, extras = judge(Trajectory(times, states))
        rebuilt.claims += claims
        extras = extras or {}
        assert sorted(extras) == sorted(columns)
        for key, column in extras.items():
            assert column.tobytes() == columns[key].tobytes(), key
    assert rebuilt.report_hash == expected


@pytest.mark.parametrize("config_file, suite", [("balls.json", "exact"),
                                                ("switching.json", "switching")])
def test_ball_gradient_kernel_agrees_with_x_minus_projection(monkeypatch, config_file, suite):
    """The ball gradient ``d - d * s`` moves the committed ball runs by at
    most 1e-15 from the ``x - P(x)`` they were first recorded with, and every
    claim passes either way."""
    config = load_config(CONFIGS / config_file)

    def integrated():
        plan = harness._SUITE_FUNCS[suite](config)
        trajs = _integrate([scenario for scenario, _, _ in plan])
        claims = [c for (_, _, judge), traj in zip(plan, trajs) for c in judge(traj)[0]]
        return [traj.states for traj in trajs], claims

    states, claims = integrated()
    monkeypatch.setattr(Ball, "_residual", ConvexSet._residual)
    projected_states, projected_claims = integrated()
    assert claims and all(c.passed for c in claims)
    assert projected_claims and all(c.passed for c in projected_claims)
    assert max(abs(a - b).max() for a, b in zip(states, projected_states, strict=True)) <= 1e-15
    assert any((a != b).any() for a, b in zip(states, projected_states))


def test_committed_sweep_csv(tmp_path):
    """``sweep-k`` on configs/pair.json writes the same CSV bytes."""
    assert main(["sweep-k", "--config", str(CONFIGS / "pair.json"),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    digest = hashlib.sha256((tmp_path / "pair_sweep.csv").read_bytes()).hexdigest()
    assert digest == "67e1edd03b41ea28e98afa982324d8f9cc15d7f94a9613803998ed3f4244ce89"


@pytest.mark.parametrize("argv, report, overrides, expected", [
    (["verify", "exact", "--config", "balls.json", "--seed", "8", "--h", "0.02"],
     "balls_exact_report.json", {"seed": 8, "step": 0.02},
     "5420ed35a54646be2ec866accf69a28481ca1ab8442f23e0c3adfd315c879c80"),
    (["verify", "eps-optimal", "--config", "pair.json", "--seed", "3", "--h", "0.005"],
     "pair_eps-optimal_report.json", {"seed": 3, "step": 0.005},
     "c9b8ed8198bb6b6873940e75a286bc664a95685e55d72888c9c35737a71c2803"),
    (["verify", "switching", "--config", "switching.json", "--seed", "11"],
     "alt_switching_report.json", {"seed": 11},
     "998750d054d648b4a6a677c9c4caaa1dc3a520bbffe67fed7a76003b4ffc0b50"),
], ids=["exact-balls", "eps-optimal-pair", "switching"])
def test_overrides_keep_report_hashes(tmp_path, argv, report, overrides, expected):
    """``--seed`` and ``--h`` replace the config's fields; the report hashes
    were recorded when they were passed to ``run`` as separate arguments."""
    config = argv.index("--config") + 1
    argv = argv[:config] + [str(CONFIGS / argv[config])] + argv[config + 1:]
    assert main(argv + ["--out-dir", str(tmp_path), "--quiet"]) == 0
    written = json.loads((tmp_path / report).read_text())
    assert written["report_hash"] == expected
    replaced = dataclasses.replace(load_config(argv[config]), **overrides)
    assert run(replaced, argv[1]).report_hash == expected


def test_jk_law_runs_the_exact_suite(tmp_path):
    """J_K at K = 10 on the pair settles at diameter 3/(2K+1) = 1/7, the
    stationary oracle's, with the report hash of the ``law`` config entry."""
    raw = json.loads((CONFIGS / "pair.json").read_text())
    raw["law"] = {"kind": "jk", "K": 10.0}
    path = _write(tmp_path, raw, "pair_jk.json")
    assert load_config(path).gain == 10.0
    assert main(["verify", "exact", "--config", path, "--out-dir", str(tmp_path),
                 "--quiet"]) == 0
    report = json.loads((tmp_path / "pair_exact_report.json").read_text())
    oracle = {c["id"]: c for c in report["claims"]}["diameter-matches-oracle"]
    assert oracle["detail"].startswith("oracle diameter 1.428571e-01;")
    assert report["report_hash"] == "88009dfc0205430a2aded8a472a3854f869e3f3959ed862d8b67bdf0c30528a0"


def test_run_writes_artifacts(tmp_path):
    cfg = ScenarioConfig.from_dict(quad_config(tf=1.0))
    report = run(cfg, "simulate", out_dir=tmp_path)
    assert (tmp_path / "pair_simulate.csv").exists()
    assert (tmp_path / "pair_simulate.csv.json").exists()
    assert (tmp_path / "pair_simulate_report.json").exists()
    assert str(tmp_path / "pair_simulate_report.json") in report.artifacts

    payload = json.loads((tmp_path / "pair_simulate_report.json").read_text())
    assert payload["suite"] == "simulate" and payload["pass"] is True
    assert payload["scenario"]["name"] == "pair"
    assert payload["report_hash"] == report.report_hash
    assert set(payload["claims"][0]) == {"id", "ref", "pass", "margin", "detail"}
    assert str(tmp_path / "pair_simulate.csv") in payload["artifacts"]


def test_report_hash_is_reproducible():
    h1 = run(ScenarioConfig.from_dict(quad_config()), "exact").report_hash
    h2 = run(ScenarioConfig.from_dict(quad_config()), "exact").report_hash
    h3 = run(dataclasses.replace(ScenarioConfig.from_dict(quad_config()), step=0.02),
             "exact").report_hash
    assert h1 == h2
    assert h1 != h3


# --- gain sweep --------------------------------------------------------------

def test_sweep_k_matches_closed_form(tmp_path):
    cfg = ScenarioConfig.from_dict(
        quad_config(analysis={"k_grid": [0.0, 1.0, 10.0, 100.0]})
    )
    rows = sweep_k(cfg, out_dir=tmp_path)
    assert [r["gain"] for r in rows] == [0.0, 1.0, 10.0, 100.0]

    free = rows[0]
    assert np.isnan(free["diameter"]) and np.isnan(free["terminal_mismatch"])
    assert abs(free["oracle_disagreement"] - 3.0 / np.sqrt(2.0)) <= 1e-12

    for row, gain in zip(rows[1:], (1.0, 10.0, 100.0)):
        assert abs(row["diameter"] - 3.0 / (2.0 * gain + 1.0)) <= 1e-4
        assert row["terminal_mismatch"] <= 1e-6
        assert row["bound_margin"] >= -1e-12
        assert row["gap_max"] >= 0.0

    text = (tmp_path / "pair_sweep.csv").read_text().splitlines()
    assert text[0].startswith("gain,diameter,gap_max")
    assert len(text) == 5


def test_eps_optimal_needs_a_positive_gain(tmp_path, capsys):
    # gain zero is solved by the oracle alone, so a zero-only grid has no claim
    # to check: the suite refuses it, while sweep-k still tabulates the oracle
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["analysis"]["k_grid"] = [0.0]
    path = _write(tmp_path, cfg, "pair.json")
    message = "analysis: the eps-optimal suite needs a positive gain in analysis.k_grid"
    with pytest.raises(ConfigError) as err:
        run(load_config(path), "eps-optimal")
    assert str(err.value) == message
    assert main(["verify", "eps-optimal", "--config", path, "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert main(["sweep-k", "--config", path, "--quiet"]) == 0
    [row] = sweep_k(load_config(path))
    assert row["gain"] == 0.0 and np.isnan(row["diameter"])


@pytest.mark.parametrize("suite, cfg, message", [
    ("exact", switching_config(), "topology: the exact suite needs a fixed topology"),
    ("switching", ball_config(), "topology: the switching suite needs a switching topology"),
    ("switching", _finite_schedule(2), "analysis.ujsc_window: a schedule with a horizon"),
    ("eps-optimal", quad_config(), "analysis: the eps-optimal suite needs analysis.k_grid"),
    ("eps-optimal", quad_config(analysis={"k_grid": [0.0]}),
     "analysis: the eps-optimal suite needs a positive gain"),
    ("eps-optimal", ball_config(analysis={"k_grid": [1.0]}),
     "objectives: the eps-optimal suite needs all-quadratic objectives"),
    ("eps-optimal", quad_config(analysis={"k_grid": [1.0]}, topology={
        "kind": "fixed", "arcs": []}), "topology: the disagreement bound needs a connected"),
    ("eps-optimal", quad_config(analysis={"k_grid": [10.0, 10.0]}),
     "analysis.k_grid: gains 10.0 and 10.0 share the label k=10"),
], ids=["exact-switching", "switching-fixed", "horizon-no-window", "eps-no-grid",
        "eps-zero-grid", "eps-balls", "eps-disconnected", "eps-label-collision"])
def test_config_errors_come_before_integration(monkeypatch, suite, cfg, message):
    config = ScenarioConfig.from_dict(cfg)
    _no_integration(monkeypatch)
    with pytest.raises(ConfigError) as err:
        run(config, suite)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("grid, first, second, label", [
    ([1.0, 1.0000001], "1.0", "1.0000001", "1"),
    ([10, 100, 10], "10.0", "10.0", "10"),
], ids=["six-digits-alike", "repeated"])
def test_eps_optimal_gain_labels_must_differ(tmp_path, capsys, grid, first, second, label):
    # two gains with one label would overwrite one trace and repeat two claim
    # ids, so the plan refuses them before any step; sweep-k prints full precision
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["analysis"]["k_grid"] = grid
    path = _write(tmp_path, cfg, "pair.json")
    out = tmp_path / "out"
    assert main(["verify", "eps-optimal", "--config", path, "--out-dir", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"config error: analysis.k_grid: gains {first} and {second} share the label "
        f"k={label}\n")
    assert not out.exists()
    assert [row["gain"] for row in sweep_k(load_config(path))] == [float(k) for k in grid]


@pytest.mark.parametrize("name", ["../escape", "sub/x", "a\u0000b", ".", ".."])
def test_config_name_stays_inside_the_out_dir(tmp_path, capsys, monkeypatch, name):
    # the name starts every output file's name, so one that could leave
    # --out-dir or that no file may hold is refused before any step
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["name"] = name
    path = _write(tmp_path, cfg, "pair.json")
    out = tmp_path / "out" / "deep"
    before = sorted(tmp_path.rglob("*"))
    _no_integration(monkeypatch)
    for command in (["sim"], ["verify", "exact"], ["sweep-k"]):
        assert main(command + ["--config", path, "--out-dir", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: name: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_out_dir_that_is_a_file_fails_before_integrating(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    _no_integration(monkeypatch)
    pair = str(CONFIGS / "pair.json")
    for command in (["sim"], ["verify", "exact"], ["verify", "eps-optimal"], ["sweep-k"]):
        assert main(command + ["--config", pair, "--out-dir", str(blocker), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
        assert str(blocker) in captured.err


def test_sweep_k_preconditions():
    with pytest.raises(ConfigError, match="gain grid"):
        sweep_k(ScenarioConfig.from_dict(quad_config()))
    with pytest.raises(ConfigError, match="fixed topology"):
        sweep_k(ScenarioConfig.from_dict(switching_config(analysis={"k_grid": [1.0]})))


def test_sweep_k_without_a_team_minimum():
    # three nodes' curvature sums past the largest float, so global_min's
    # eigvalsh does not converge (numpy's LinAlgError, a ValueError); the
    # sweep leaves the gap NaN and still tabulates the oracle
    big = 0.8e308
    cfg = ScenarioConfig.from_dict(quad_config(
        name="stiff", m=3, nodes=3, x0={"kind": "uniform_box"}, analysis={"k_grid": [0.0]},
        objectives=[{"kind": "quadratic", "matrix": [[big, 0.0, 0.0], [0.0, big, 0.0],
                                                     [0.0, 0.0, 1.0]],
                     "center": [0.0, 0.0, float(i)]} for i in range(3)],
        topology={"kind": "fixed", "arcs": [[0, 1], [1, 2], [2, 0], [1, 0], [2, 1], [0, 2]]}))
    with np.errstate(over="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            global_min(cfg.objectives)
        [row] = sweep_k(cfg)
    assert np.isnan(row["gap_max"])
    assert row["oracle_disagreement"] == np.sqrt(2.0)


# --- command line ------------------------------------------------------------

def test_cli_sim_and_verify(tmp_path, capsys):
    path = _write(tmp_path, ball_config())
    assert main(["sim", "--config", path, "--quiet"]) == 0
    assert main(["verify", "exact", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] terminal-diameter" in out
    assert "suite exact: PASS" in out


def test_cli_exit_code_config_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["sim", "--config", str(broken), "--quiet"]) == 1
    missing_grid = _write(tmp_path, quad_config(), "nogrids.json")
    assert main(["verify", "eps-optimal", "--config", missing_grid, "--quiet"]) == 1
    capsys.readouterr()
    assert main(["oracle", "--config", missing_grid, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: analysis: the oracle command needs analysis.k_grid\n")
    balls = _write(tmp_path, ball_config(analysis={"k_grid": [1.0]}), "balls.json")
    assert main(["oracle", "--config", balls, "--quiet"]) == 1
    lopsided = quad_config(analysis={"k_grid": [1.0]})
    lopsided["topology"]["weights"] = [1.0, 2.0]
    lopsided = _write(tmp_path, lopsided, "lopsided.json")
    assert main(["oracle", "--config", lopsided, "--quiet"]) == 1
    apart = quad_config(analysis={"k_grid": [1.0]})
    apart["topology"]["arcs"] = []
    alone = quad_config(nodes=1, objectives=apart["objectives"][:1], x0=[[0.0]],
                        analysis={"k_grid": [1.0]}, topology={"kind": "fixed", "arcs": []})
    for name, cfg in (("apart.json", apart), ("alone.json", alone)):
        path = _write(tmp_path, cfg, name)
        for command in (["verify", "eps-optimal"], ["sweep-k"]):
            assert main(command + ["--config", path, "--quiet"]) == 1
    # a run outside its schedule (tf past a finite horizon, t0 before the
    # start), a window with tf <= t0 and a zero weight: the owner of each rule
    # words the error, and every command exits 1 at load
    finite = switching_config(tf=3.0)
    del finite["topology"]["period"]
    finite["topology"]["horizon"] = 2.0
    early = switching_config(integrator={"t0": -0.5, "tf": 2.0})
    empty = switching_config(integrator={"t0": 1.0, "tf": 1.0})
    weightless = switching_config()
    weightless["topology"]["intervals"][0]["weight"] = 0.0
    capsys.readouterr()
    for name, cfg, message in (
            ("finite.json", finite,
             "integrator: window end 3.0 is outside the schedule horizon 2.0"),
            ("early.json", early, "integrator: time -0.5 precedes the schedule start 0.0"),
            ("empty.json", empty, "integrator: tf must exceed t0"),
            ("weightless.json", weightless,
             "topology.intervals[0]: arc (0, 1): weights must be positive, got 0.0")):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(cfg)
        assert str(err.value) == message
        path = _write(tmp_path, cfg, name)
        for command in (["sim"], ["verify", "switching"], ["check-graph"], ["oracle"]):
            assert main(command + ["--config", path, "--quiet"]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"
    # a bad override names its flag instead of ending in a traceback
    sweep = _write(tmp_path, quad_config(analysis={"k_grid": [1.0]}), "sweep.json")
    capsys.readouterr()
    for flag, value in (("--h", "0"), ("--h", "-0.01"), ("--h", "nan"), ("--seed", "-1")):
        for command in (["sim", "--config", balls], ["verify", "exact", "--config", balls],
                        ["sweep-k", "--config", sweep]):
            assert main(command + [flag, value, "--quiet"]) == 1
            assert f"config error: {flag}:" in capsys.readouterr().err


def test_cli_config_must_be_utf8(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    assert main(["sim", "--config", str(latin), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not UTF-8 text: ") and err.count("\n") == 1
    utf8 = tmp_path / "utf8.json"
    utf8.write_bytes(json.dumps(quad_config(name="caf\xe9"), ensure_ascii=False).encode("utf-8"))
    assert main(["sim", "--config", str(utf8), "--out-dir", str(tmp_path), "--quiet"]) == 0


def test_oracle_solves_each_gain_once(tmp_path, capsys, monkeypatch):
    from consensusflow import analysis

    solve, gains = analysis.stationary_quadratic, []

    def counted(objectives, topology, gain):
        gains.append(gain)
        return solve(objectives, topology, gain)

    monkeypatch.setattr(analysis, "stationary_quadratic", counted)
    path = _write(tmp_path, quad_config(analysis={"k_grid": [10, 10, 0, 10]}))
    assert main(["oracle", "--config", path]) == 0
    assert gains == [10.0, 0.0]
    # one row per grid entry, in grid order, as when each entry was solved
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "e65e5ecbb3accdbd03efdebdf77d6f0175aa616ba074b462fb17f374cfe5f9a7")
    # -0.0 equals 0.0, so it shares that solve, but its row keeps the sign
    gains.clear()
    path = _write(tmp_path, quad_config(analysis={"k_grid": [0.0, -0.0]}), "signed.json")
    assert main(["oracle", "--config", path, "--quiet"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert gains == [0.0] and [math.copysign(1.0, r["gain"]) for r in rows] == [1.0, -1.0]


def _with_k_grid(raw):
    raw["analysis"] = {"k_grid": [1.0, 10.0]}


def _huge_matrix(raw):
    raw["objectives"][0]["matrix"] = [[1e308]]  # overflows when symmetrised


@pytest.mark.parametrize("config_file, change, command, message", [
    ("switching.json", _with_k_grid, ["verify", "eps-optimal"],
     "topology: the eps-optimal suite needs a fixed topology"),
    ("switching.json", _with_k_grid, ["oracle"],
     "topology: the oracle command needs a fixed topology"),
    ("pair.json", _huge_matrix, ["oracle"],
     "objectives[0]: matrix and its eigenvalues must be finite"),
], ids=["eps-optimal-switching", "oracle-switching", "oracle-huge-matrix"])
def test_cli_committed_config_changes_exit_1(tmp_path, capsys, config_file, change,
                                             command, message):
    raw = json.loads((CONFIGS / config_file).read_text())
    change(raw)
    path = _write(tmp_path, raw, config_file)
    assert main(command + ["--config", path, "--out-dir", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not list(tmp_path.glob("*_report.json"))


PAIR = ["--config", str(CONFIGS / "pair.json")]


@pytest.mark.parametrize("argv, named", [
    (["verify", "bogus"] + PAIR, "argument suite: invalid choice: 'bogus'"),
    (["verify", "audit"] + PAIR, "argument suite: invalid choice: 'audit'"),
    (["sim"], "the following arguments are required: --config"),
    (["sim", "--h", "abc"] + PAIR, "argument --h: invalid float value: 'abc'"),
    (["sim", "--seed", "x"] + PAIR, "argument --seed: invalid int value: 'x'"),
], ids=["suite", "audit", "no-config", "h", "seed"])
def test_cli_usage_error_exits_1(argv, named, capsys):
    # exit code 2 means a numerical failure, so a usage error is not argparse's 2
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: consensusflow ") and f"error: {named}" in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: consensusflow")


def test_cli_exit_code_numerical_failure(tmp_path, capsys):
    # a divergence the stability certificate lets through
    cfg = quad_config(tf=5.0, disturbance=FORCING)
    path = _write(tmp_path, cfg)
    assert main(["sim", "--config", path, "--quiet"]) == 2
    assert re.search(r"diverged at t=0\.12: node 1 ", capsys.readouterr().err)
    stiff = _write(tmp_path, quad_config(tf=5.0, law={"kind": "jk", "K": 1000.0}), "stiff.json")
    assert main(["sim", "--config", stiff, "--quiet"]) == 2
    assert "fails RK4's stability certificate at gain 1000.0" in capsys.readouterr().err
    singular = quad_config(tf=1.0, analysis={"k_grid": [0.0, 1.0]})
    for obj in singular["objectives"]:
        obj["matrix"] = [[0.0]]
    singular = _write(tmp_path, singular, "singular.json")
    for command in (["oracle"], ["sweep-k"], ["verify", "eps-optimal"]):
        assert main(command + ["--config", singular, "--quiet"]) == 2


def test_gain_runs_match_single_runs(tmp_path, monkeypatch):
    # the distinct positive gains of a grid are one batch, each member its own
    # run; a repeated gain is solved and integrated once, and its rows repeat
    grid = [0.0, 10.0, 1.0, 10.0, 2.5]
    config = load_config(_write(tmp_path, quad_config(tf=5.0, analysis={"k_grid": grid})))
    gains, scenarios, _, _ = _gain_plan(config, grid)
    assert gains == [10.0, 1.0, 2.5] and [s.gain for s in scenarios] == gains
    batches, batch = [], harness.integrate_batch
    monkeypatch.setattr(harness, "integrate_batch",
                        lambda members: batches.append(batch(members)) or batches[-1])
    solves, solve = [], harness.stationary_quadratic
    monkeypatch.setattr(harness, "stationary_quadratic",
                        lambda objectives, topology, k: solves.append(k)
                        or solve(objectives, topology, k))
    rows = sweep_k(config, out_dir=tmp_path)
    [trajs] = batches
    assert solves == [0.0, 10.0, 1.0, 2.5]
    assert len(trajs) == len(gains) and np.isnan(rows[0]["diameter"])
    assert [row["gain"] for row in rows] == grid
    assert np.array(list(rows[1].values())).tobytes() == np.array(list(rows[3].values())).tobytes()
    # the table's bytes from when each repeat was solved and integrated again
    digest = hashlib.sha256((tmp_path / "pair_sweep.csv").read_bytes()).hexdigest()
    assert digest == "e90d0c1a2019281d02c7c8ea9cd03868096175f708a80ec8f49ed67abe317067"
    for k, traj in zip(gains, trajs, strict=True):
        single = integrate(config.build_scenario(gain=k))
        assert traj.times.tobytes() == single.times.tobytes()
        assert traj.states.tobytes() == single.states.tobytes()
        assert traj.fingerprint == single.fingerprint and traj.stats == single.stats


def test_gain_grid_divergence_is_the_first_in_time_error(tmp_path, capsys):
    # forced, the pair diverges at t=0.17 at gain 10, at t=0.12 at gain 1 and at
    # t=0.22 at gain 100: the batch raises gain 1's error, though gain 10 comes first
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["analysis"]["k_grid"] = [10.0, 1.0, 100.0]
    cfg["disturbance"] = FORCING
    path = _write(tmp_path, cfg, "pair.json")
    config = load_config(path)
    with pytest.raises(DivergenceError) as ref:
        integrate(config.build_scenario(gain=1.0))
    assert str(ref.value).startswith("state diverged at t=0.12: node 1 ")
    calls = [lambda: _integrate(_gain_plan(config, cfg["analysis"]["k_grid"])[1]),
             lambda: sweep_k(config), lambda: run(config, "eps-optimal")]
    for call in calls:
        with pytest.raises(DivergenceError) as err:
            call()
        assert err.value.time == ref.value.time and err.value.node == ref.value.node
        assert err.value.state.tobytes() == ref.value.state.tobytes()
        assert str(err.value) == str(ref.value)
    for command in (["sweep-k"], ["verify", "eps-optimal"]):
        assert main(command + ["--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {ref.value}\n"


def test_steps_past_the_stability_certificate_exit_2(tmp_path, capsys):
    # pair at h = 0.01 has h*rho = 0.01 * (2K + 1): 20.01 at K = 1000, 2.81 at
    # K = 140; in member order gain 1000 is the first to fail
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["analysis"]["k_grid"] = [1.0, 1000.0, 140.0]
    path = _write(tmp_path, cfg, "pair.json")
    message = ("numerical failure: step 0.01 fails RK4's stability certificate at gain "
               "1000.0: rho = max_i(2*K*d_i + Lip_i) = 2001 and h*rho = 20.01 > 2.785; "
               "the largest step that passes is 0.0013918040979510246\n")
    for command in (["sweep-k"], ["verify", "eps-optimal"]):
        assert main(command + ["--config", path]) == 2
        assert capsys.readouterr() == ("", message)
    # complete(300) with radius-2 balls at gain 1: d_i = 299, so h*rho = 5.99
    n = 300
    centers = np.random.default_rng(0).uniform(-5.0, 5.0, (n, 2)).tolist()
    dense = _write(tmp_path, {
        "name": "complete", "m": 2, "nodes": n,
        "objectives": [{"kind": "sqdist", "set": {"kind": "ball", "center": c, "radius": 2.0}}
                       for c in centers],
        "topology": {"kind": "fixed",
                     "arcs": [[j, i] for j in range(n) for i in range(n) if i != j]},
        "integrator": {"tf": 0.45}, "x0": {"kind": "uniform_box"}, "seed": 1}, "complete.json")
    assert main(["sim", "--config", dense, "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: step 0.01 fails RK4's stability certificate at gain 1.0: "
        "rho = max_i(2*K*d_i + Lip_i) = 599 and h*rho = 5.99 > 2.785; the largest step "
        "that passes is 0.004649415692821369\n")
    assert not list(tmp_path.glob("complete_*"))  # refused before any trace
    # pair at K = 135 has h*rho = 2.71 and still passes
    cfg["analysis"]["k_grid"] = [135.0]
    assert main(["sweep-k", "--config", _write(tmp_path, cfg, "pair135.json"), "--quiet"]) == 0


def test_step_counts_past_any_buffer_exit_2(tmp_path, capsys):
    # balls.json (N = 3, m = 2) to tf = 60: at h = 1e-300 its 6e301 steps pass
    # numpy's dimension limit, and at h = 5e-324, or to tf = 1e308, the count
    # is infinite; each is refused after the certificate, before any step
    balls = str(CONFIGS / "balls.json")
    cfg = json.loads((CONFIGS / "balls.json").read_text())
    cfg["integrator"]["tf"] = 1e308
    endless = _write(tmp_path, cfg, "endless.json")
    for argv, step, tf, steps, nbytes in (
            (["--config", balls, "--h", "1e-300"], "1e-300", "60.0", "6e+301", "3.36e+303"),
            (["--config", balls, "--h", "5e-324"], "5e-324", "60.0", "inf", "inf"),
            (["--config", endless], "0.01", "1e+308", "inf", "inf")):
        assert main(["sim", *argv, "--out-dir", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr() == ("", (
            f"numerical failure: step {step} over [0.0, {tf}] needs {steps} steps, a "
            f"trajectory buffer of {nbytes} bytes, which cannot be allocated\n"))
    assert not list(tmp_path.glob("*_simulate*"))
    # a library caller gets the same error, an ArithmeticError
    with pytest.raises(OverflowError, match="needs inf steps"):
        integrate(dataclasses.replace(load_config(balls), step=5e-324).build_scenario())


def test_initial_state_past_the_divergence_limit_exits_1(tmp_path, capsys):
    # balls.json from x0[0] = (2e8, 0) shrinks, but the guard would report its
    # first step as a divergence: the config refuses it, and a box bound alike
    cfg = json.loads((CONFIGS / "balls.json").read_text())
    for x0, path, shown in (([[2e8, 0], [0, 1], [1, 0]], "x0[0][0]", "2e+08"),
                            ([[0, 1], [1, -1.5e8], [0, 0]], "x0[1][1]", "-1.5e+08"),
                            ({"kind": "uniform_box", "low": -1e9}, "x0.low", "-1e+09"),
                            ({"kind": "uniform_box", "high": 2e8}, "x0.high", "2e+08")):
        cfg["x0"] = x0
        config = _write(tmp_path, cfg, "far.json")
        assert main(["sim", "--config", config, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr() == (
            "", f"config error: {path}: {shown} is past the divergence limit |x| <= 1e+08\n")
    assert not list(tmp_path.glob("*_simulate*"))
    # the limit itself is within it; a library caller past it gets a ValueError
    cfg["x0"] = [[1e8, 0], [0, -1e8], [0, 0]]
    config = ScenarioConfig.from_dict(cfg)
    x0 = np.array(config.x0_spec)
    x0[1, 1] = np.nextafter(-1e8, -np.inf)
    with pytest.raises(ValueError, match="divergence limit"):
        Scenario(config.objectives, config.topology, x0, tf=1.0)


def test_integers_past_a_double_exit_1(tmp_path, capsys):
    # a JSON integer too large for a double is a config error at its key,
    # not a numerical failure
    for key, path in ((("integrator", "tf"), "integrator.tf"), (("x0", "low"), "x0.low")):
        for huge in (10 ** 400, -10 ** 400):
            cfg = json.loads((CONFIGS / "balls.json").read_text())
            cfg[key[0]][key[1]] = huge
            config = _write(tmp_path, cfg, "huge.json")
            assert main(["sim", "--config", config, "--out-dir", str(tmp_path), "--quiet"]) == 1
            assert capsys.readouterr() == (
                "", f"config error: {path}: number is too large for a double\n")
    assert not list(tmp_path.glob("*_simulate*"))


def test_cli_exit_code_claim_failure(tmp_path):
    cfg = quad_config(analysis={"tolerances": {"necessity_floor": 10.0}})
    path = _write(tmp_path, cfg)
    assert main(["verify", "exact", "--config", path, "--quiet"]) == 3


def test_cli_check_graph_fixed(tmp_path, capsys):
    path = _write(tmp_path, ball_config())
    assert main(["check-graph", "--config", path, "--quiet"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "fixed"
    assert info["strongly_connected"] is True
    assert info["symmetric_weights"] is True
    assert abs(info["lambda2"] - 3.0) <= 1e-10


def test_cli_check_graph_switching(tmp_path, capsys):
    path = _write(tmp_path, switching_config())
    assert main(["check-graph", "--config", path, "--quiet"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "switching"
    assert info["window"] == 1.0
    assert info["uniformly_jointly_strongly_connected"] is True
    assert info["union_strongly_connected"] is True
    # starts 0.1 / 0.4 with period 0.8: the union window begins at the start
    shifted = switching_config(integrator={"t0": 0.1, "tf": 2.0})
    shifted["topology"].update(dwell=0.3, period=0.8)
    shifted["topology"]["intervals"][0]["start"] = 0.1
    shifted["topology"]["intervals"][1]["start"] = 0.4
    path = _write(tmp_path, shifted, "shifted.json")
    assert main(["check-graph", "--config", path, "--quiet"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["window"] == 0.8
    assert info["uniformly_jointly_strongly_connected"] is True
    assert info["union_strongly_connected"] is True


def test_cli_oracle(tmp_path, capsys):
    cfg = quad_config(analysis={"k_grid": [1.0, 10.0]})
    path = _write(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--quiet"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["gain"] for r in rows] == [1.0, 10.0]
    assert abs(rows[1]["disagreement"] - 3.0 / (np.sqrt(2.0) * 21.0)) <= 1e-12


def test_cli_sweep_k(tmp_path, capsys):
    cfg = quad_config(tf=10.0, analysis={"k_grid": [1.0, 10.0]})
    path = _write(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["sweep-k", "--config", path, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "pair_sweep.csv").exists()
    assert "gain=1" in capsys.readouterr().out


@pytest.mark.parametrize("config_file", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_cli_check_graph_committed_configs(config_file, capsys):
    assert main(["check-graph", "--config", str(CONFIGS / config_file)]) == 0
    assert json.loads(capsys.readouterr().out)["n_nodes"] >= 2


def test_cli_forced_pair(tmp_path):
    # the gain members of one batch share the config's forcing object
    cfg = json.loads((CONFIGS / "pair.json").read_text())
    cfg["disturbance"] = {"kind": "exponential", "vectors": [[1.0], [-1.0]], "rate": 2.0}
    path = _write(tmp_path, cfg, "pair_forced.json")
    for command in (["sweep-k"], ["verify", "eps-optimal"]):
        assert main(command + ["--config", path, "--quiet"]) == 0


def _mixed(**extra):
    cfg = {
        "name": "mixed", "m": 2, "nodes": 4,
        "objectives": [
            {"kind": "sqdist", "set": {"kind": "ball", "center": [1.0, 0.0], "radius": 0.5}},
            {"kind": "sqdist",
             "set": {"kind": "box", "lower": [-1.0, -1.0], "upper": [0.0, float("inf")]}},
            {"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]], "center": [0.0, 1.0]},
            {"kind": "sum", "parts": [
                {"kind": "sqdist", "set": {"kind": "point", "at": [0.5, -0.5]}},
                {"kind": "sum", "parts": [
                    {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 3.0]],
                     "center": [-1.0, 0.0]},
                    {"kind": "sqdist",
                     "set": {"kind": "ball", "center": [0.0, -1.0], "radius": 0.7}}]}]},
        ],
        "topology": {"kind": "fixed", "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        "integrator": {"tf": 5.0},
        "analysis": {"k_grid": [1.0, 10.0]},
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def test_cli_nested_sum_family(tmp_path):
    # every kind with nested sums: the grouped gradient kernel, and the grouped
    # team value and global_min's numerical descent through sweep-k's gap
    path = _write(tmp_path, _mixed(), "mixed.json")
    assert main(["sim", "--config", path, "--quiet"]) == 0
    assert main(["sweep-k", "--config", path, "--out-dir", str(tmp_path), "--quiet"]) == 0
    # the sweep's gap is the terminal sample of the whole gap column
    config = load_config(path)
    team = global_min(config.objectives).value
    with (tmp_path / "mixed_sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    _, scenarios, _, _ = _gain_plan(config, [1.0, 10.0])
    for row, traj in zip(rows, _integrate(scenarios), strict=True):
        gap = optimality_gap(traj, config.objectives, team)[-1].max()
        assert float(row["gap_max"]) == gap
    # a sum's argmin set is not represented, so the exact suite cannot decide
    # the dichotomy: a failed claim, exit code 3
    assert main(["verify", "exact", "--config", path, "--quiet"]) == 3


def test_cli_sum_free_mixed_family_passes_exact(tmp_path):
    # every set kind meeting at [0, 0.5]: the exact suite decides the
    # intersection through the grouped separation and projection pass
    cfg = _mixed(name="mixed_exact", integrator={"tf": 40.0}, objectives=[
        {"kind": "sqdist", "set": {"kind": "ball", "center": [0.5, 0.0], "radius": 1.0}},
        {"kind": "sqdist",
         "set": {"kind": "box", "lower": [-1.0, 0.0], "upper": [0.0, float("inf")]}},
        {"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 1.0]], "center": [0.0, 0.5]},
        {"kind": "sqdist", "set": {"kind": "point", "at": [0.0, 0.5]}},
    ])
    del cfg["analysis"]
    path = _write(tmp_path, cfg, "mixed_exact.json")
    assert main(["verify", "exact", "--config", path, "--quiet"]) == 0


def test_cli_rejects_a_reference_point(tmp_path, capsys):
    # the envelope's reference point is the certified witness: a config that
    # names its own is refused
    cfg = json.loads((CONFIGS / "balls.json").read_text())
    cfg["analysis"] = {"z_star": [3.0, 3.0]}
    path = _write(tmp_path, cfg, "balls_zstar.json")
    assert main(["verify", "exact", "--config", path, "--quiet"]) == 1
    assert "unknown key 'z_star'" in capsys.readouterr().err


def test_cli_check_graph_long_chain(tmp_path, capsys):
    # a 10^4-node chain k+1 -> k rooted at its last node: the spanning-tree
    # decision is one pass over the nodes, not a walk per candidate root
    n = 10000
    path = _write(tmp_path, {
        "name": "chain", "m": 1, "nodes": n,
        "objectives": [{"kind": "sqdist", "set": {"kind": "point", "at": [0.0]}}] * n,
        "topology": {"kind": "fixed", "arcs": [[k + 1, k] for k in range(n - 1)]},
        "integrator": {"tf": 1.0}}, "chain.json")
    assert main(["check-graph", "--config", path]) == 0
    assert '"has_spanning_tree": true' in capsys.readouterr().out


def test_cli_sim_trace_past_one_block(tmp_path):
    # more nodes than one trace block holds: the writer formats one sample per
    # block, and the trace reads back whole
    n = 1100
    path = _write(tmp_path, {
        "name": "ring", "m": 2, "nodes": n,
        "objectives": [{"kind": "sqdist",
                        "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}}] * n,
        "topology": {"kind": "fixed", "arcs": [[k, (k + 1) % n] for k in range(n)]},
        "integrator": {"tf": 0.05},
        "x0": {"kind": "uniform_box", "low": -5.0, "high": 5.0}, "seed": 1}, "ring.json")
    assert main(["sim", "--config", path, "--out-dir", str(tmp_path), "--quiet"]) == 0
    _, states, _ = read_trace(tmp_path / "ring_simulate.csv")
    assert states.shape == (6, 1100, 2)


# --- the benchmark's tracer ---------------------------------------------------

def test_benchmark_tracer_attributes_exist(monkeypatch):
    """perfbench's tracer replaces these attributes by name; a missing one
    would crash the benchmark's warm-up."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}"
               for owners, attr, *_ in spans.SPANNED + spans.COUNTED
               for owner in owners if attr not in vars(owner)]
    assert not missing
