"""Scenario configs, verification suites, and artifact writers.

Configs are JSON documents; unknown keys are rejected so typos fail loudly.
A loaded :class:`ScenarioConfig` is the record of one run.  Suites turn it
into a list of claim checks with explicit margins, written out as a JSON
report plus CSV traces that round-trip exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    check_disagreement_bound,
    consensus_diameter,
    detect_convergence,
    dini_nonincreasing,
    lyapunov_trace,
    node_optimum_residuals,
    optimality_gap,
    sphere_intersection,
    stationary_oracle_unmet,
    stationary_quadratic,
)
from .dynamics import (
    ExponentialDecayDisturbance,
    Scenario,
    integrate,
    integrate_batch,
)
from .graphs import SwitchingSignal, WeightedDigraph
from .objectives import (
    Ball,
    Box,
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

SUITES = ("simulate", "exact", "eps-optimal", "switching")

DEFAULT_TOLERANCES = {
    "diameter": 1e-4,
    "residual": 1e-4,
    "gap": 1e-6,
    "terminal_match": 1e-6,
    "oracle_diameter_match": 1e-4,
    "necessity_floor": 1e-3,
    "vi_spread": 1e-3,
    "switching_residual": 1e-3,
    "sphere_match": 1e-3,
    "bound_slack": 1e-12,
    "dini_slack_scale": 1e-6,
}


class ConfigError(ValueError):
    """Configuration is syntactically or semantically invalid."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError("expected an object", path)
    return value


def _check_keys(d, allowed, required, path):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key '{k}'", path)
    for k in required:
        if k not in d:
            raise ConfigError(f"missing required key '{k}'", path)


def _number(v, path, positive=False, nonnegative=False, infinite=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("expected a number", path)
    v = float(v)
    if not (np.isfinite(v) or (infinite and np.isinf(v))):
        raise ConfigError("number must not be NaN" if infinite else "number must be finite", path)
    if positive and v <= 0.0:
        raise ConfigError("number must be positive", path)
    if nonnegative and v < 0.0:
        raise ConfigError("number must be nonnegative", path)
    return v


def _int(v, path, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("expected an integer", path)
    if minimum is not None and v < minimum:
        raise ConfigError(f"must be at least {minimum}", path)
    return v


def _float_list(v, path, length=None, infinite=False):
    if not isinstance(v, list):
        raise ConfigError("expected a list of numbers", path)
    out = [_number(x, f"{path}[{i}]", infinite=infinite) for i, x in enumerate(v)]
    if length is not None and len(out) != length:
        raise ConfigError(f"expected {length} entries, got {len(out)}", path)
    return out


def _parse_set(d, m, path):
    d = _require_mapping(d, path)
    kind = d.get("kind")
    if kind == "point":
        _check_keys(d, {"kind", "at"}, {"kind", "at"}, path)
        return Point(_float_list(d["at"], f"{path}.at", m))
    if kind == "ball":
        _check_keys(d, {"kind", "center", "radius"}, {"kind", "center", "radius"}, path)
        return Ball(_float_list(d["center"], f"{path}.center", m),
                    _number(d["radius"], f"{path}.radius", nonnegative=True))
    if kind == "box":
        _check_keys(d, {"kind", "lower", "upper"}, {"kind", "lower", "upper"}, path)
        lower = _float_list(d["lower"], f"{path}.lower", m, infinite=True)
        upper = _float_list(d["upper"], f"{path}.upper", m, infinite=True)
        try:
            return Box(lower, upper)
        except ValueError as err:
            raise ConfigError(str(err), path) from None
    raise ConfigError(f"unknown set kind '{kind}'", path)


def _parse_component(d, m, path):
    d = _require_mapping(d, path)
    kind = d.get("kind")
    try:
        if kind == "quadratic":
            _check_keys(d, {"kind", "matrix", "center"}, {"kind", "matrix", "center"}, path)
            if not isinstance(d["matrix"], list):
                raise ConfigError("matrix must be a list of rows", f"{path}.matrix")
            rows = [_float_list(r, f"{path}.matrix[{i}]", m) for i, r in enumerate(d["matrix"])]
            if len(rows) != m:
                raise ConfigError(f"matrix must be {m}x{m}", f"{path}.matrix")
            return Quadratic(np.array(rows), _float_list(d["center"], f"{path}.center", m))
        if kind == "sqdist":
            _check_keys(d, {"kind", "set"}, {"kind", "set"}, path)
            return SquaredDistance(_parse_set(d["set"], m, f"{path}.set"))
        if kind == "sum":
            _check_keys(d, {"kind", "parts"}, {"kind", "parts"}, path)
            if not isinstance(d["parts"], list) or not d["parts"]:
                raise ConfigError("parts must be a nonempty list", f"{path}.parts")
            return Sum([_parse_component(p, m, f"{path}.parts[{i}]")
                        for i, p in enumerate(d["parts"])])
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err), path) from None
    raise ConfigError(f"unknown objective kind '{kind}'", path)


def _parse_arcs(d, n, path):
    arcs = d.get("arcs")
    if not isinstance(arcs, list):
        raise ConfigError("arcs must be a list of [from, to] pairs", f"{path}.arcs")
    pairs = {}  # (from, to) -> index in the list, in config order
    for i, a in enumerate(arcs):
        if not (isinstance(a, list) and len(a) == 2):
            raise ConfigError("each arc is a [from, to] pair", f"{path}.arcs[{i}]")
        pair = (_int(a[0], f"{path}.arcs[{i}][0]"), _int(a[1], f"{path}.arcs[{i}][1]"))
        if pair in pairs:
            raise ConfigError(f"duplicate arc {list(pair)}, first given as arcs[{pairs[pair]}]",
                              f"{path}.arcs[{i}]")
        pairs[pair] = i
    if "weights" in d and "weight" in d:
        raise ConfigError("give either 'weights' or 'weight', not both", path)
    if "weights" in d:
        w = _float_list(d["weights"], f"{path}.weights", len(pairs))
    else:
        w = [_number(d.get("weight", 1.0), f"{path}.weight")] * len(pairs)
    bounds = None
    if "weight_bounds" in d:
        b = _float_list(d["weight_bounds"], f"{path}.weight_bounds", 2)
        bounds = (b[0], b[1])
    try:
        return WeightedDigraph(n, dict(zip(pairs, w)), bounds)
    except ValueError as err:
        raise ConfigError(str(err), path) from None


def _parse_topology(d, n, path):
    d = _require_mapping(d, path)
    kind = d.get("kind")
    if kind == "fixed":
        _check_keys(d, {"kind", "arcs", "weights", "weight", "weight_bounds"},
                    {"kind", "arcs"}, path)
        return _parse_arcs(d, n, path)
    if kind == "switching":
        _check_keys(d, {"kind", "dwell", "period", "horizon", "intervals"},
                    {"kind", "dwell", "intervals"}, path)
        if not isinstance(d["intervals"], list) or not d["intervals"]:
            raise ConfigError("intervals must be a nonempty list", f"{path}.intervals")
        items = []
        for i, item in enumerate(d["intervals"]):
            ipath = f"{path}.intervals[{i}]"
            item = _require_mapping(item, ipath)
            _check_keys(item, {"start", "arcs", "weights", "weight", "weight_bounds"},
                        {"start", "arcs"}, ipath)
            items.append((_number(item["start"], f"{ipath}.start"),
                          _parse_arcs(item, n, ipath)))
        kwargs = {}
        if "period" in d:
            kwargs["period"] = _number(d["period"], f"{path}.period", positive=True)
        if "horizon" in d:
            kwargs["horizon"] = _number(d["horizon"], f"{path}.horizon")
        try:
            return SwitchingSignal(items, _number(d["dwell"], f"{path}.dwell", positive=True),
                                   **kwargs)
        except ValueError as err:
            raise ConfigError(str(err), path) from None
    raise ConfigError(f"unknown topology kind '{kind}'", path)


def _parse_law(d, path):
    """The law's gain: 1 for J* (``jstar``, the default) and K for J_K (``jk``)."""
    if d is None:
        return 1.0
    d = _require_mapping(d, path)
    kind = d.get("kind")
    if kind == "jstar":
        _check_keys(d, {"kind"}, {"kind"}, path)
        return 1.0
    if kind == "jk":
        _check_keys(d, {"kind", "K"}, {"kind", "K"}, path)
        return _number(d["K"], f"{path}.K", positive=True)
    raise ConfigError(f"unknown law kind '{kind}'", path)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One run: a validated scenario plus its analysis options.

    Re-run it on another draw or step with ``dataclasses.replace(config,
    seed=..., step=...)``, as the CLI's ``--seed`` and ``--h`` do.
    """

    raw: dict
    name: str
    objectives: ObjectiveSet
    topology: WeightedDigraph | SwitchingSignal
    gain: float
    t0: float
    tf: float
    step: float
    seed: int
    x0_spec: list | dict
    disturbance: ExponentialDecayDisturbance | None
    analysis: dict

    @classmethod
    def from_dict(cls, raw, source="<dict>"):
        raw = _require_mapping(raw, "")
        _check_keys(raw,
                    {"name", "m", "nodes", "objectives", "topology", "law",
                     "integrator", "x0", "seed", "disturbance", "analysis"},
                    {"m", "nodes", "objectives", "topology", "integrator"}, "")
        m = _int(raw["m"], "m", minimum=1)
        n = _int(raw["nodes"], "nodes", minimum=1)
        name = raw.get("name", Path(source).stem if source != "<dict>" else "scenario")
        if not isinstance(name, str) or not name:
            raise ConfigError("name must be a nonempty string", "name")

        objs = raw["objectives"]
        if not isinstance(objs, list):
            raise ConfigError("expected a list with one objective per node", "objectives")
        if len(objs) != n:
            raise ConfigError(f"expected {n} objectives, got {len(objs)}", "objectives")
        components = [_parse_component(o, m, f"objectives[{i}]") for i, o in enumerate(objs)]
        objectives = ObjectiveSet(components)

        topology = _parse_topology(raw["topology"], n, "topology")
        gain = _parse_law(raw.get("law"), "law")

        integ = _require_mapping(raw["integrator"], "integrator")
        _check_keys(integ, {"h", "t0", "tf"}, {"tf"}, "integrator")
        t0 = _number(integ.get("t0", 0.0), "integrator.t0")
        tf = _number(integ["tf"], "integrator.tf")
        step = _number(integ.get("h", 0.01), "integrator.h", positive=True)

        seed = _int(raw.get("seed", 0), "seed", minimum=0)

        x0_spec = raw.get("x0", {"kind": "uniform_box", "low": -5.0, "high": 5.0})
        if isinstance(x0_spec, list):
            if len(x0_spec) != n:
                raise ConfigError(f"expected {n} initial states", "x0")
            x0_spec = [_float_list(row, f"x0[{i}]", m) for i, row in enumerate(x0_spec)]
        else:
            x0_spec = _require_mapping(x0_spec, "x0")
            _check_keys(x0_spec, {"kind", "low", "high"}, {"kind"}, "x0")
            if x0_spec.get("kind") != "uniform_box":
                raise ConfigError(f"unknown x0 kind '{x0_spec.get('kind')}'", "x0.kind")
            low = _number(x0_spec.get("low", -5.0), "x0.low")
            high = _number(x0_spec.get("high", 5.0), "x0.high")
            if high <= low:
                raise ConfigError("high must exceed low", "x0")
            x0_spec = {"kind": "uniform_box", "low": low, "high": high}

        dist = raw.get("disturbance")
        if dist is not None:
            dist = _require_mapping(dist, "disturbance")
            _check_keys(dist, {"kind", "vectors", "rate"}, {"kind", "vectors"}, "disturbance")
            if dist.get("kind") != "exponential":
                raise ConfigError(f"unknown disturbance kind '{dist.get('kind')}'",
                                  "disturbance.kind")
            vectors = dist["vectors"]
            if not isinstance(vectors, list) or len(vectors) != n:
                raise ConfigError(f"expected {n} disturbance vectors", "disturbance.vectors")
            vectors = [_float_list(v, f"disturbance.vectors[{i}]", m)
                       for i, v in enumerate(vectors)]
            dist = ExponentialDecayDisturbance(
                vectors, _number(dist.get("rate", 1.0), "disturbance.rate", positive=True))

        ana = _require_mapping(raw.get("analysis", {}), "analysis")
        _check_keys(ana, {"k_grid", "ujsc_window", "tolerances"}, set(), "analysis")
        analysis = {}
        if "k_grid" in ana:
            grid = _float_list(ana["k_grid"], "analysis.k_grid")
            if any(k < 0 for k in grid):
                raise ConfigError("gains must be nonnegative", "analysis.k_grid")
            analysis["k_grid"] = grid
        if "ujsc_window" in ana:
            analysis["ujsc_window"] = _number(ana["ujsc_window"], "analysis.ujsc_window",
                                              positive=True)
        tols = dict(DEFAULT_TOLERANCES)
        if "tolerances" in ana:
            over = _require_mapping(ana["tolerances"], "analysis.tolerances")
            _check_keys(over, set(DEFAULT_TOLERANCES), set(), "analysis.tolerances")
            for k, v in over.items():
                tols[k] = _number(v, f"analysis.tolerances.{k}", positive=True)
        analysis["tolerances"] = tols

        config = cls(raw, name, objectives, topology, gain, t0, tf, step, seed,
                     x0_spec, dist, analysis)
        try:  # the scenario and its topology judge the run window
            config.build_scenario()
        except ValueError as err:
            raise ConfigError(str(err), "integrator") from None
        return config

    @property
    def tolerances(self) -> dict:
        return self.analysis["tolerances"]

    @property
    def ujsc_window(self) -> float:
        """Joint-connectivity window of a switching topology.

        ``analysis.ujsc_window`` when given, else the schedule's period, else
        its whole span from start to horizon.
        """
        sig = self.topology
        return self.analysis.get(
            "ujsc_window", sig.period if sig.is_periodic else (sig.horizon - sig.start_time))

    def require_oracle(self, what):
        """Raise ConfigError naming ``what`` unless the stationary oracle applies."""
        unmet = stationary_oracle_unmet(self.objectives, self.topology)
        if unmet is not None:
            raise ConfigError(f"{what} needs {unmet[1]}", unmet[0])

    def content_hash(self) -> str:
        """Fingerprint of the run: the raw JSON plus its seed and step."""
        blob = f"{json.dumps(self.raw, sort_keys=True)}|seed={self.seed}|step={self.step}"
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_scenario(self, gain=None) -> Scenario:
        """The scenario of this run, at ``gain`` in place of the config's when given."""
        n, m = self.objectives.n_nodes, self.objectives.m
        if isinstance(self.x0_spec, list):
            x0 = np.array(self.x0_spec, dtype=float)
        else:
            rng = np.random.default_rng(self.seed)
            x0 = rng.uniform(self.x0_spec["low"], self.x0_spec["high"], size=(n, m))
        return Scenario(
            self.objectives, self.topology, x0=x0, tf=self.tf, t0=self.t0,
            gain=self.gain if gain is None else gain, step=self.step,
            disturbance=self.disturbance, name=self.name,
        )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno}: {err.msg}") from None
    return ScenarioConfig.from_dict(raw, source=str(path))


@dataclass
class ClaimResult:
    """One verified statement with the margin left before its tolerance."""

    id: str
    ref: str
    passed: bool
    margin: float | None
    detail: str

    def to_dict(self) -> dict:
        return {"id": self.id, "ref": self.ref, "pass": self.passed,
                "margin": self.margin, "detail": self.detail}


@dataclass
class RunReport:
    name: str
    suite: str
    fingerprint: str
    claims: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def report_hash(self) -> str:
        body = {
            "name": self.name,
            "suite": self.suite,
            "fingerprint": self.fingerprint,
            "claims": [c.to_dict() for c in self.claims],
        }
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "scenario": {"name": self.name, "fingerprint": self.fingerprint},
            "suite": self.suite,
            "pass": self.passed,
            "claims": [c.to_dict() for c in self.claims],
            "artifacts": list(self.artifacts),
            "report_hash": self.report_hash,
            "wall_seconds": self.wall_seconds,
        }


_TRACE_BLOCK = 1024  # trace rows per string operation, in whole samples (at least one)


def write_trace(path, trajectory, extras=None) -> list:
    """Write a trajectory CSV (one row per node per sample) plus a sidecar.

    Floats are printed with 17 significant digits so re-reading reproduces
    them bit for bit.  ``extras`` maps column names to (T, n_nodes) arrays.
    The bytes are ``np.savetxt``'s; the rows are formatted a block of samples
    at a time, so the writer holds one block beyond its inputs.
    """
    path = Path(path)
    extras = dict(extras or {})
    n, m = trajectory.n_nodes, trajectory.m
    for key, arr in extras.items():
        extras[key] = np.asarray(arr, dtype=float)
        if extras[key].shape != (trajectory.times.shape[0], n):
            raise ValueError(f"extra column '{key}' must be shaped (T, n_nodes)")
    header = ["t", "node"] + [f"comp_{k}" for k in range(m)] + sorted(extras)
    columns = [trajectory.states] + [extras[k][..., None] for k in sorted(extras)]
    # np.savetxt's row "%.17g,%d,%.17g,...": a sample's time is formatted once
    # and joins node i's tail ",i,%.17g,...,%.17g\r\n"
    tails = [f",{i}" + ",%.17g" * (len(header) - 2) + "\r\n" for i in range(n)]
    per = max(1, _TRACE_BLOCK // n)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, trajectory.times.shape[0], per):
            block = np.concatenate([c[lo:lo + per] for c in columns], axis=-1)
            stamps = ["%.17g" % t for t in trajectory.times[lo:lo + per].tolist()]
            row = "".join(t + t.join(tails) for t in stamps)
            fh.write(row % tuple(block.ravel().tolist()))
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps({
        "fingerprint": trajectory.fingerprint,
        "stats": trajectory.stats,
        "n_nodes": n,
        "m": m,
        "columns": header,
    }, indent=2) + "\n")
    return [str(path), str(sidecar)]


def read_trace(path):
    """Inverse of :func:`write_trace`; returns ``(times, states, extras)``."""
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader(fh))
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    m = sum(c.startswith("comp_") for c in header)
    times = table[table[:, 1] == 0, 0]
    states = table[:, 2:2 + m].reshape(times.shape[0], -1, m)
    extras = {k: table[:, 2 + m + j].reshape(times.shape[0], -1)
              for j, k in enumerate(header[2 + m:])}
    return times, states, extras


def _threshold_claim(cid, ref, value, tol, detail=""):
    value = float(value)
    note = f"{detail + '; ' if detail else ''}observed {value:.6e}, allowed {tol:.6e}"
    return ClaimResult(cid, ref, bool(value <= tol), float(tol - value), note)


def _dini_claim(times, envelope, scale):
    slack = scale * np.maximum(1.0, envelope)
    check = dini_nonincreasing(times, envelope, slack)
    detail = "no forward-difference increase beyond slack"
    if not check.nonincreasing:
        detail = f"first violation at t={check.first_violation_time}"
    return ClaimResult(
        "lyapunov-nonincreasing",
        "max-node squared distance to the witness must not increase",
        check.nonincreasing, float(-check.worst_excess), detail)


def _witness(config):
    """Witness of the common-minimizer intersection, or the reason there is none."""
    try:
        sets = config.objectives.argmin_sets()
    except UnsupportedRepresentationError as err:
        return None, "undecided", str(err)
    result = intersection_nonempty(sets)
    return result.witness, result.status, ""


def _suite_simulate(config):
    traj = integrate(config.build_scenario())
    status, t_conv = detect_convergence(traj, config.objectives)
    diam = float(consensus_diameter(traj.terminal_state))
    claim = ClaimResult(
        "integration-completed", "the run finishes without divergence", True, None,
        f"status={status} at t={t_conv}; terminal diameter {diam:.6e}")
    return [claim], [(traj, None, "")]


def _suite_exact(config):
    if not isinstance(config.topology, WeightedDigraph):
        raise ConfigError("the exact suite needs a fixed topology", "topology")
    tols = config.tolerances
    claims = []
    z, status, why = _witness(config)

    claims.append(ClaimResult(
        "fixed-graph-strongly-connected",
        "every node must reach every other along directed arcs",
        config.topology.is_strongly_connected(), None, "checked by forward and "
        "reverse reachability"))

    scenario = config.build_scenario()
    traj = integrate(scenario)
    extras = {}

    if status == "undecided":
        claims.append(ClaimResult(
            "common-minimizer-decided",
            "the intersection of node argmin sets must be decidable",
            False, None, why or "intersection test returned 'undecided'"))
        return claims, [(traj, extras, "")]

    if status == "nonempty":
        v = lyapunov_trace(traj, z)
        extras["v"] = v
        claims.append(_dini_claim(traj.times, v.max(axis=1), tols["dini_slack_scale"]))
        claims.append(_threshold_claim(
            "terminal-diameter", "all nodes agree at the end of the run",
            consensus_diameter(traj.terminal_state), tols["diameter"]))
        res = node_optimum_residuals(traj, config.objectives)
        extras["residual"] = res
        claims.append(_threshold_claim(
            "node-optimum-residuals", "each node ends inside its own argmin set",
            res[-1].max(), tols["residual"]))
        # every representable argmin set is where its component is 0, so a
        # shared minimizer puts the team minimum at 0
        gap = optimality_gap(traj, config.objectives, 0.0)
        extras["gap"] = gap
        claims.append(_threshold_claim(
            "optimality-gap", "terminal states minimize the team objective",
            gap[-1].max(), tols["gap"], detail="team minimum 0.000000e+00 (intersection)"))
        return claims, [(traj, extras, "")]

    # empty intersection: agreement cannot be exact; document the gap instead
    diam = float(consensus_diameter(traj.terminal_state))
    claims.append(ClaimResult(
        "disagreement-persists",
        "with no common minimizer the nodes must not fully agree",
        diam > tols["necessity_floor"], float(diam - tols["necessity_floor"]),
        f"exact agreement on one optimum is impossible here; terminal diameter {diam:.6e}"))
    if stationary_oracle_unmet(config.objectives, config.topology) is None:
        sp = stationary_quadratic(config.objectives, config.topology, scenario.gain)
        mismatch = float(np.abs(traj.terminal_state - sp.states).max())
        oracle_diam = consensus_diameter(sp.states)
        claims.append(_threshold_claim(
            "terminal-matches-stationary",
            "the run settles on the stationary point of the penalized objective",
            mismatch, tols["terminal_match"]))
        claims.append(_threshold_claim(
            "diameter-matches-oracle",
            "simulated disagreement matches the stationary solve",
            abs(diam - oracle_diam), tols["oracle_diameter_match"],
            detail=f"oracle diameter {oracle_diam:.6e}"))
    return claims, [(traj, extras, "")]


def _gain_runs(config, grid):
    """Oracle solve, disagreement bound and simulation for each gain of ``grid``.

    Yields ``(gain, point, bound, trajectory)``.  ``point`` and ``bound`` are
    None where the stationary oracle does not apply.  Gain zero is solved by
    the oracle only, so its ``bound`` and ``trajectory`` are None.  The bound
    uses the largest stationary gradient norm over the whole grid.  The
    positive gains are simulated as one batch.
    """
    points, grad_sup, lam2 = {}, None, None
    if stationary_oracle_unmet(config.objectives, config.topology) is None:
        if config.topology.n_nodes < 2 or not config.topology.is_strongly_connected():
            raise ConfigError("the disagreement bound needs a connected topology "
                              "of two or more nodes", "topology")
        lam2 = config.topology.lambda2()
        points = {k: stationary_quadratic(config.objectives, config.topology, k)
                  for k in grid}
        grad_sup = max(p.grad_norm for p in points.values())
    members = [config.build_scenario(gain=k) for k in grid if k > 0.0]
    trajs = iter(integrate_batch(members) if members else [])
    for k in grid:
        sp = points.get(k)
        bound = traj = None
        if k > 0.0:
            if sp is not None:
                bound = check_disagreement_bound(sp, grad_sup, lam2,
                                                 slack=config.tolerances["bound_slack"])
            traj = next(trajs)
        yield k, sp, bound, traj


def _suite_eps(config):
    config.require_oracle("the eps-optimal suite")
    grid = config.analysis.get("k_grid")
    if not grid:
        raise ConfigError("the eps-optimal suite needs analysis.k_grid", "analysis")
    if not any(k > 0.0 for k in grid):  # gain zero is the oracle's alone: no claim
        raise ConfigError("the eps-optimal suite needs a positive gain in analysis.k_grid",
                          "analysis")
    claims, runs = [], []
    for k, sp, bc, traj in _gain_runs(config, grid):
        if traj is None:
            continue
        mismatch = float(np.abs(traj.terminal_state - sp.states).max())
        claims.append(_threshold_claim(
            f"terminal-matches-stationary[k={k:g}]",
            "the run settles on the stationary point of the penalized objective",
            mismatch, config.tolerances["terminal_match"]))
        claims.append(ClaimResult(
            f"disagreement-bound[k={k:g}]",
            "stationary disagreement is at most grad_sup / (gain * lambda2)",
            bc.holds, bc.margin,
            f"disagreement {sp.disagreement:.6e}, bound {bc.bound:.6e}"))
        runs.append((traj, None, f"_k{k:g}"))
    return claims, runs


def _suite_switching(config):
    if not isinstance(config.topology, SwitchingSignal):
        raise ConfigError("the switching suite needs a switching topology", "topology")
    tols = config.tolerances
    sig = config.topology
    window = config.ujsc_window
    claims = [ClaimResult(
        "jointly-connected",
        f"arc unions over every window of length {window:g} are strongly connected",
        sig.check_ujsc(window), None, f"window {window:g}")]

    z, status, why = _witness(config)
    claims.append(ClaimResult(
        "common-minimizer-exists",
        "the node argmin sets must share a point",
        status == "nonempty", None, why or f"intersection status: {status}"))
    traj = integrate(config.build_scenario())
    extras = {}
    if status != "nonempty":
        return claims, [(traj, extras, "")]

    v = lyapunov_trace(traj, z)
    extras["v"] = v
    claims.append(_dini_claim(traj.times, v.max(axis=1), tols["dini_slack_scale"]))
    spread = float(v[-1].max() - v[-1].min())
    claims.append(_threshold_claim(
        "lyapunov-limits-agree",
        "per-node squared distances to the witness share one limit",
        spread, tols["vi_spread"]))
    res = node_optimum_residuals(traj, config.objectives)
    extras["residual"] = res
    claims.append(_threshold_claim(
        "node-optimum-residuals", "each node ends inside its own argmin set",
        res[-1].max(), tols["switching_residual"]))

    try:
        sets = config.objectives.argmin_sets()
        anchors = interior_simplex(sets, z)
        sq = []
        for anchor in anchors:
            sq.append(float(((traj.terminal_state - anchor) ** 2).sum(axis=1).max()))
        diam = float(consensus_diameter(traj.terminal_state))
        scale = 1.0 + np.abs(anchors).max() + np.abs(traj.terminal_state).max()
        y = sphere_intersection(anchors, sq,
                                consistency_tol=max(1e-9, 10.0 * diam * scale))
        dev = float(np.linalg.norm(traj.terminal_state - y, axis=1).max())
        inside = max(float(s.distance(y)) for s in sets)
        claims.append(_threshold_claim(
            "limit-point-reconstruction",
            "terminal distances to interior anchors pin down one optimal point",
            max(dev, inside), tols["sphere_match"],
            detail=f"state-to-point {dev:.6e}, point-to-sets {inside:.6e}"))
    except (ValueError, UnsupportedRepresentationError) as err:
        claims.append(ClaimResult(
            "limit-point-reconstruction",
            "terminal distances to interior anchors pin down one optimal point",
            False, None, f"reconstruction unavailable: {err}"))
    return claims, [(traj, extras, "")]


_SUITE_FUNCS = {
    "simulate": _suite_simulate,
    "exact": _suite_exact,
    "eps-optimal": _suite_eps,
    "switching": _suite_switching,
}


def run(config: ScenarioConfig, suite: str, out_dir=None) -> RunReport:
    """Execute one verification suite and (optionally) write its artifacts."""
    if suite not in _SUITE_FUNCS:
        raise ConfigError(f"unknown suite '{suite}'; choose from {', '.join(SUITES)}")
    started = time.perf_counter()
    claims, runs = _SUITE_FUNCS[suite](config)
    report = RunReport(config.name, suite, config.content_hash(), claims)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for traj, extras, tag in runs:
            report.artifacts += write_trace(
                out / f"{config.name}_{suite}{tag}.csv", traj, extras)
    report.wall_seconds = time.perf_counter() - started
    if out is not None:
        report_path = out / f"{config.name}_{suite}_report.json"
        report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        report.artifacts.append(str(report_path))
    return report


def sweep_k(config: ScenarioConfig, out_dir=None):
    """Tabulate simulated and oracle disagreement across ``analysis.k_grid``.

    Gains of zero are solved by the oracle only (no simulation).  Returns a
    list of row dicts; also writes ``{name}_sweep.csv`` under ``out_dir``.
    """
    grid = config.analysis.get("k_grid")
    if not grid:
        raise ConfigError("sweep needs a gain grid in analysis.k_grid")
    if not isinstance(config.topology, WeightedDigraph):
        raise ConfigError("sweep needs a fixed topology", "topology")

    team = None
    try:
        team = global_min(config.objectives)
    except ValueError:  # numpy's LinAlgError too, on a summed curvature that overflows
        pass

    rows = []
    for k, sp, bc, traj in _gain_runs(config, grid):
        row = {"gain": float(k), "diameter": float("nan"), "gap_max": float("nan"),
               "oracle_disagreement": float("nan"), "oracle_residual": float("nan"),
               "bound_margin": float("nan"), "terminal_mismatch": float("nan")}
        if sp is not None:
            row["oracle_disagreement"] = sp.disagreement
            row["oracle_residual"] = sp.residual
        if bc is not None:
            row["bound_margin"] = bc.margin
        if traj is not None:
            row["diameter"] = float(consensus_diameter(traj.terminal_state))
            if team is not None:  # the gap at the terminal sample only
                row["gap_max"] = float((config.objectives.team_value(traj.terminal_state)
                                        - float(team.value)).max())
            if sp is not None:
                row["terminal_mismatch"] = float(
                    np.abs(traj.terminal_state - sp.states).max())
        rows.append(row)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{config.name}_sweep.csv"
        cols = ["gain", "diameter", "gap_max", "oracle_disagreement",
                "oracle_residual", "bound_margin", "terminal_mismatch"]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([f"{row[c]:.17g}" for c in cols])
    return rows
