"""Scenario configs, verification suites, and artifact writers.

Configs are JSON documents; unknown keys are rejected so typos fail loudly.
A loaded :class:`ScenarioConfig` is the record of one run.  Suites turn it
into a list of claim checks with explicit margins, written out as a JSON
report plus CSV traces that round-trip exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
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
    DIVERGENCE_LIMIT,
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
    try:
        v = float(v)
    except OverflowError:  # an integer past the largest double
        raise ConfigError("number is too large for a double", path) from None
    if not (math.isfinite(v) or (infinite and math.isinf(v))):
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


def _start(v, path):
    """An initial-state entry or bound, within the divergence guard's limit,
    past which the first step would be reported as a divergence."""
    if abs(v) > DIVERGENCE_LIMIT:
        raise ConfigError(f"{v:.6g} is past the divergence limit |x| <= {DIVERGENCE_LIMIT:.0e}",
                          path)
    return v


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
        pair = (a[0], a[1])
        if type(pair[0]) is not int or type(pair[1]) is not int:  # paths only where _int may refuse
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
        if "/" in name or "\0" in name or name in (".", ".."):
            raise ConfigError("a name starts the output file names, so it must not hold "
                              "'/' or NUL, nor be '.' or '..'", "name")

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
            rows = [_float_list(row, f"x0[{i}]", m) for i, row in enumerate(x0_spec)]
            x0_spec = [[_start(v, f"x0[{i}][{k}]") for k, v in enumerate(row)]
                       for i, row in enumerate(rows)]
        else:
            x0_spec = _require_mapping(x0_spec, "x0")
            _check_keys(x0_spec, {"kind", "low", "high"}, {"kind"}, "x0")
            if x0_spec.get("kind") != "uniform_box":
                raise ConfigError(f"unknown x0 kind '{x0_spec.get('kind')}'", "x0.kind")
            low = _start(_number(x0_spec.get("low", -5.0), "x0.low"), "x0.low")
            high = _start(_number(x0_spec.get("high", 5.0), "x0.high"), "x0.high")
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

        ``analysis.ujsc_window`` when given, else the schedule's period.  A
        schedule with a horizon has no window of its own (over its whole span
        any schedule connected in aggregate passes), so it needs the key.
        """
        if "ujsc_window" in self.analysis:
            return self.analysis["ujsc_window"]
        if not self.topology.is_periodic:
            raise ConfigError("a schedule with a horizon needs a joint-connectivity window",
                              "analysis.ujsc_window")
        return self.topology.period

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
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not UTF-8 text: {err}") from None
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


_TRACE_BLOCK = 1024  # trace rows per block, in whole samples (at least one)
_G17 = 24  # bytes in the longest '%.17g' of a double, "-2.2250738585072014e-308"


def _dekker_split(a):
    """``(hi, lo)`` with ``hi + lo == a`` and at most 26 significant bits each."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


# the tables are built from bytes, without numpy arithmetic, which would cost
# every process that imports the package about 1 ms and 0.3-1 MB resident
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_POW10_HI = np.array([_dekker_split(b)[0] for b in _POW10.tolist()])
_LUT4 = bytearray(40000)  # "0000" .. "9999", 4 digits a word
for _j in range(4):  # digit j of each, the most significant first
    _LUT4[_j::4] = b"".join(bytes([c]) * 10 ** (3 - _j) for c in b"0123456789") * 10 ** _j
_LUT4 = np.frombuffer(bytes(_LUT4), np.uint32)
_TZ4 = bytearray(10000)  # trailing '0's of each
for _j in range(1, 5):  # j of them where 10**j divides k
    _TZ4[::10 ** _j] = bytes([_j]) * 10 ** (4 - _j)
_TZ4 = np.frombuffer(bytes(_TZ4), np.uint8)
# 17 digits sit in bytes 3..19 of five words; row z of _STRIP clears the last z
_STRIP = np.frombuffer(b"".join(b"\xff" * (20 - z) + bytes(z) for z in range(17)),
                       np.uint32).reshape(17, 5)


def _two_product(a, q):
    """``(p, err)`` with ``p + err == a * 10**q`` exactly (Dekker 1971)."""
    bh = _POW10_HI.take(q)
    bl = _POW10.take(q)
    p = a * bl
    bl -= bh
    ah, al = _dekker_split(a)
    err = ah * bh - p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _decimal(a):
    """``(e, d)``, 10**16 <= d < 10**17, with ``d * 10**(e - 16)`` the value of
    each ``a`` in (1e-6, 1e16) rounded half-even to 17 significant digits.

    The scale 10**q, q = 16 - e, lies in [1, 22], so it is an exact double and
    ``a * 10**q`` is exactly ``hi + lo``.  No double in the range rounds up to
    10**17: that needs one within 5e-18 (relative) below a power of ten, but
    1, ..., 1e16 are doubles and the doubles nearest 1e-5, ..., 0.1 lie above
    them, so every neighbour below is at least half an ulp (5.5e-17) away.
    """
    q = np.minimum(16 - np.floor(np.log10(a)).astype(np.int64), 22)
    hi, lo = _two_product(a, q)
    # log10 can be one off next to a power of ten: step q so 1e16 <= hi + lo < 1e17
    step = (((hi < 1e16) | ((hi == 1e16) & (lo < 0))).view(np.int8)
            - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).view(np.int8))
    if step.any():
        q += step
        hi, lo = _two_product(a, q)
    # hi is an even integer above 2**53, so rounding lo half-even rounds hi + lo
    return (16 - q).astype(np.int8), hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _layout(e, d, sign):
    """NUL-padded '%.17g' rows of ``d * 10**(e - 16)``, for ``e`` sorted and
    in [-6, 15], and the sign bytes ``sign``."""
    n = e.size
    words = np.zeros((n, 5), np.uint32)
    digits = words.view(np.uint8)[:, 3:]
    tz = np.zeros(n, np.uint8)  # trailing '0' digits
    below = np.ones(n, bool)  # every digit below this group is '0'
    for k in range(4, 0, -1):
        d, r = np.divmod(d, 10000)
        words[:, k] = _LUT4.take(r)
        tz += _TZ4.take(r) * below
        below &= r == 0
    digits[:, 0] = d + 48
    # '%g' drops the fraction's trailing zeros, and its point when none is left
    frac = np.where(e < -4, 16, 16 - e)
    strip = np.minimum(tz, frac)
    words &= _STRIP.take(strip, axis=0)
    point = (strip != frac) * np.uint8(46)
    out = np.zeros((n, _G17), np.uint8)
    out[:, 0] = sign
    bounds = np.searchsorted(e, np.arange(-6, 17))
    for x, lo, hi in zip(range(-6, 16), bounds[:-1], bounds[1:]):  # a run per exponent
        if lo == hi:
            continue
        s, g = out[lo:hi], digits[lo:hi]
        if -4 <= x < 0:  # 0.0ddd
            s[:, 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
            s[:, 2 - x:19 - x] = g
        else:  # ddd.ddd, or d.ddde-0x below 1e-4
            p = max(x, 0)
            s[:, 1:p + 2] = g[:, :p + 1]
            s[:, p + 2] = point[lo:hi]
            s[:, p + 3:19] = g[:, p + 1:]
            if x < -4:
                s[:, 19:23] = np.frombuffer(b"e-0%d" % -x, np.uint8)
    return out.view(f"V{_G17}").ravel()


def _g17(v):
    """``'%.17g' % x`` for each ``x`` of the 1-D float array ``v``, as
    (len(v), 24) uint8 rows that read as the text once their NULs are dropped.

    Zeros are constants, finite values in (1e-6, 1e16) take their digits from
    :func:`_decimal`, and the rest (NaN, infinities, tiny and huge values) go
    through Python's ``%`` one by one.
    """
    out = np.zeros((v.size, _G17), np.uint8)
    rows = out.view(f"V{_G17}").ravel()
    a = np.abs(v)
    out[:, 0] = np.signbit(v) * np.uint8(45)  # '-'
    zero = a == 0
    out[:, 1] = zero * np.uint8(48)  # '0' and '-0'
    fast = (a > 1e-6) & (a < 1e16)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        rows[slow] = np.array(["%.17g" % x for x in v[slow].tolist()],
                              f"S{_G17}").view(rows.dtype)
    idx = np.flatnonzero(fast)
    if idx.size:
        e, d = _decimal(a[idx])
        order = np.argsort(e, kind="stable")  # a radix sort of int8
        e, d, idx = e[order], d[order], idx[order]
        rows[idx] = _layout(e, d, out[idx, 0])
    return out


def _trace_rows(times, nodes, columns):
    """np.savetxt's rows "%.17g,%d,%.17g,...,%.17g\\r\\n" for the samples at
    ``times``, as a (samples, nodes, bytes) uint8 array padded with NULs: each
    float is a 24-byte field from :func:`_g17` followed by its separator."""
    s, (n, wn) = times.shape[0], nodes.shape
    c, width = sum(col.shape[-1] for col in columns), _G17 + 1
    values = np.empty(s + s * n * c)
    values[:s] = times
    np.concatenate(columns, axis=-1, out=values[s:].reshape(s, n, c))
    fields = _g17(values)
    rows = np.zeros((s, n, width + wn + 1 + c * width + 1), np.uint8)
    rows[:, :, :_G17] = fields[:s, None]
    rows[:, :, width:width + wn] = nodes
    cells = rows[:, :, width + wn + 1:-1].reshape(s, n, c, width)
    cells[..., :_G17] = fields[s:].reshape(s, n, c, _G17)
    rows[:, :, [_G17, width + wn]] = 44  # ','
    cells[..., _G17] = 44
    cells[..., -1, _G17] = 13  # '\r'
    rows[:, :, -1] = 10  # '\n'
    return rows


def write_trace(path, trajectory, extras=None) -> list:
    """Write a trajectory CSV (one row per node per sample) plus a sidecar.

    Floats are printed with 17 significant digits so re-reading reproduces
    them bit for bit.  ``extras`` maps column names to (T, n_nodes) arrays.
    The bytes are ``np.savetxt``'s; the rows are built a block of samples at
    a time, as NUL-padded fields from :func:`_g17`, so the writer holds one
    block beyond its inputs.
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
    nodes = np.arange(n).astype(f"S{len(str(n - 1))}").view(np.uint8).reshape(n, -1)
    per = max(1, _TRACE_BLOCK // n)
    text = io.StringIO()
    csv.writer(text).writerow(header)
    with path.open("wb") as fh:
        fh.write(text.getvalue().encode())
        for lo in range(0, trajectory.times.shape[0], per):
            rows = _trace_rows(trajectory.times[lo:lo + per], nodes,
                               [col[lo:lo + per] for col in columns])
            fh.write(rows[rows != 0])
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


def _mismatch(traj, sp):
    """Largest distance, by coordinate, of the terminal state from the stationary point ``sp``."""
    return float(np.abs(traj.terminal_state - sp.states).max())


def _envelope(config, traj, z, residual_tol):
    """The envelope ``v`` of squared distances to the witness ``z``, its Dini
    claim and the terminal node-residual claim, and their trace columns."""
    v = lyapunov_trace(traj, z)
    res = node_optimum_residuals(traj, config.objectives)
    claims = [_dini_claim(traj.times, v.max(axis=1), config.tolerances["dini_slack_scale"]),
              _threshold_claim("node-optimum-residuals",
                               "each node ends inside its own argmin set",
                               res[-1].max(), config.tolerances[residual_tol])]
    return v, claims, {"v": v, "residual": res}


def _suite_simulate(config):
    def judge(traj):
        status, t_conv = detect_convergence(traj, config.objectives)
        diam = float(consensus_diameter(traj.terminal_state))
        return [ClaimResult(
            "integration-completed", "the run finishes without divergence", True, None,
            f"status={status} at t={t_conv}; terminal diameter {diam:.6e}")], None
    return [(config.build_scenario(), "", judge)]


def _suite_exact(config):
    if not isinstance(config.topology, WeightedDigraph):
        raise ConfigError("the exact suite needs a fixed topology", "topology")
    tols = config.tolerances
    z, status, why = _witness(config)
    connected = ClaimResult(
        "fixed-graph-strongly-connected",
        "every node must reach every other along directed arcs",
        config.topology.is_strongly_connected(), None, "checked by forward and "
        "reverse reachability")
    sp = None
    if status == "empty" and stationary_oracle_unmet(config.objectives, config.topology) is None:
        sp = stationary_quadratic(config.objectives, config.topology, config.gain)

    def judge(traj):
        if status == "undecided":
            return [connected, ClaimResult(
                "common-minimizer-decided",
                "the intersection of node argmin sets must be decidable",
                False, None, why or "intersection test returned 'undecided'")], {}
        diam = float(consensus_diameter(traj.terminal_state))
        if status == "nonempty":
            _, (dini, residuals), extras = _envelope(config, traj, z, "residual")
            # every representable argmin set is where its component is 0, so a
            # shared minimizer puts the team minimum at 0
            extras["gap"] = optimality_gap(traj, config.objectives, 0.0)
            return [connected, dini, _threshold_claim(
                "terminal-diameter", "all nodes agree at the end of the run",
                diam, tols["diameter"]), residuals, _threshold_claim(
                "optimality-gap", "terminal states minimize the team objective",
                extras["gap"][-1].max(), tols["gap"],
                detail="team minimum 0.000000e+00 (intersection)")], extras
        # empty intersection: agreement cannot be exact; document the gap instead
        claims = [connected, ClaimResult(
            "disagreement-persists",
            "with no common minimizer the nodes must not fully agree",
            diam > tols["necessity_floor"], float(diam - tols["necessity_floor"]),
            f"exact agreement on one optimum is impossible here; terminal diameter {diam:.6e}")]
        if sp is not None:
            oracle_diam = consensus_diameter(sp.states)
            claims += [_threshold_claim(
                "terminal-matches-stationary",
                "the run settles on the stationary point of the penalized objective",
                _mismatch(traj, sp), tols["terminal_match"]), _threshold_claim(
                "diameter-matches-oracle",
                "simulated disagreement matches the stationary solve",
                abs(diam - oracle_diam), tols["oracle_diameter_match"],
                detail=f"oracle diameter {oracle_diam:.6e}")]
        return claims, {}
    return [(config.build_scenario(), "", judge)]


def _gain_plan(config, grid):
    """``(gains, scenarios, points, bounds)``: the distinct positive gains of
    ``grid``, their scenarios, each gain's stationary point and each positive
    gain's disagreement bound, from the largest stationary gradient norm over
    the whole grid.  The maps are empty where the stationary oracle does not
    apply.  A repeated gain is solved and built once."""
    grid = list(dict.fromkeys(grid))
    points, bounds = {}, {}
    if stationary_oracle_unmet(config.objectives, config.topology) is None:
        if config.topology.n_nodes < 2 or not config.topology.is_strongly_connected():
            raise ConfigError("the disagreement bound needs a connected topology "
                              "of two or more nodes", "topology")
        lam2 = config.topology.lambda2()
        points = {k: stationary_quadratic(config.objectives, config.topology, k)
                  for k in grid}
        grad_sup = max(p.grad_norm for p in points.values())
        bounds = {k: check_disagreement_bound(sp, grad_sup, lam2,
                                              slack=config.tolerances["bound_slack"])
                  for k, sp in points.items() if k > 0.0}
    gains = [k for k in grid if k > 0.0]
    return gains, [config.build_scenario(gain=k) for k in gains], points, bounds


def _suite_eps(config):
    config.require_oracle("the eps-optimal suite")
    grid = config.analysis.get("k_grid")
    if not grid:
        raise ConfigError("the eps-optimal suite needs analysis.k_grid", "analysis")
    if not any(k > 0.0 for k in grid):  # gain zero is the oracle's alone: no claim
        raise ConfigError("the eps-optimal suite needs a positive gain in analysis.k_grid",
                          "analysis")
    labels = {}  # a gain's label names its claims and its trace
    for k in (k for k in grid if k > 0.0):
        if f"{k:g}" in labels:
            raise ConfigError(f"gains {labels[f'{k:g}']!r} and {k!r} share the label k={k:g}",
                              "analysis.k_grid")
        labels[f"{k:g}"] = k
    gains, scenarios, points, bounds = _gain_plan(config, grid)

    def judge_at(k):
        sp, bc = points[k], bounds[k]
        return lambda traj: ([_threshold_claim(
            f"terminal-matches-stationary[k={k:g}]",
            "the run settles on the stationary point of the penalized objective",
            _mismatch(traj, sp), config.tolerances["terminal_match"]), ClaimResult(
            f"disagreement-bound[k={k:g}]",
            "stationary disagreement is at most grad_sup / (gain * lambda2)",
            bc.holds, bc.margin,
            f"disagreement {sp.disagreement:.6e}, bound {bc.bound:.6e}")], None)
    return [(s, f"_k{k:g}", judge_at(k)) for k, s in zip(gains, scenarios)]


def _suite_switching(config):
    if not isinstance(config.topology, SwitchingSignal):
        raise ConfigError("the switching suite needs a switching topology", "topology")
    window = config.ujsc_window
    z, status, why = _witness(config)
    claims = [ClaimResult(
        "jointly-connected",
        f"arc unions over every window of length {window:g} are strongly connected",
        config.topology.check_ujsc(window), None, f"window {window:g}"), ClaimResult(
        "common-minimizer-exists",
        "the node argmin sets must share a point",
        status == "nonempty", None, why or f"intersection status: {status}")]

    def judge(traj):
        if status != "nonempty":
            return claims, {}
        v, (dini, residuals), extras = _envelope(config, traj, z, "switching_residual")
        spread = _threshold_claim(
            "lyapunov-limits-agree",
            "per-node squared distances to the witness share one limit",
            float(v[-1].max() - v[-1].min()), config.tolerances["vi_spread"])
        return claims + [dini, spread, residuals, _reconstruction(config, traj, z)], extras
    return [(config.build_scenario(), "", judge)]


def _reconstruction(config, traj, z):
    """The limit point pinned down by terminal distances to anchors around ``z``."""
    claim = ("limit-point-reconstruction",
             "terminal distances to interior anchors pin down one optimal point")
    try:
        sets = config.objectives.argmin_sets()
        anchors = interior_simplex(sets, z)
        sq = [float(((traj.terminal_state - a) ** 2).sum(axis=1).max()) for a in anchors]
        diam = float(consensus_diameter(traj.terminal_state))
        scale = 1.0 + np.abs(anchors).max() + np.abs(traj.terminal_state).max()
        y = sphere_intersection(anchors, sq,
                                consistency_tol=max(1e-9, 10.0 * diam * scale))
        dev = float(np.linalg.norm(traj.terminal_state - y, axis=1).max())
        inside = max(float(s.distance(y)) for s in sets)
        return _threshold_claim(
            *claim, max(dev, inside), config.tolerances["sphere_match"],
            detail=f"state-to-point {dev:.6e}, point-to-sets {inside:.6e}")
    except (ValueError, UnsupportedRepresentationError) as err:
        return ClaimResult(*claim, False, None, f"reconstruction unavailable: {err}")


_SUITE_FUNCS = {
    "simulate": _suite_simulate,
    "exact": _suite_exact,
    "eps-optimal": _suite_eps,
    "switching": _suite_switching,
}


def _integrate(scenarios):
    """Trajectories of ``scenarios``: one through :func:`integrate`, more as one batch."""
    return integrate_batch(scenarios) if len(scenarios) > 1 else [integrate(s) for s in scenarios]


def run(config: ScenarioConfig, suite: str, out_dir=None) -> RunReport:
    """Execute one verification suite and (optionally) write its artifacts.

    A suite is a plan, runs ``(scenario, trace tag, judge)`` made after every
    config check.  ``run`` alone integrates them, then judges each trajectory
    and writes its trace, in plan order.  A judge is a pure function from a
    trajectory to its claims and trace columns, so traces read back with
    :func:`read_trace` rebuild the report and its hash."""
    if suite not in _SUITE_FUNCS:
        raise ConfigError(f"unknown suite '{suite}'; choose from {', '.join(SUITES)}")
    started = time.perf_counter()
    plan = _SUITE_FUNCS[suite](config)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    trajs = _integrate([scenario for scenario, _, _ in plan])
    report = RunReport(config.name, suite, config.content_hash())
    for (_, tag, judge), traj in zip(plan, trajs, strict=True):
        claims, extras = judge(traj)
        report.claims += claims
        if out is not None:
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

    gains, scenarios, points, bounds = _gain_plan(config, grid)
    team = None
    try:
        team = global_min(config.objectives)
    except ValueError:  # numpy's LinAlgError too, on a summed curvature that overflows
        pass

    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    trajs = dict(zip(gains, _integrate(scenarios), strict=True))
    rows = []
    for k in grid:
        sp, bc = points.get(k), bounds.get(k)
        row = {"gain": float(k), "diameter": float("nan"), "gap_max": float("nan"),
               "oracle_disagreement": float("nan"), "oracle_residual": float("nan"),
               "bound_margin": float("nan"), "terminal_mismatch": float("nan")}
        if sp is not None:
            row["oracle_disagreement"] = sp.disagreement
            row["oracle_residual"] = sp.residual
        if bc is not None:
            row["bound_margin"] = bc.margin
        if k > 0.0:
            traj = trajs[k]
            row["diameter"] = float(consensus_diameter(traj.terminal_state))
            if team is not None:  # the gap at the terminal sample only
                row["gap_max"] = float((config.objectives.team_value(traj.terminal_state)
                                        - float(team.value)).max())
            if sp is not None:
                row["terminal_mismatch"] = _mismatch(traj, sp)
        rows.append(row)

    if out is not None:
        path = out / f"{config.name}_sweep.csv"
        cols = ["gain", "diameter", "gap_max", "oracle_disagreement",
                "oracle_residual", "bound_margin", "terminal_mismatch"]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([f"{row[c]:.17g}" for c in cols])
    return rows
