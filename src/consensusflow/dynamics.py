"""Node dynamics and fixed-step integration.

Each node i runs the first-order rule

    dx_i/dt = gain * n_i - g_i + w_i(t)

where ``n_i = sum_j a_ij (x_j - x_i)`` aggregates in-neighbor disagreement,
``g_i`` is the node's own objective gradient, and ``w_i`` is an optional
disturbance.  States are stacked as arrays of shape ``(n_nodes, m)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import SwitchingSignal, WeightedDigraph, coupling_kernel
from .objectives import ObjectiveSet

DIVERGENCE_LIMIT = 1e8
# stored rows per divergence check: its two reductions then cost under 1 % of
# a step at N = 5 (blocks of 16 to 256 measured alike), and the steps after a
# divergence are fewer than this
DIVERGENCE_BLOCK = 64
# RK4's stability interval on the negative real axis is [-2.785, 0]; the disc
# |z + r| <= r lies in its stability region for r up to 1.3926 (Hairer & Wanner,
# Solving ODEs II, 1996), so this bound covers complex eigenvalues too
RK4_STABILITY_BOUND = 2.785
# e^z - R(z), with R RK4's stability polynomial, as the coefficients of its
# series from z^25 down to z^0, 1/k! from k = 5 on: at |z| <= 2.785 it stops
# within an ulp and, unlike exp(z) - R(z), keeps its digits at small |z|
_EXP_TAIL = [1.0 / math.factorial(k) if k >= 5 else 0.0 for k in range(25, -1, -1)]


class DivergenceError(RuntimeError):
    """Integration produced a non-finite or unbounded state.

    ``time`` is the end of the failing step, ``node`` the node at fault (the
    one holding the first non-finite entry, else the largest magnitude) and
    ``state`` a copy of the last finite stacked state, the one the step
    started from, so a caught error holds no integrator buffer.
    """

    def __init__(self, time, bad, state):
        self.time = float(time)
        self.state = np.array(state)
        nonfinite = ~np.isfinite(bad)
        if nonfinite.any():
            entry, why = np.argmax(nonfinite), "a non-finite entry"
        else:
            entry = np.argmax(np.abs(bad))
            why = f"|x| = {float(np.abs(bad).max()):.3e} beyond {DIVERGENCE_LIMIT:.0e}"
        self.node = int(np.unravel_index(entry, bad.shape)[0])
        super().__init__(f"state diverged at t={time}: node {self.node} has {why}")


class StepStabilityError(ArithmeticError):
    """The step fails RK4's stability certificate for a member of the run.

    Every eigenvalue of the flow's Jacobian on a segment lies in a disc
    ``|z + rho/2| <= rho/2`` with ``rho = max_i(2 K d_i + Lip_i)`` (block
    Gershgorin), where ``d_i`` is node i's weighted in-degree and ``Lip_i``
    its gradient's Lipschitz constant.  RK4 is stable on that disc while
    ``h * rho <= RK4_STABILITY_BOUND``; past it the run is refused before
    any step.
    """


class ExponentialDecayDisturbance:
    """Per-node forcing ``w_i(t) = exp(-rate * (t - t_ref)) * v_i``."""

    def __init__(self, vectors, rate=1.0, t_ref=0.0):
        self.vectors = np.asarray(vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be shaped (n_nodes, m)")
        self.rate = float(rate)
        self.t_ref = float(t_ref)
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("rate must be a positive real")

    def __call__(self, t):
        return math.exp(-self.rate * (t - self.t_ref)) * self.vectors

    def describe(self) -> dict:
        return {
            "kind": "exponential",
            "vectors": self.vectors.tolist(),
            "rate": self.rate,
            "t_ref": self.t_ref,
        }


class Scenario:
    """Complete description of one simulation run.

    Parameters
    ----------
    objectives : ObjectiveSet
        One component per node.
    topology : WeightedDigraph or SwitchingSignal
        Fixed graph or piecewise-constant schedule covering ``[t0, tf]``.
    x0 : array
        Initial stacked state, shape ``(n_nodes, m)`` (a flat vector of
        length ``n_nodes * m`` is accepted and reshaped).
    t0, tf : float
        Integration window, ``t0 < tf``.
    step : float, optional
        Fixed integrator step (default 0.01).
    gain : positive real, optional
        ``K`` of the velocity rule ``u = K * n - g`` (default 1, the paper's
        J*; J_K is ``K``), kept as given; a ``bool`` is a ``TypeError``.  With
        zero disagreement the rule reduces to ``-g``, injective in ``g``.
    disturbance : callable, optional
        Maps ``t`` to an additive ``(n_nodes, m)`` forcing term.

    Attributes
    ----------
    segments : list
        ``topology.segments(t0, tf)``, the ``(a, b, graph)`` stretches the
        integrator walks; the topology rejects a window outside its schedule.
    """

    def __init__(self, objectives, topology, x0, tf, t0=0.0, gain=1.0,
                 step=0.01, disturbance=None, name=""):
        if not isinstance(objectives, ObjectiveSet):
            raise TypeError("objectives must be an ObjectiveSet")
        if not isinstance(topology, (WeightedDigraph, SwitchingSignal)):
            raise TypeError("topology must be a WeightedDigraph or SwitchingSignal")
        if topology.n_nodes != objectives.n_nodes:
            raise ValueError(
                f"topology has {topology.n_nodes} nodes but objectives define "
                f"{objectives.n_nodes}"
            )
        self.objectives = objectives
        self.topology = topology
        if isinstance(gain, (bool, np.bool_)):
            raise TypeError("gain must be a real number, not a bool")
        if not (math.isfinite(gain) and gain > 0.0):
            raise ValueError("gain must be a positive real")
        self.gain = gain

        n, m = objectives.n_nodes, objectives.m
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 1 and x0.size == n * m:
            x0 = x0.reshape(n, m)
        if x0.shape != (n, m):
            raise ValueError(f"x0 must have shape ({n}, {m})")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        if not (np.abs(x0) <= DIVERGENCE_LIMIT).all():
            # the divergence guard would report the first step as a divergence
            raise ValueError(f"x0 must lie within the divergence limit: |x0| <= "
                             f"{DIVERGENCE_LIMIT:.0e}")
        self.x0 = x0.copy()
        self.x0.flags.writeable = False

        self.t0 = float(t0)
        self.tf = float(tf)
        if not self.t0 < self.tf:
            raise ValueError("tf must exceed t0")
        self.step = float(step)
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError("step must be a positive real")
        self.segments = topology.segments(self.t0, self.tf)
        self.disturbance = disturbance
        self.name = str(name)

    @property
    def n_nodes(self) -> int:
        return self.objectives.n_nodes

    @property
    def m(self) -> int:
        return self.objectives.m

    def describe(self) -> dict:
        if self.disturbance is None:
            dist = None
        elif hasattr(self.disturbance, "describe"):
            dist = self.disturbance.describe()
        else:
            dist = {"kind": "custom"}
        return {
            "name": self.name,
            "objectives": self.objectives.describe(),
            "topology": self.topology.describe(),
            "law": {"kind": "gain-law", "gain": self.gain},
            "x0": self.x0.tolist(),
            "t0": self.t0,
            "tf": self.tf,
            "step": self.step,
            "disturbance": dist,
        }

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Trajectory:
    """Sampled solution: ``states[k]`` is the stacked state at ``times[k]``.

    Sample points are every integrator step endpoint, so switch instants and
    the final time appear exactly.
    """

    times: np.ndarray       # (T,)
    states: np.ndarray      # (T, n_nodes, m)
    fingerprint: str = ""
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 3:
            raise ValueError("times must be (T,) and states (T, n_nodes, m)")
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("times and states disagree on sample count")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.states.shape[2]

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


def _as_state(x, n_nodes) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != n_nodes:
        raise ValueError(f"x must be shaped ({n_nodes}, m)")
    return x


def neighbor_info(graph: WeightedDigraph, x) -> np.ndarray:
    """Weighted in-neighbor disagreement ``n_i = sum_j a_ij (x_j - x_i)``, by a fresh kernel."""
    x = _as_state(x, graph.n_nodes)
    return coupling_kernel([graph], x.shape[1])(x)


def rhs(scenario: Scenario, t, x) -> np.ndarray:
    """Stacked state velocity at time ``t``."""
    t = float(t)
    if not scenario.t0 <= t <= scenario.tf:
        raise ValueError(f"time {t} outside [{scenario.t0}, {scenario.tf}]")
    field = _fields([scenario])((scenario.topology.graph_at(t),))
    return field(t, _as_state(x, scenario.n_nodes))


def _check_batch(scenarios) -> None:
    """The members are of one shape: ``n_nodes``, ``m``, ``step`` and the
    segment boundaries (``t0``, ``tf`` and every switch instant), floats by
    their bits, so ``-0.0`` is not ``0.0``."""
    if not scenarios:
        raise ValueError("integrate_batch needs at least one scenario")
    lead = None
    for b, s in enumerate(scenarios):
        if not isinstance(s, Scenario):
            raise TypeError(f"member {b} is not a Scenario")
        shape = {"n_nodes": s.n_nodes, "m": s.m, "step": s.step.hex(),
                 "segment instants": [(a.hex(), z.hex()) for a, z, _ in s.segments]}
        lead = lead or shape
        for name, value in shape.items():
            if value != lead[name]:
                raise ValueError(f"batch members must share one shape: member {b} differs "
                                 f"from member 0 in {name}")


def _fields(scenarios):
    """``graphs -> (t, y) -> dy/dt`` for the members folded into the node axis.

    ``y`` is the ``(B * n_nodes, m)`` stack of the B members' validated
    states, the members' components are one family and ``graphs``, each
    member's graph on one stretch, couple on their union, so each kernel runs
    on a 2-D array as for one member; member b's forcing goes to its own rows.
    The family's gradient kernel and its workspaces are built once per run;
    each stretch builds its union's coupling kernel, held only by its field,
    one closure over both.  Every call returns a fresh array, the coupling's,
    to which each member's rule, ``gain * n - g``, is applied in place and
    which the caller may keep or update in place.
    """
    n, m = scenarios[0].n_nodes, scenarios[0].m
    family = ObjectiveSet([c for s in scenarios for c in s.objectives.components])
    forcing = [(b * n, s.disturbance) for b, s in enumerate(scenarios)
               if s.disturbance is not None]

    # a gain of 1 multiplies exactly and is skipped; otherwise the gains form
    # a column, n_nodes rows per member
    gains = [s.gain for s in scenarios]
    gain = None if set(gains) == {1.0} else np.repeat(np.array(gains, dtype=float), n)[:, None]
    grad = family._kernel((len(scenarios) * n, m))

    def make(graphs):
        coupling = coupling_kernel(graphs, m)

        def field(t, y):
            u = coupling(y)
            if gain is not None:
                u *= gain
            u -= grad(y)
            for lo, disturbance in forcing:
                u[lo:lo + n] += disturbance(t)
            return u
        return field
    return make


def integrate(scenario: Scenario) -> Trajectory:
    """Classical Runge-Kutta (RK4) with a fixed step.

    The scheme is fourth order where the flow is smooth, as for quadratic
    and point families.  A squared distance's gradient ``x - P(x)`` has a
    kink where a node crosses the set's boundary, so ball and box families
    converge at a lower observed order (ratios of 2 to 10 per halving of h
    on the committed ball configs and a generated box family, against 16
    for order 4).

    Each constant-topology segment is integrated independently; the final
    substep of a segment is truncated so switch instants and ``tf`` land on
    exact sample points.  The run is deterministic: identical scenarios give
    bit-identical trajectories.  It is ``integrate_batch([scenario])[0]``.
    """
    return integrate_batch([scenario])[0]


def integrate_batch(scenarios) -> list[Trajectory]:
    """Integrate several scenarios in one RK4 pass; one :class:`Trajectory` each.

    The members share one shape (``n_nodes``, ``m``, ``step`` and the segment
    boundaries, by their bits) and may differ in everything else: family,
    topology, disturbance, ``x0`` and gain.
    They are folded into the node axis: the batch state is one
    ``(B * n_nodes, m)`` array, coupled on each stretch on the disjoint
    union of the members' graphs, with each member's forcing on its own
    rows, so every member's trajectory is bit-identical to its own
    :func:`integrate` run.  The members' ``states`` are views into one
    ``(T, B * n_nodes, m)`` buffer, and they share one ``times`` array.

    Before any step, each member in member order must pass the stability
    certificate (:class:`StepStabilityError`); its ``h * rho``, the largest
    over segments, is ``stats["h_rho"]``, and ``stats["rk4_defect"]`` is the
    largest ``|R(z) - e^z|`` over the certificate's disc at that ``h * rho``
    (stable is not accurate: 0.91 at ``h * rho`` = 2.77).  Then a step count
    past any trajectory buffer is an :class:`OverflowError`.

    Divergence is checked once per block of at most :data:`DIVERGENCE_BLOCK`
    stored rows, and at the end of every stretch; the steps after a failing
    one, to the end of its block, run on without warnings and are dropped.
    The error contract is that of a check after every step: if the batch
    diverges, the error raised is that of the member that diverged first in
    time (ties go to the first in member order), the :class:`DivergenceError`
    its own :func:`integrate` run raises, with the same time, node, state and
    message.
    """
    scenarios = list(scenarios)
    _check_batch(scenarios)
    margins = _stability_margins(scenarios)
    # before the trajectory buffer: its temporaries then raise no peak
    defects = [_rk4_defect(h_rho) for h_rho in margins]
    times, blocks, stats = _rk4(scenarios)
    return [Trajectory(times, blocks[b], s.fingerprint,
                       {**stats, "h_rho": margins[b], "rk4_defect": defects[b]})
            for b, s in enumerate(scenarios)]


def _rk4_defect(h_rho) -> float:
    """The largest ``|R(z) - e^z|`` over the certificate's disc
    ``|z + h_rho/2| <= h_rho/2``: how far one step of RK4 can be from the flow
    on the Jacobian's eigenvalues (see :class:`StepStabilityError`).  By the
    maximum modulus principle it lies on the circle, sampled at 4096 points:
    the real coefficients give ``|f(conj z)| = |f(z)|``, so a half circle's
    2049 suffice.  The discs are nested, so the defect grows with ``h_rho``,
    and the largest ``h_rho`` over the segments gives the largest defect."""
    # z = x + i y = (h_rho/2) (w - 1) with w = (1 - t^2 - 2it) / (1 + t^2) on the
    # unit circle, at t = u to a quarter turn and t = 1/u on to a half, u in
    # [0, 1]: real arithmetic without trigonometry, whose numpy loops (like
    # the complex ones) would add 0.1-0.4 MB to a run's peak RSS
    u = np.linspace(0.0, 1.0, 1025)
    scale = -h_rho / (1.0 + u * u)
    x = np.concatenate([u * u * scale, scale])
    y = np.concatenate([u * scale, u * scale])
    re, im = np.zeros_like(x), np.zeros_like(x)
    for c in _EXP_TAIL:  # Horner's rule on re + i im
        re, im = re * x - im * y + c, re * y + im * x
    return float(np.hypot(re, im).max())


def _stability_margins(scenarios) -> list[float]:
    """Each member's largest ``h * rho`` over its segments, in member order;
    the first member past :data:`RK4_STABILITY_BOUND` raises
    :class:`StepStabilityError`.  One O(N + E) in-degree ``bincount`` per
    distinct graph object."""
    h = scenarios[0].step
    degrees = {}  # id(graph) -> its weighted in-degrees
    margins = []
    for s in scenarios:
        gain, graphs = s.gain, {id(g): g for _, _, g in s.segments}
        lip = np.array([c.gradient_lipschitz() for c in s.objectives.components])
        for key, g in graphs.items():
            if key not in degrees:
                _, dst, w = g.arc_arrays()
                degrees[key] = np.bincount(dst, w, minlength=g.n_nodes)
        rho = max(float((2.0 * gain * degrees[key] + lip).max()) for key in graphs)
        if rho > 0.0 and h > RK4_STABILITY_BOUND / rho:
            raise StepStabilityError(
                f"step {h} fails RK4's stability certificate at gain {gain}: "
                f"rho = max_i(2*K*d_i + Lip_i) = {rho:.6g} and h*rho = {h * rho:.4g} "
                f"> {RK4_STABILITY_BOUND}; the largest step that passes is "
                f"{RK4_STABILITY_BOUND / rho!r}")
        margins.append(h * rho)
    return margins


def _divergence(times, states, lo, hi, n):
    """The :class:`DivergenceError` of the first of the rows ``lo:hi`` past
    :data:`DIVERGENCE_LIMIT`, that of its first failing member in member order,
    on that member's own rows, as a check after every step would raise it."""
    within = np.abs(states[lo:hi]).max(axis=2) <= DIVERGENCE_LIMIT  # NaN fails too
    row = lo + int(np.argmax(~within.all(axis=1)))
    node = int(np.argmax(~within[row - lo])) // n * n
    return DivergenceError(float(times[row]), states[row, node:node + n],
                           states[row - 1, node:node + n])


def _buffers(lead, steps, rows):
    """The ``(1 + steps,)`` times and ``(1 + steps, rows, m)`` states buffers;
    a step count that is not finite, or whose buffer numpy cannot allocate,
    is an :class:`OverflowError` that names the count and the buffer's bytes."""
    if steps < math.inf:
        try:
            return np.empty(1 + steps), np.empty((1 + steps, rows, lead.m))
        except (ValueError, MemoryError):  # past numpy's dimension limit, or out of memory
            pass
    raise OverflowError(
        f"step {lead.step!r} over [{lead.t0!r}, {lead.tf!r}] needs {float(steps):.6g} steps, "
        f"a trajectory buffer of {8.0 * (1 + steps) * (1 + rows * lead.m):.6g} bytes, "
        "which cannot be allocated")


# the steps after a divergence, to the end of its block, run on and warn of nothing
@np.errstate(over="ignore", invalid="ignore")
def _rk4(scenarios):
    """The integrator loop over the folded members: ``(times, states per member, stats)``.

    Every segment's substep count is fixed before the loop, so the ``T``
    samples are written once each, in place, into preallocated ``(T,)`` times
    and ``(T, B * n_nodes, m)`` states; row 0 holds the members' ``x0`` in
    member order.  Beyond that buffer a step holds only its O(B * n_nodes * m)
    stage arrays.  The rows are checked for divergence a block at a time, by
    the block's largest and smallest entry, which no temporary holds.
    """
    lead = scenarios[0]
    t0, h = lead.t0, lead.step
    members, n, m = len(scenarios), lead.n_nodes, lead.m
    fields = _fields(scenarios)
    counts = [(b - a) / h - 1e-9 for a, b, _ in lead.segments]
    subs = [max(1, math.ceil(c)) for c in counts] if math.isfinite(sum(counts)) else None
    steps = sum(subs) if subs else math.inf
    times, states = _buffers(lead, steps, members * n)
    times[0] = t0
    x = np.concatenate([s.x0 for s in scenarios], out=states[0])
    row = 0

    stage = np.empty_like(x)  # each stage's input
    for n_sub, *stretch in zip(subs, *(s.segments for s in scenarios)):
        a, b, _ = stretch[0]  # every member's (a, b) is the same
        fieldfn = fields([g for _, _, g in stretch])
        for start in range(0, n_sub, DIVERGENCE_BLOCK):
            first = row + 1
            for k in range(start, min(start + DIVERGENCE_BLOCK, n_sub)):
                t_k = a + k * h
                t_next = b if k == n_sub - 1 else a + (k + 1) * h
                hk = t_next - t_k
                half = 0.5 * hk
                k1 = fieldfn(t_k, x)
                k2 = fieldfn(t_k + half, np.add(x, np.multiply(k1, half, stage), stage))
                k3 = fieldfn(t_k + half, np.add(x, np.multiply(k2, half, stage), stage))
                k4 = fieldfn(t_next, np.add(x, np.multiply(k3, hk, stage), stage))
                # k1 + 2 k2 + 2 k3 + k4, left to right, in the field's fresh k2 and k3
                k2 += k2  # doubling is exact: the bits of 2.0 * k2
                k2 += k1
                k3 += k3
                k2 += k3
                k2 += k4
                k2 *= hk / 6.0
                row += 1
                x = np.add(x, k2, out=states[row])
                times[row] = t_next
            # every entry of the block's rows within the limit; a NaN fails both
            rows = states[first:row + 1]
            if not (np.maximum.reduce(rows, axis=None) <= DIVERGENCE_LIMIT
                    and np.minimum.reduce(rows, axis=None) >= -DIVERGENCE_LIMIT):
                err = _divergence(times, states, first, row + 1, n)
                del times, states, x, rows  # the traceback keeps this frame: let the buffers go
                raise err

    # (B, T, n_nodes, m): member b's states are a view into the (T, B * n_nodes, m) buffer
    blocks = states.reshape(1 + steps, members, n, m).swapaxes(0, 1)
    stats = {
        "steps": steps,
        "rhs_evaluations": 4 * steps,
        "segments": len(lead.segments),
    }
    return times, blocks, stats
