"""The benchmark's workloads: their inputs, operations and output checks.

Each workload is a closed loop with one client in one process: an operation
starts only after the previous one has finished and been checked.  A
workload object has three phases:

- ``setup()`` loads or generates the configs and builds the graphs and
  scenarios.  The runner times it as part of ``setup_s``.
- ``prepare_checks()`` computes the oracles the output checks compare
  against.  It is benchmark machinery, so it is not timed.
- ``ops()`` lists the operations of one pass, each with its check.  A check
  returns a list of problems; an empty list means the output is correct.

Checks receive ``refs``, the states of every trajectory the warm-up pass
wrote, keyed by trace path.  The warm-up checks that each trace reads back
bit for bit; later passes check that they write the same traces again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from consensusflow import cli, dynamics, harness
from consensusflow.analysis import consensus_diameter, stationary_quadratic
from consensusflow.graphs import WeightedDigraph
from consensusflow.objectives import Ball, ObjectiveSet, SquaredDistance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
REFERENCE_HASHES = HERE / "report_hashes.json"


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], list]


@dataclass
class Hashes:
    """``report_hash`` of every suite report, compared with a reference."""

    reference: dict
    seen: dict

    def record(self, key, value):
        self.seen.setdefault(key, set()).add(value)

    def lines(self):
        out = []
        for key in sorted(self.seen):
            values = sorted(self.seen[key])
            ref = self.reference.get(key)
            if len(values) > 1:
                note = "CHANGED between passes"
            elif ref is None:
                note = "no reference"
            elif values[0] == ref:
                note = "matches reference"
            else:
                note = f"CHANGED from reference {ref[:16]}"
            out.append(f"{key}: {', '.join(v[:16] for v in values)} ({note})")
        return out


def ball_objectives(centers, slack):
    """Squared distances to balls that all contain the origin with a margin."""
    return ObjectiveSet([SquaredDistance(Ball(c, float(np.linalg.norm(c)) + slack))
                         for c in np.asarray(centers, dtype=float)])


def states_problems(path, states, refs):
    """Compare states read back from a trace with the warm-up's trajectory."""
    name = Path(path).name
    ref = refs.get(str(path))
    if ref is None:
        return [f"{name}: no reference trajectory from the warm-up"]
    if states.shape != ref.shape or states.tobytes() != np.ascontiguousarray(ref).tobytes():
        return [f"{name}: states read back differ from the trajectory written"]
    return []


def pair_problems(label, gain, disagreement, mismatch, tol):
    """Checks against the two-node closed form and the stationary oracle."""
    out = []
    closed = 3.0 / (2.0 * gain + 1.0)
    if not abs(disagreement - closed) <= tol:
        out.append(f"{label} k={gain:g}: disagreement {disagreement:.12g} "
                   f"vs closed form 3/(2K+1) = {closed:.12g}")
    if not mismatch <= tol:
        out.append(f"{label} k={gain:g}: terminal state {mismatch:.3e} from "
                   f"stationary_quadratic (tolerance {tol:g})")
    return out


class PaperConfigs:
    """The user-facing CLI on the committed configs, run in-process."""

    name = "paper-configs"
    RUNS = [  # (operation, CLI arguments, config, suite)
        ("verify-exact:balls", ["verify", "exact"], "balls", "exact"),
        ("verify-eps-optimal:pair", ["verify", "eps-optimal"], "pair", "eps-optimal"),
        ("verify-switching:switching", ["verify", "switching"], "switching", "switching"),
        ("sim:balls", ["sim"], "balls", "simulate"),
    ]

    def __init__(self, seed, tiny, tmp):
        # The configs carry their own seeds; the workload seed selects nothing.
        self.out = tmp / "out"
        self.hashes = Hashes(json.loads(REFERENCE_HASHES.read_text()), {})
        self.digests = {}

    def setup(self):
        self.configs = {k: harness.load_config(CONFIGS / f"{k}.json")
                        for k in ("balls", "pair", "switching")}
        self.graph = self.configs["balls"].topology
        self.objectives = self.configs["balls"].objectives
        switching = self.configs["switching"]
        starts = [item["start"] for item in switching.raw["topology"]["intervals"]]
        self.graphs = ([self.graph, self.configs["pair"].topology]
                       + [switching.topology.graph_at(t) for t in starts])

    def prepare_checks(self):
        pair = self.configs["pair"]
        self.stationary = {k: stationary_quadratic(pair.objectives, pair.topology, k)
                           for k in pair.analysis["k_grid"] if k > 0.0}

    def inputs(self):
        return {"configs": {k: {"path": f"configs/{k}.json", "seed": c.seed,
                                "N": c.objectives.n_nodes, "m": c.objectives.m,
                                "tf": c.tf, "h": c.step}
                            for k, c in self.configs.items()}}

    def ops(self):
        return [Op(name, self._call(argv, key), self._check(key, suite))
                for name, argv, key, suite in self.RUNS]

    def _call(self, argv, key):
        argv = argv + ["--config", str(CONFIGS / f"{key}.json"),
                       "--out-dir", str(self.out), "--quiet"]
        return lambda: cli.main(argv)

    def _check(self, key, suite):
        stem = f"{self.configs[key].name}_{suite}"

        def check(code, refs):
            if code != 0:
                return [f"exit code {code}"]
            report = json.loads((self.out / f"{stem}_report.json").read_text())
            self.hashes.record(stem, report["report_hash"])
            problems = [] if report["pass"] else [f"{stem}: a claim failed"]
            for path in report["artifacts"]:
                if path.endswith(".csv"):
                    problems += self._trace_problems(path, suite, refs)
            return problems
        return check

    def _trace_problems(self, path, suite, refs):
        # The warm-up reads each trace back and checks it in full.  Later
        # passes must write the same bytes, which then pass the same checks.
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if path in self.digests:
            same = digest == self.digests[path]
            return [] if same else [f"{Path(path).name}: differs from the warm-up's trace"]
        _, states, _ = harness.read_trace(path)
        problems = states_problems(path, states, refs)
        if suite == "eps-optimal":
            problems += self._eps_problems(path, states[-1])
        if not problems:
            self.digests[path] = digest
        return problems

    def _eps_problems(self, path, terminal):
        gain = float(Path(path).stem.rsplit("_k", 1)[1])
        return pair_problems(
            Path(path).name, gain, float(consensus_diameter(terminal)),
            float(np.abs(terminal - self.stationary[gain].states).max()),
            self.configs["pair"].tolerances["terminal_match"])


class SeedEnsemble:
    """The acceptance Monte-Carlo scenario over seeds, plus a gain sweep.

    Five nodes on a directed cycle with chords 0->2 and 1->3, m=2, squared
    distances to balls that share the origin with slack 0.5, ``x0`` uniform
    in [-5, 5]^2, integrated to tf=200 with h=0.01.  Workload seed s runs
    member seeds s*S .. s*S+S-1, so seed 0 runs the acceptance seeds.
    """

    name = "seed-ensemble"
    CENTERS = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
    TF = 200.0
    DIAMETER_TOL = 1e-4

    def __init__(self, seed, tiny, tmp):
        self.members = 1 if tiny else 2
        self.member_seeds = [seed * self.members + k for k in range(self.members)]
        self.hashes = Hashes({}, {})

    def setup(self):
        n = len(self.CENTERS)
        self.objectives = ball_objectives(self.CENTERS, slack=0.5)
        self.graph = WeightedDigraph.from_arcs(
            n, [(k, (k + 1) % n) for k in range(n)] + [(0, 2), (1, 3)])
        self.scenarios = [
            dynamics.Scenario(self.objectives, self.graph,
                              np.random.default_rng(s).uniform(-5.0, 5.0, (n, 2)),
                              tf=self.TF, step=0.01)
            for s in self.member_seeds]
        self.pair = harness.load_config(CONFIGS / "pair.json")
        self.graphs = [self.graph, self.pair.topology]

    def prepare_checks(self):
        pass

    def inputs(self):
        return {"member": {"N": self.graph.n_nodes, "E": len(self.graph.arcs), "m": 2,
                           "tf": self.TF, "h": 0.01, "seeds": self.member_seeds},
                "sweep": {"path": "configs/pair.json", "k_grid": self.pair.analysis["k_grid"]}}

    def ops(self):
        ops = [Op(f"integrate:seed-{s}", self._member(sc), self._member_check)
               for s, sc in zip(self.member_seeds, self.scenarios)]
        ops.append(Op("sweep-k:pair", lambda: harness.sweep_k(self.pair), self._sweep_check))
        return ops

    @staticmethod
    def _member(scenario):
        return lambda: dynamics.integrate(scenario)

    def _member_check(self, traj, refs):
        diam = float(consensus_diameter(traj.terminal_state))
        if not diam <= self.DIAMETER_TOL:
            return [f"terminal diameter {diam:.3e} > {self.DIAMETER_TOL:g}"]
        return []

    def _sweep_check(self, rows, refs):
        tol = self.pair.tolerances["terminal_match"]
        problems = []
        for row in rows:
            if row["gain"] > 0.0:
                problems += pair_problems("sweep", row["gain"], row["diameter"],
                                          row["terminal_mismatch"], tol)
        return problems


class LargeGraph:
    """A generated N=300 digraph: verify exact, read its trace back, and sim.

    A directed cycle plus ``in_degree`` random in-arcs per node, m=2, and
    squared distances to balls centred uniformly in [-1, 1]^2 with radius
    |c| + SLACK, so every argmin set contains the disc of radius SLACK about
    the origin.  With a slack of 0.5 the nodes of some seeds agree outside
    that disc and creep into the intersection too slowly for the exact
    suite's tolerances at tf=2; with 2 every seed tried (0-29) passes.  The
    sim horizon is short because ``consensus_diameter`` over the whole
    trajectory builds a (T, N, N, m) array.
    """

    name = "large-graph"
    FULL = {"nodes": 300, "in_degree": 16}
    TINY = {"nodes": 30, "in_degree": 8}
    SLACK = 2.0
    TF_EXACT = 2.0
    TF_SIM = 1.0

    def __init__(self, seed, tiny, tmp):
        self.seed = seed
        self.size = self.TINY if tiny else self.FULL
        self.tmp = tmp
        self.out = tmp / "out"
        self.hashes = Hashes({}, {})

    def generate(self):
        n, deg = self.size["nodes"], self.size["in_degree"]
        rng = np.random.default_rng(self.seed)
        arcs = {(k, (k + 1) % n) for k in range(n)}
        for i in range(n):
            others = rng.choice(n - 1, size=deg, replace=False)
            arcs.update((int(j) + int(j >= i), i) for j in others)
        centers = rng.uniform(-1.0, 1.0, (n, 2))
        return {
            "name": "large", "m": 2, "nodes": n,
            "objectives": [{"kind": "sqdist", "set": {
                "kind": "ball", "center": c.tolist(),
                "radius": float(np.linalg.norm(c)) + self.SLACK}} for c in centers],
            "topology": {"kind": "fixed", "arcs": [list(a) for a in sorted(arcs)]},
            "integrator": {"tf": self.TF_EXACT},
            "x0": {"kind": "uniform_box", "low": -5.0, "high": 5.0},
            "seed": self.seed,
        }

    def setup(self):
        raw = self.generate()
        exact_path, sim_path = self.tmp / "large.json", self.tmp / "large-sim.json"
        exact_path.write_text(json.dumps(raw))
        raw["integrator"]["tf"] = self.TF_SIM
        sim_path.write_text(json.dumps(raw))
        self.exact = harness.load_config(exact_path)
        self.sim = harness.load_config(sim_path)
        self.graph = self.exact.topology
        self.objectives = self.exact.objectives
        self.graphs = [self.exact.topology, self.sim.topology]

    def prepare_checks(self):
        pass

    def inputs(self):
        return {"N": self.graph.n_nodes, "E": len(self.graph.arcs), "m": 2,
                "seed": self.seed, "in_degree": self.size["in_degree"],
                "tf_exact": self.TF_EXACT, "tf_sim": self.TF_SIM, "h": self.exact.step}

    def ops(self):
        trace = self.out / "large_exact.csv"
        return [
            Op("verify-exact:large", lambda: harness.run(self.exact, "exact", out_dir=self.out),
               self._report_check),
            Op("read-trace:large", lambda: harness.read_trace(trace),
               lambda got, refs: states_problems(trace, got[1], refs)),
            Op("sim:large", lambda: harness.run(self.sim, "simulate", out_dir=self.out),
               self._report_check),
        ]

    def _report_check(self, report, refs):
        self.hashes.record(f"{report.name}_{report.suite}", report.report_hash)
        return [] if report.passed else [f"{report.suite}: a claim failed"]


WORKLOADS = {w.name: w for w in (PaperConfigs, SeedEnsemble, LargeGraph)}
