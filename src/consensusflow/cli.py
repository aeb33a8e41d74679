"""Command-line front end.

Exit codes: 0 all claims pass, 1 configuration, usage or output error, 2 numerical
failure (divergence, a step refused by the stability certificate, a step
count past any trajectory buffer or a singular solve), 3 one or more claims
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

# integrate and write_trace are not called here, but perfbench's tracer
# replaces them in this module's namespace, so they must stay importable.
from .dynamics import DivergenceError, integrate
from .graphs import SwitchingSignal, WeightedDigraph
from .harness import SUITES, ConfigError, _int, _number, load_config, run, sweep_k, write_trace


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2: that code means a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="consensusflow",
        description="Simulate and verify distributed consensus-optimization flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="path to a scenario JSON file")
        sp.add_argument("--out-dir", default=None, help="directory for traces and reports")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--h", type=float, default=None, dest="step",
                        help="override the integrator step")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")

    sim = sub.add_parser("sim", help="integrate the scenario and write its trace")
    sim.set_defaults(suite="simulate")
    common(sim)
    common(sub.add_parser("sweep-k", help="simulate and solve the stationary oracle "
                                          "over the configured gain grid"))
    common(sub.add_parser("check-graph", help="report topology connectivity properties"))
    common(sub.add_parser("oracle", help="solve the stationary system over the gain grid"))
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    common(verify)
    return parser


def _emit(args, text):
    if not args.quiet:
        print(text)


def _print_report(args, report):
    for c in report.claims:
        status = "PASS" if c.passed else "FAIL"
        margin = "" if c.margin is None else f" (margin {c.margin:.3e})"
        _emit(args, f"[{status}] {c.id}: {c.detail}{margin}")
    _emit(args, f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
                f"({len(report.claims)} claims, {report.wall_seconds:.2f}s)")
    return 0 if report.passed else 3


def _cmd_verify(args, config):
    return _print_report(args, run(config, args.suite, out_dir=args.out_dir))


def _cmd_sweep(args, config):
    rows = sweep_k(config, out_dir=args.out_dir)
    for row in rows:
        _emit(args, "  ".join(f"{k}={row[k]:.6g}" for k in
                              ("gain", "diameter", "oracle_disagreement", "bound_margin")))
    return 0


def _cmd_check_graph(args, config):
    topo = config.topology
    if isinstance(topo, WeightedDigraph):
        info = {
            "kind": "fixed",
            "n_nodes": topo.n_nodes,
            "strongly_connected": topo.is_strongly_connected(),
            "bidirectional": topo.is_bidirectional(),
            "symmetric_weights": topo.has_symmetric_weights(),
            "has_spanning_tree": topo.has_spanning_tree(),
        }
        if info["symmetric_weights"] and info["strongly_connected"] and topo.n_nodes > 1:
            info["lambda2"] = topo.lambda2()
    else:
        assert isinstance(topo, SwitchingSignal)
        window = config.ujsc_window
        union = topo.joint_graph(topo.start_time, topo.start_time + topo.period
                                 if topo.is_periodic else topo.horizon)
        info = {
            "kind": "switching",
            "n_nodes": topo.n_nodes,
            "window": window,
            "uniformly_jointly_strongly_connected": topo.check_ujsc(window),
            "union_strongly_connected": union.is_strongly_connected(),
            "union_has_spanning_tree": union.has_spanning_tree(),
        }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_oracle(args, config):
    from .analysis import stationary_quadratic

    grid = config.analysis.get("k_grid")
    if not grid:
        raise ConfigError("the oracle command needs analysis.k_grid", "analysis")
    config.require_oracle("the oracle command")
    points = {k: stationary_quadratic(config.objectives, config.topology, k)
              for k in dict.fromkeys(grid)}
    rows = []
    for k in grid:  # k, not sp.gain: -0.0 shares 0.0's solve but keeps its sign
        sp = points[k]
        rows.append({"gain": k, "disagreement": sp.disagreement,
                     "residual": sp.residual, "grad_norm": sp.grad_norm,
                     "max_abs": float(np.abs(sp.states).max()),
                     "states": sp.states.tolist()})
        _emit(args, f"gain={k:g}  disagreement={sp.disagreement:.9e}  "
                    f"residual={sp.residual:.3e}")
    print(json.dumps(rows, indent=2))
    return 0


_COMMANDS = {
    "sim": _cmd_verify,
    "verify": _cmd_verify,
    "sweep-k": _cmd_sweep,
    "check-graph": _cmd_check_graph,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.step is not None:
            overrides["step"] = _number(args.step, "--h", positive=True)
        if args.seed is not None:
            overrides["seed"] = _int(args.seed, "--seed", minimum=0)
        config = dataclasses.replace(load_config(args.config), **overrides)
        return _COMMANDS[args.command](args, config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # writing a trace, a report or the sweep table
        print(f"output error: {err}", file=sys.stderr)
        return 1
    except (DivergenceError, np.linalg.LinAlgError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
