"""consensusflow benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-configs, seed-ensemble, large-graph, or ``all`` (each in
its own child process, since set-up time and peak memory are per process).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same inputs once untraced and once with recording wrappers, and
prints the per-layer metrics.  Human-readable lines start with ``#``; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-configs", "seed-ensemble", "large-graph")
# The dense coupling is a BLAS product; an unpinned thread pool would
# measure the scheduler.  One thread, which is at most nproc anywhere.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKDIR = ROOT / ".bench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's smoke test")
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = ROOT / "src" / "consensusflow"
    if not (package / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return fail(f"no consensusflow sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import consensusflow
    if Path(consensusflow.__file__).resolve().parent != package.resolve():
        return fail(f"imported consensusflow from {consensusflow.__file__}, not {package}")
    import runner  # numpy and the package load here, after the thread pin

    result = runner.measure(args.workload, args.seed, args.seconds, args.trace,
                            args.tiny, ROOT, WORKDIR)
    with contextlib.suppress(OSError):  # left in place when another run uses it
        WORKDIR.rmdir()
    print_human(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in result["metrics"].items()},
    }))
    return 0


def print_human(r):
    import layers
    import runner

    print(f"# consensusflow benchmark: workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']:g} trace={r['trace']}")
    print(f"# host: {json.dumps(r['host'])}")
    print(f"# inputs: {json.dumps(r['inputs'])}")
    for op, runs in r["integrations"].items():
        if runs:
            print(f"# integrations in {op}: {json.dumps(runs)}")
    print(f"# node steps per pass: {r['node_steps_per_pass']}")
    fail_ratio = r["failed"] / r["attempted"]
    print(f"# {'fail_ratio':<44} {fail_ratio:>14.6g} ratio  "
          f"({r['failed']} of {r['attempted']} operations)")
    moves = {row[0]: row[4] for row in layers.all_metrics()}
    for name, (value, unit, n) in r["metrics"].items():
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"# {name:<44} {value:>14.6g} {unit:<5} (n={n}){note}")
    if r.get("tail"):
        q, value, n = r["tail"]
        print(f"# op_p{q}_s {value:.6g} s (n={n})")
    factor, n = r["speed_factor"]
    print(f"# host speed factor from the calibration kernel: median {factor:.4f} (n={n}); "
          "end-to-end times above are wall times divided by it")
    if "passes" in r:
        print("# pass times, scaled/raw wall: "
              + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in r["passes"]) + " s")
    for op, (scaled, wall, n) in r.get("ops", {}).items():
        ref = runner.ROADMAP_STATE.get(f"{op}_s")
        note = f"  (ROADMAP state: {ref:g} s)" if ref else ""
        print(f"# op {op}: median {scaled:.6g} s scaled, {wall:.6g} s raw wall (n={n}){note}")
    for key, value in r.get("rhs_us", {}).items():
        print(f"# {key}: {value:.4g} us (ROADMAP state: {runner.ROADMAP_STATE[key]:g} us)")
    if r["trace"]:
        print(f"# known limit: {layers.KNOWN_LIMIT}")
    for line in r["hashes"]:
        print(f"# report_hash {line}")
    for problem in r["problems"][:20]:
        print(f"# FAILED {problem}")


def run_all(args):
    """Run every workload in its own child process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with code {proc.returncode}")
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
