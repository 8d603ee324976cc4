"""One benchmark for the 512-node rack.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload r2c2_rack512 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  Every run checks the program's outputs and exits non-zero,
without a result, if one is wrong.  The last line of a single-workload run
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Workload and metric names and units come from ``BENCHMARK.json``; each
workload's settings and seeds, and what the metrics mean, are in
``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark()["workloads"]],
                        help="run one workload (default: all of them, untraced)")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up stay separate."""
    status = 0
    for name in (w["name"] for w in benchmark()["workloads"]):
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        print(f"== {name}", flush=True)
        code = subprocess.run(command, cwd=ROOT).returncode
        if code:
            print(f"== {name} FAILED (exit {code})", flush=True)
            status = 1
    return status


def run_one(args) -> int:
    from common import CheckFailed, peak_rss_mb, report, result_line
    from spec import WORKLOADS

    doc = benchmark()
    workload = WORKLOADS[args.workload]
    seed = workload["seed"] if args.seed is None else args.seed
    seconds = doc["run_seconds"] if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{seed}.json"
    print(f"{args.workload}: seed {seed}, {seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}", flush=True)
    try:
        if workload["kind"] == "sim":
            import inputs
            import simbench

            from repro.sim import SimConfig

            trace = simbench.make_trace(
                inputs.flow_trace(seed, simbench.DIMS, workload["flows"])
            )
            config = SimConfig(stack=workload["stack"], seed=seed)
            attempted = len(trace)
            if args.trace:
                measured = simbench.measure_traced(trace, config, seed, spans_path)
                attempted *= 2
            else:
                measured = simbench.measure(trace, config, seconds)
                measured["peak_rss_mb"] = peak_rss_mb()
                attempted *= measured["samples"]
            failed = 0
        else:
            import servebench

            if args.trace:
                measured = servebench.measure_traced(ROOT, OUT, seed, seconds, spans_path)
            else:
                measured = servebench.measure(ROOT, OUT, seed, seconds, "run")
            attempted, failed = measured["attempted"], measured["failed"]
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr, flush=True)
        return 1
    units = {m["name"]: m["unit"] for m in doc["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = {name: measured.get(name, 0) for name in units}
    else:
        metrics = {name: measured[name] for name in units}
    report(metrics, units, f"{args.workload} {'per-layer' if args.trace else 'end-to-end'}")
    print(f"  attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.4f})", flush=True)
    print(result_line(metrics, units, attempted, failed), flush=True)
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an error, so every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
