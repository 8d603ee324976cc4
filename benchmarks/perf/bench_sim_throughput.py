"""End-to-end simulator throughput on a fixed-seed Poisson workload.

Runs the full R2C2 stack (shared control plane) on a 64-node torus and
records wall-clock and events/s into ``BENCH_sim.json``.  Note that
``events_processed`` is not comparable across revisions that change event
batching (a coalesced broadcast fan-out counts as one event); wall-clock
for the identical workload is the cross-revision metric.

Quick mode simulates a smaller workload whose wall clock is not comparable
with the full-size history, so ``--quick --check`` gates deterministic
work counts instead: the run's ``QUICK_COUNTS`` must equal the last row of
the ``QUICK_SCENARIO`` history exactly (record one with ``--quick --record``
when a change moves them on purpose).

Run::

    PYTHONPATH=src python benchmarks/perf/bench_sim_throughput.py [--quick]
        [--check] [--record --rev <label>]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfcommon import (
    REPO_ROOT,
    check_regression,
    load_history,
    make_parser,
    record_entry,
    report,
    save_history,
)

from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.workloads import ParetoSizes, poisson_trace

SCENARIOS = {
    # name: (n_flows, dims, reps)
    "sim_r2c2_200flows_4x4x4": (200, (4, 4, 4), 3),
}
QUICK_FLOWS = 60
SEED = 0
#: Quick mode's history slot and the deterministic counts it gates exactly.
QUICK_SCENARIO = "sim_r2c2_60flows_4x4x4_quick_counts"
QUICK_COUNTS = (
    "events_processed",
    "total_bytes_on_wire",
    "epochs_recomputed",
    "epochs_skipped",
)


def _scenario_workload(n_flows: int, dims: tuple):
    topo = TorusTopology(dims)
    trace = poisson_trace(
        topo,
        n_flows,
        5000,
        sizes=ParetoSizes(mean_bytes=100 * 1024, shape=1.05, cap_bytes=20_000_000),
        seed=SEED,
    )
    return topo, trace


def telemetry_snapshot(n_flows: int, dims: tuple) -> dict:
    """Compact metrics snapshot from an extra, *untimed* instrumented run.

    Counters, gauges and histogram quantiles only — per-link series would
    bloat the history file.  Recorded alongside the timings so each
    revision's entry carries the workload's telemetry fingerprint (wire
    bytes, epochs, queue occupancy) next to its wall clock.
    """
    topo, trace = _scenario_workload(n_flows, dims)
    telemetry = Telemetry(TelemetryConfig(trace=False, per_link_series=False))
    run_simulation(topo, trace, SimConfig(stack="r2c2", seed=SEED), telemetry=telemetry)
    snap = telemetry.metrics.snapshot()
    return {
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histogram_p99": {
            name: hist.quantile(0.99)
            for name, hist in (
                (h.name, h)
                for h in telemetry.metrics.instruments()
                if hasattr(h, "quantile")
            )
        },
    }


def run_scenario(n_flows: int, dims: tuple, reps: int) -> dict:
    topo, trace = _scenario_workload(n_flows, dims)
    runs = []
    for _ in range(reps):
        started = time.perf_counter()
        metrics = run_simulation(topo, trace, SimConfig(stack="r2c2", seed=SEED))
        runs.append((time.perf_counter() - started, metrics))
    runs.sort(key=lambda run: run[0])
    median_s, metrics = runs[len(runs) // 2]
    events = metrics.events_processed
    return {
        "median_s": round(median_s, 4),
        "events_processed": events,
        "events_per_s": round(events / median_s, 1),
        "n_flows": n_flows,
        "dims": "x".join(map(str, dims)),
        "seed": SEED,
        "counts": {name: getattr(metrics, name) for name in QUICK_COUNTS},
    }


def check_counts(doc: dict, counts: dict) -> str:
    """Return an error string unless *counts* equal the last quick row."""
    slot = doc["scenarios"].get(QUICK_SCENARIO)
    if not slot or not slot["history"]:
        return f"{QUICK_SCENARIO}: no recorded row to check against"
    expected = {name: slot["history"][-1][name] for name in QUICK_COUNTS}
    if counts != expected:
        return f"{QUICK_SCENARIO}: counts {counts} != recorded {expected}"
    return ""


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_sim.json")
    doc = load_history(out, "bench_sim_throughput")
    print("bench_sim_throughput" + (" (quick)" if args.quick else ""))
    failures = []
    for name, (n_flows, dims, reps) in SCENARIOS.items():
        if args.quick:
            n_flows, reps = QUICK_FLOWS, 1
        entry = run_scenario(n_flows, dims, reps)
        counts = entry.pop("counts")
        report(name, entry)
        if args.quick:
            # Quick timings are not comparable with the full-size history:
            # gate (and record) the deterministic counts instead.
            if args.check:
                error = check_counts(doc, counts)
                if error:
                    failures.append(error)
            if args.record:
                record_entry(
                    doc,
                    QUICK_SCENARIO,
                    f"deterministic counts of the --quick run: {n_flows} Poisson "
                    f"pareto flows, r2c2 stack, {'x'.join(map(str, dims))} torus, "
                    f"seed {SEED}",
                    {**counts, "n_flows": n_flows, "rev": args.rev},
                )
        elif args.check:
            error = check_regression(doc, name, entry["median_s"])
            if error:
                failures.append(error)
        if args.record and not args.quick:
            entry["rev"] = args.rev
            entry["telemetry"] = telemetry_snapshot(n_flows, dims)
            record_entry(
                doc,
                name,
                f"run_simulation of {n_flows} Poisson pareto flows, r2c2 "
                f"stack, {'x'.join(map(str, dims))} torus, seed {SEED}",
                entry,
            )
    if args.record:
        save_history(out, doc)
        print(f"recorded to {out}")
    for error in failures:
        print(f"REGRESSION: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
