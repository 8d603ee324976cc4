"""What ``BENCHMARK.json`` has no room for.

``BENCHMARK.json`` at the repository root holds the workload names and
reasons and the metric names, units, directions and bounds; ``run.py``
reads them from there.  This file adds each workload's settings and its
default and held-out seeds, what every end-to-end metric means on each
workload, and, for each per-layer metric, the end-to-end metric it should
move and the workloads it is measured on.  The self-test checks that both
name the same workloads and metrics.
"""

from __future__ import annotations

#: name -> settings.  ``seed`` is the default; ``held_out_seed`` is kept
#: for confirming a claimed gain on a seed not used while writing it.
WORKLOADS = {
    "r2c2_rack512": {
        "kind": "sim", "stack": "r2c2", "flows": 400,
        "seed": 1, "held_out_seed": 1001,
    },
    "serve_churn": {
        "kind": "serve",
        "seed": 1, "held_out_seed": 1001,
    },
}

#: name -> (meaning on the simulator workload, meaning on serve_churn)
#: Host times (``wall_s``, ``setup_s``, ``rate_per_s``, and on serve_churn
#: also ``p50_ms`` and ``tail_ms``) are reported at the reference host's
#: speed: as measured, times the probe's reference seconds
#: (``common.PROBES``) over the run's median probe time (per-layer
#: ``bench.probe_s``: the python probe on the simulator, the numpy probe on
#: serve_churn).  The output prints them as measured too.
END_TO_END = {
    "wall_s": ("one simulation, from handing dimensions and trace to the program until "
               "its metrics return (median of the run's simulations)",
               "set-up (median) plus the fixed closed-loop script"),
    "setup_s": ("from that hand-over until the first EventLoop.run_batch: topology, FIB, "
                "weights, network and stacks (median of the run's simulations, and of "
                "set-up-only passes up to at least 3 samples)",
                "daemon start until its port file appears, plus the preload (median of one "
                "per round and one for the measured daemon)"),
    "rate_per_s": ("trace flows per host second after set-up (the trace's sizes are fixed, "
                   "so this is proportional to simulated payload MB/s)",
                   "closed-loop operations per second, one request outstanding"),
    "p50_ms": ("simulated short-flow (<100 KB) FCT median (Fig. 12)",
               "closed-loop update latency median (the open-loop one is per-layer: too unsteady)"),
    "tail_ms": ("simulated short-flow FCT p97 (the highest percentile with 10 of the R2C2 "
                "trace's short flows beyond it)",
                "closed-loop update latency p99 (the open-loop p99 is per-layer: too unsteady)"),
    "peak_rss_mb": ("peak RSS of the benchmark process",
                    "largest peak RSS of the benchmark process and its daemons"),
}

R2C2 = ("r2c2_rack512",)
SERVE = ("serve_churn",)
ALL = R2C2 + SERVE

#: name -> (end-to-end metric it should move, workloads it is measured on).
#: Every traced run prints every metric; off its workloads it reads 0.
PER_LAYER = {
    "topology.build_s": ("setup_s", R2C2),
    "broadcast.fib_build_s": ("setup_s wall_s", R2C2),
    "broadcast.trees_built": ("setup_s", R2C2),
    "broadcast.packets": ("rate_per_s", R2C2),
    "broadcast.bytes": ("rate_per_s", R2C2),
    "congestion.weight_rows": ("setup_s", R2C2 + SERVE),
    "congestion.weights_s": ("setup_s", R2C2 + SERVE),
    "congestion.epochs_recomputed": ("wall_s", R2C2),
    "congestion.epochs_skipped": ("wall_s", R2C2),
    "congestion.recompute_s": ("wall_s", R2C2),
    "congestion.waterfill_calls": ("wall_s", R2C2),
    "congestion.waterfill_s": ("wall_s", R2C2),
    "congestion.waterfill_per_recompute": ("wall_s", R2C2),
    "congestion.patch_s": ("p50_ms tail_ms rate_per_s", SERVE),
    "congestion.fallback_s": ("tail_ms", SERVE),
    "congestion.incremental_ops": ("p50_ms rate_per_s", SERVE),
    "congestion.fallback_recomputes": ("tail_ms", SERVE),
    "congestion.incremental_ratio": ("tail_ms rate_per_s", SERVE),
    "service.state_s": ("p50_ms rate_per_s", SERVE),
    "service.ops": ("rate_per_s", SERVE),
    "service.open_update_p50_ms": ("p50_ms", SERVE),
    "service.open_update_p99_ms": ("tail_ms", SERVE),
    "service.query_p50_ms": ("p50_ms", SERVE),
    "service.query_p99_ms": ("tail_ms", SERVE),
    "wire.remainder_s": ("p50_ms rate_per_s", SERVE),
    "runner.self_s": ("setup_s", R2C2),
    "sim.events": ("rate_per_s wall_s", R2C2),
    "sim.heap_pushes": ("rate_per_s wall_s", R2C2),
    "sim.run_s": ("rate_per_s wall_s", R2C2),
    "sim.self_s": ("rate_per_s wall_s", R2C2),
    "network.self_s": ("rate_per_s", R2C2),
    "network.packets_sent": ("rate_per_s", R2C2),
    "network.drops": ("rate_per_s", R2C2),
    "network.wire_bytes": ("rate_per_s", R2C2),
    "network.max_queue_p99_bytes": ("rate_per_s", R2C2),
    "stacks.self_s": ("rate_per_s", R2C2),
    "stacks.start_flow_calls": ("rate_per_s", R2C2),
    "stacks.deliver_calls": ("rate_per_s", R2C2),
    "stacks.ack_bytes": ("rate_per_s", R2C2),
    "distsim.wall_s": ("wall_s", R2C2),
    "distsim.serial_wall_s": ("wall_s", R2C2),
    "distsim.rounds": ("wall_s", R2C2),
    "distsim.boundary_messages": ("wall_s", R2C2),
    "distsim.blocked_s": ("wall_s", R2C2),
    "distsim.lookahead_utilization": ("wall_s", R2C2),
    "distsim.cut_links": ("wall_s", R2C2),
    "bench.trace_overhead_frac": ("all", ALL),
    "bench.gen_late_p99_ms": ("p50_ms tail_ms", SERVE),
    "bench.probe_s": ("all host times (their scale)", ALL),
}

#: Counts that must repeat exactly across runs at one seed (CI may gate them).
DETERMINISTIC = (
    "sim.events", "sim.heap_pushes", "broadcast.trees_built",
    "congestion.waterfill_calls", "congestion.fallback_recomputes",
)
