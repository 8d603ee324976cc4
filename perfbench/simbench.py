"""The simulator workload: one 8x8x8 torus, a §5.2 trace, the R2C2 stack.

Untraced (``--trace 0``): the trace is simulated again and again until the
run's seconds are used up (at least once).  Each simulation is timed from
handing topology dimensions and trace to the program until its metrics
return; set-up ends at the first ``EventLoop.run_batch``.  Extra
set-up-only passes (stopped at that first ``run_batch``) give ``setup_s``
at least ``SETUP_SAMPLES`` samples.  Python speed probes run before
every simulation and at the end; host times are reported at the
reference host's speed (``common.host_scale``).

Traced (``--trace 1``): one untraced and one traced simulation of the same
trace; the traced one has span wrappers on every layer's entry points.
It also runs the trace through the sharded engine
(``run_sharded_simulation(shards=2, executor="process")``) and checks it
against a serial run of the same configuration.
"""

from __future__ import annotations

import gc
import time

from common import check, host_scale, median, percentile, pin_to_one_cpu, probe_times
from tracer import Tracer

from repro.sim import SimConfig, run_simulation
from repro.sim.engine import EventLoop
from repro.topology import TorusTopology
from repro.workloads import FlowArrival

DIMS = (8, 8, 8)
SETUP_SAMPLES = 3
#: Tail percentile of short-flow FCT: the highest with at least 10 of the
#: trace's ~380 short flows beyond it.  p99 has only ~4 there.
TAIL_PCT = 97


class _SetupDone(BaseException):
    """Raised at the first ``run_batch`` of a set-up-only pass."""


def make_trace(tuples) -> list:
    return [FlowArrival(*t) for t in tuples]


def simulate(trace, config, setup_only=False, tracer=None):
    """One timed simulation: ``(setup_s, wall_s, metrics)``.

    With *setup_only* the run stops at the first ``run_batch`` and
    ``wall_s``/``metrics`` are ``None``.
    """
    gc.collect()  # start every sample from a heap without earlier runs' garbage
    mark = []
    original = EventLoop.__dict__["run_batch"]

    def run_batch(self, *args, **kwargs):
        if not mark:
            mark.append(time.perf_counter())
            if setup_only:
                raise _SetupDone
        return original(self, *args, **kwargs)

    EventLoop.run_batch = run_batch
    started = time.perf_counter()
    try:
        if tracer is None:
            topology = TorusTopology(DIMS)
            metrics = run_simulation(topology, trace, config)
        else:
            frame = tracer.open("TorusTopology", keep=True)
            topology = TorusTopology(DIMS)
            tracer.close(frame, "TorusTopology", "topology")
            frame = tracer.open("run_simulation", keep=True)
            try:
                metrics = run_simulation(topology, trace, config)
            finally:
                tracer.close(frame, "run_simulation", "runner")
    except _SetupDone:
        return mark[0] - started, None, None
    finally:
        EventLoop.run_batch = original
    return mark[0] - started, time.perf_counter() - started, metrics


def check_outputs(trace, metrics) -> None:
    """Every flow completes and delivers exactly the trace's payload bytes."""
    check(len(metrics.flows) == len(trace), "flow count differs from the trace")
    incomplete = [f.flow_id for f in metrics.flows if not f.completed]
    check(not incomplete, f"{len(incomplete)} flow(s) did not complete: {incomplete[:5]}")
    delivered = sum(f.bytes_received for f in metrics.flows)
    expected = sum(a.size_bytes for a in trace)
    check(
        delivered == expected,
        f"delivered {delivered} payload bytes, the trace holds {expected}",
    )


def fingerprint(metrics) -> tuple:
    """What a rerun of one seed must reproduce exactly."""
    return (
        metrics.events_processed,
        metrics.total_bytes_on_wire,
        tuple(f.completed_ns for f in metrics.flows),
    )


def short_fct_ms(metrics) -> tuple:
    """(p50, p``TAIL_PCT``) of simulated short-flow FCT, in ms."""
    fcts = [v / 1e3 for v in metrics.short_fcts_us()]
    return percentile(fcts, 50), percentile(fcts, TAIL_PCT)


def measure(trace, config, seconds: float) -> dict:
    """The untraced end-to-end measurement of one workload."""
    pin_to_one_cpu()
    walls, setups, rates, probes, prints = [], [], [], [], set()
    payload_mb = sum(a.size_bytes for a in trace) / 1e6
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        metrics = None  # free the previous simulation before timing the next
        probes += probe_times("python")
        setup_s, wall_s, metrics = simulate(trace, config)
        check_outputs(trace, metrics)
        prints.add(fingerprint(metrics))
        walls.append(wall_s)
        setups.append(setup_s)
        rates.append(len(trace) / (wall_s - setup_s))
        print(f"  simulation {len(walls)}: wall {wall_s:.3f} s, set-up {setup_s:.3f} s, "
              f"{payload_mb / (wall_s - setup_s):.3f} simulated payload MB/s", flush=True)
    check(len(prints) == 1, "repeated simulations of one trace disagree")
    p50, tail = short_fct_ms(metrics)
    print(f"  simulated short-flow FCT p50 {p50 * 1e3:.2f} us, p{TAIL_PCT} {tail * 1e3:.2f} us; "
          f"{metrics.events_processed} events", flush=True)
    metrics = None
    while len(setups) < SETUP_SAMPLES:
        setup_s, _, _ = simulate(trace, config, setup_only=True)
        setups.append(setup_s)
        print(f"  set-up only: {setup_s:.3f} s", flush=True)
    probes += probe_times("python")
    scale = host_scale("python", probes)
    print(f"  host: median probe {median(probes):.4f} s of {len(probes)}, so host times "
          f"x {scale:.4f}; as measured: wall {median(walls):.3f} s, set-up "
          f"{median(setups):.3f} s, {median(rates):.2f} flows/s", flush=True)
    return {
        "wall_s": median(walls) * scale,
        "setup_s": median(setups) * scale,
        "rate_per_s": median(rates) / scale,
        "p50_ms": p50,
        "tail_ms": tail,
        "samples": len(walls),
    }


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #


def install(tracer: Tracer) -> dict:
    """Wrap each layer's entry points; returns the captured instances."""
    from repro.broadcast import fib as fib_module
    from repro.broadcast.fib import BroadcastFib
    from repro.congestion import controller as controller_module
    from repro.congestion.controller import RateController
    from repro.congestion.linkweights import WeightProvider
    from repro.sim.network import OutputPort, RackNetwork
    from repro.sim.stacks.r2c2 import R2C2Stack

    seen = {"networks": [], "providers": []}

    def count_trees(trees, _args):
        tracer.counts["broadcast.trees_built"] += len(trees)

    tracer.wrap(BroadcastFib, "__init__", "broadcast", "BroadcastFib", keep=True)
    tracer.wrap(fib_module, "build_broadcast_trees", "broadcast", on_result=count_trees)
    tracer.wrap(WeightProvider, "__init__", "weights",
                on_result=lambda _r, args: seen["providers"].append(args[0]))
    tracer.wrap(WeightProvider, "weights_for", "weights")
    tracer.wrap(WeightProvider, "level_matrix", "weights")
    tracer.wrap(RateController, "recompute", "congestion", keep=True)
    tracer.wrap(controller_module, "waterfill", "congestion", "waterfill", keep=True)
    tracer.wrap(EventLoop, "run_batch", "sim", keep=True)
    tracer.count(EventLoop, "schedule_at", "sim.heap_pushes")
    tracer.wrap(RackNetwork, "__init__", "runner",
                on_result=lambda _r, args: seen["networks"].append(args[0]))
    for attr in ("arrived", "inject"):
        tracer.wrap(RackNetwork, attr, "network")
    for attr in ("send", "send_batched", "_finish"):
        tracer.wrap(OutputPort, attr, "network")
    for attr in ("start_flow", "deliver", "on_epoch", "_emit"):
        tracer.wrap(R2C2Stack, attr, "stacks", f"stacks.{attr}")
    return seen


def layer_metrics(tracer: Tracer, seen: dict, metrics) -> dict:
    """The per-layer metrics of one traced simulation."""
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    recomputes = calls["RateController.recompute"]
    network = seen["networks"][-1]
    return {
        "topology.build_s": total["TorusTopology"],
        "broadcast.fib_build_s": total["BroadcastFib"],
        "broadcast.trees_built": tracer.counts["broadcast.trees_built"],
        "broadcast.packets": metrics.broadcast_packets,
        "broadcast.bytes": metrics.broadcast_bytes,
        "congestion.weight_rows": sum(p.cache_size() for p in seen["providers"]),
        "congestion.weights_s": self_s["weights"],
        "congestion.epochs_recomputed": metrics.epochs_recomputed,
        "congestion.epochs_skipped": metrics.epochs_skipped,
        "congestion.recompute_s": total["RateController.recompute"],
        "congestion.waterfill_calls": calls["waterfill"],
        "congestion.waterfill_s": total["waterfill"],
        # Useful / attempted epochs: a skipped epoch found nothing to do.
        "congestion.waterfill_per_recompute": (
            metrics.epochs_recomputed / recomputes if recomputes else 0.0
        ),
        "runner.self_s": self_s["runner"],
        "sim.events": metrics.events_processed,
        "sim.heap_pushes": tracer.counts["sim.heap_pushes"],
        "sim.run_s": total["EventLoop.run_batch"],
        "sim.self_s": self_s["sim"],
        "network.self_s": self_s["network"],
        "network.packets_sent": sum(p.packets_sent for p in network.ports()),
        "network.drops": metrics.drops,
        "network.wire_bytes": metrics.total_bytes_on_wire,
        "network.max_queue_p99_bytes": percentile(metrics.max_queue_occupancy_bytes, 99),
        "stacks.self_s": self_s["stacks"],
        "stacks.start_flow_calls": calls["stacks.start_flow"],
        "stacks.deliver_calls": calls["stacks.deliver"],
        "stacks.ack_bytes": metrics.ack_bytes,
    }


def distsim_metrics(trace, seed: int) -> dict:
    """Serial vs 2-process sharded run of the trace; identical or fail."""
    from repro.distsim import canonical_metrics, run_sharded_simulation

    config = SimConfig(stack="r2c2", control_plane="per_node", seed=seed)
    gc.collect()
    started = time.perf_counter()
    serial = run_simulation(TorusTopology(DIMS), trace, config)
    serial_s = time.perf_counter() - started
    check_outputs(trace, serial)
    serial = canonical_metrics(serial)
    gc.collect()
    started = time.perf_counter()
    sharded = run_sharded_simulation(
        TorusTopology(DIMS), trace, config, shards=2, executor="process"
    )
    sharded_s = time.perf_counter() - started
    check(
        canonical_metrics(sharded.metrics) == serial,
        "2-shard run's canonical metrics differ from the serial run's",
    )
    profile = sharded.sync_profile or {}
    print(f"  distsim: serial (per-node control) {serial_s:.3f} s, 2 process shards "
          f"{sharded_s:.3f} s, canonical metrics identical", flush=True)
    return {
        "distsim.wall_s": sharded_s,
        "distsim.serial_wall_s": serial_s,
        "distsim.rounds": sharded.rounds,
        "distsim.boundary_messages": sharded.boundary_messages,
        "distsim.blocked_s": profile.get("blocked_s") or 0.0,
        "distsim.lookahead_utilization": profile.get("lookahead_utilization") or 0.0,
        "distsim.cut_links": sharded.cut_links,
    }


def measure_traced(trace, config, seed: int, spans_path) -> dict:
    """Per-layer metrics: an untraced then a traced simulation of one trace."""
    probes = probe_times("python")
    _, plain_s, plain = simulate(trace, config)
    check_outputs(trace, plain)
    plain = fingerprint(plain)
    tracer = Tracer()
    seen = install(tracer)
    try:
        _, traced_s, metrics = simulate(trace, config, tracer=tracer)
    finally:
        tracer.restore()
    check_outputs(trace, metrics)
    check(fingerprint(metrics) == plain, "tracing changed the simulation")
    probes += probe_times("python")
    tracer.dump(spans_path)
    print(f"  untraced {plain_s:.3f} s, traced {traced_s:.3f} s; spans in {spans_path}",
          flush=True)
    out = layer_metrics(tracer, seen, metrics)
    out["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    out["bench.probe_s"] = median(probes)
    out.update(distsim_metrics(trace, seed))
    return out
