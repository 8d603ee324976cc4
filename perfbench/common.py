"""Helpers shared by the workloads: statistics, memory, the result line."""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import random
import re
import resource
import statistics
import time

#: Metric names the result line may carry.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class CheckFailed(Exception):
    """An output check failed: the run prints no result and exits non-zero."""


def check(condition: bool, message: str) -> None:
    """Fail the run loudly unless *condition* holds."""
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of *values* (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    A client and a daemon that answer each other in turn then never pay a
    cross-CPU wake-up, whose cost on a virtual machine depends on where the
    scheduler happened to put the two (it moved ``serve_churn``'s closed
    loop by up to 20 %).  Where affinity cannot be set, nothing changes.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _python_probe() -> None:
    """Dict lookups over shuffled keys and a heap, like the event loop's."""
    rng = random.Random(7)
    table = {i: (3 * i, [i, i + 1]) for i in range(60_000)}
    keys = list(table)
    rng.shuffle(keys)
    total = 0
    for _ in range(3):
        for key in keys:
            a, b = table[key]
            total += a + b[1]
    heap = []
    for key in keys[:40_000]:
        heapq.heappush(heap, (key * 7919 % 10007, key))
    while heap:
        heapq.heappop(heap)


def _numpy_probe() -> None:
    """Water-fill-like steps on a flow x link array, like the allocator's."""
    import numpy as np

    rng = np.random.default_rng(7)
    demand = rng.random((1500, 512))
    capacity = rng.random(512) + 1.0
    for _ in range(12):
        share = capacity / np.maximum(demand.sum(axis=0), 1e-9)
        frozen = demand * share[None, :] > 0.3
        level = np.where(frozen, demand, 0.0).min(axis=1)
        open_rows = demand[~frozen[:, int(np.argmin(share))]]
        capacity = capacity - (level.sum() + open_rows.sum()) * 1e-9


#: Speed probes: name -> (fixed workload, its seconds on the reference
#: host, a 2.1 GHz Xeon core).  A shared host's speed drifts by 20-40 %
#: over minutes, and interpreted code and numpy kernels drift differently;
#: each workload reports its host times at the reference host's speed by
#: the probe whose work resembles its own (``simbench``: python,
#: ``servebench``: numpy, whose fallback recomputes dominate its tail).
PROBES = {"python": (_python_probe, 0.2), "numpy": (_numpy_probe, 0.05)}


def probe_times(kind: str, n: int = 3) -> list:
    """Seconds each of *n* back-to-back runs of probe *kind* takes.

    Each runs after a collection with the collector off, so what the
    program left on the heap does not enter.
    """
    work = PROBES[kind][0]
    times = []
    for _ in range(n):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            work()
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    return times


def host_scale(kind: str, probes) -> float:
    """Factor that turns this run's host seconds into reference-host seconds."""
    return PROBES[kind][1] / median(probes)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest waited child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    """The JSON object the benchmark prints as its last line."""
    for name in metrics:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps(
        {
            "correct": True,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def report(metrics: dict, units: dict, title: str) -> None:
    """Human-readable metric table (before the result line)."""
    print(f"-- {title}")
    width = max((len(name) for name in metrics), default=0)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
