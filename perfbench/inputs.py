"""Seeded inputs for the benchmark workloads.

The benchmark makes its own inputs, so a change to the program's workload
generators never changes what is measured.  Everything here is a pure
function of the seed.
"""

from __future__ import annotations

import math
import random

#: The paper's §5.2 traffic model: Poisson arrivals, Pareto(1.05) sizes
#: with a 100 KB mean (capped at 20 MB like the repo's own benches).
MEAN_INTERARRIVAL_NS = 5_000
PARETO_SHAPE = 1.05
PARETO_MEAN_BYTES = 100 * 1024
SIZE_CAP_BYTES = 20_000_000


def pareto_quantile_sizes(n: int) -> list:
    """The *n* midpoint quantiles of the capped Pareto size law.

    Every seed gets the same multiset of sizes (only their order, and so
    their endpoints and start times, changes), which keeps the total bytes
    of a trace, and therefore the run time, from swinging with how many
    heavy-tail draws a seed happens to make.
    """
    x_min = PARETO_MEAN_BYTES * (PARETO_SHAPE - 1.0) / PARETO_SHAPE
    sizes = []
    for i in range(n):
        q = (i + 0.5) / n
        size = x_min / (1.0 - q) ** (1.0 / PARETO_SHAPE)
        sizes.append(max(1, int(min(size, SIZE_CAP_BYTES))))
    return sizes


def random_pair(rng: random.Random, n_nodes: int) -> tuple:
    """A uniformly random ordered pair of distinct nodes."""
    src = rng.randrange(n_nodes)
    dst = rng.randrange(n_nodes - 1)
    if dst >= src:
        dst += 1
    return src, dst


def balanced_pairs(rng: random.Random, n_nodes: int, n: int) -> list:
    """*n* random ``(src, dst)`` pairs, src != dst, where every node is a
    source about equally often and a destination about equally often.

    Balancing the endpoints removes the seed-to-seed swing in incast hot
    spots that uniform pairs have, which otherwise dominates the FCT tail.
    """
    def deck():
        nodes = []
        while len(nodes) < n:
            block = list(range(n_nodes))
            rng.shuffle(block)
            nodes += block
        return nodes[:n]

    srcs, dsts = deck(), deck()
    for i in range(n):
        while srcs[i] == dsts[i]:
            j = rng.randrange(n)
            if dsts[j] != srcs[i] and dsts[i] != srcs[j]:
                dsts[i], dsts[j] = dsts[j], dsts[i]
    return list(zip(srcs, dsts))


def torus_hops(a: int, b: int, dims) -> int:
    """Minimal hop count between nodes *a* and *b* of a torus with
    row-major node ids."""
    hops = 0
    for size in reversed(dims):
        a, ca = divmod(a, size)
        b, cb = divmod(b, size)
        delta = abs(ca - cb)
        hops += min(delta, size - delta)
    return hops


def mean_hops(dims) -> float:
    """Mean hop count between two distinct uniformly random torus nodes."""
    n_nodes = math.prod(dims)
    return sum(torus_hops(0, b, dims) for b in range(n_nodes)) / (n_nodes - 1)


#: A trace's byte-weighted mean hop count stays within this share of the
#: torus mean (see ``flow_trace``).
HOP_TOLERANCE = 0.01


def flow_trace(seed: int, dims, n_flows: int) -> list:
    """``(flow_id, src, dst, size_bytes, start_ns)`` tuples, by start time.

    The few largest flows carry most of the bytes, so how far they happen
    to travel sets how many packet hops, and so how much host time, a
    simulation costs.  Candidate traces are drawn from the seed until one
    has a byte-weighted mean hop count within ``HOP_TOLERANCE`` of the
    torus mean; the accepted trace is still a random §5.2 trace.
    """
    n_nodes = math.prod(dims)
    target = mean_hops(dims)
    for attempt in range(1000):
        rng = random.Random(seed * 1000 + attempt)
        sizes = pareto_quantile_sizes(n_flows)
        rng.shuffle(sizes)
        pairs = balanced_pairs(rng, n_nodes, n_flows)
        weighted = sum(
            size * torus_hops(src, dst, dims) for size, (src, dst) in zip(sizes, pairs)
        ) / sum(sizes)
        if abs(weighted - target) <= HOP_TOLERANCE * target:
            break
    else:
        raise ValueError(f"no trace near the mean hop count for seed {seed}")
    trace = []
    now = 0.0
    for flow_id, (size, (src, dst)) in enumerate(zip(sizes, pairs)):
        now += rng.expovariate(1.0 / MEAN_INTERARRIVAL_NS)
        trace.append((flow_id, src, dst, size, int(now)))
    return trace


def demand_deck(rng: random.Random):
    """Endless mostly host-limited demands (§3.3.2), in shuffled blocks of 10.

    Each block holds one unbounded (network-limited) demand and nine drawn
    from stratified slices of 0.5-4 Gb/s.  Fixing the mix per block, rather
    than drawing each demand independently, keeps how many flows weld into
    one saturation component, and so the allocator's cost, from swinging
    with the seed.
    """
    while True:
        block = [math.inf] + [(0.5 + 3.5 * (i + rng.random()) / 9) * 1e9 for i in range(9)]
        rng.shuffle(block)
        yield from block


#: Update mix of the serve workload, per block of 25 updates: announce a
#: new flow, finish a random live one, change a live flow's demand (a
#: re-announce).  44/44/12 % is the mix the repo's churn oracle
#: (``repro.validation.churn.churn_ops``) settles into once its population
#: is at the cap, measured over 10^5 of its ops; like it, a finish picks a
#: random live flow.
UPDATE_BLOCK = ("announce",) * 11 + ("finish",) * 11 + ("demand",) * 3


def serve_script(seed: int, n_nodes: int, n_preload: int, n_ops: int) -> tuple:
    """``(preload, ops)`` for the control daemon.

    ``preload`` is a list of flows ``(flow_id, src, dst, demand_bps)``;
    ``ops`` is a list of ``(kind, flow)`` where *flow* is such a tuple for
    announce/demand and a flow id for finish/query.  Updates come in
    shuffled ``UPDATE_BLOCK`` blocks, so the live population stays within a
    few flows of *n_preload*.  Each announce and demand update is followed
    by a query of that flow: the daemon's acknowledgement carries no rate
    (``wire.control.ControlAck``), so the sender reads the new rate back
    before it can pace the flow.  Queries are therefore 14 of every 39 ops.
    Every finish, demand update and query names a flow that is live when
    the op runs, provided the ops run in order after the preload.
    """
    rng = random.Random(seed)
    demands = demand_deck(rng)
    live = {}  # flow_id -> flow
    for flow_id in range(n_preload):
        live[flow_id] = (flow_id, *random_pair(rng, n_nodes), next(demands))
    preload = list(live.values())
    next_id = n_preload
    ops = []
    while len(ops) < n_ops:
        block = list(UPDATE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "announce":
                flow = (next_id, *random_pair(rng, n_nodes), next(demands))
                live[next_id] = flow
                next_id += 1
                ops += [("announce", flow), ("query", flow[0])]
            elif kind == "finish":
                flow_id = rng.choice(list(live))
                del live[flow_id]
                ops.append(("finish", flow_id))
            else:
                flow_id = rng.choice(list(live))
                live[flow_id] = live[flow_id][:3] + (next(demands),)
                ops += [("demand", live[flow_id]), ("query", flow_id)]
    return preload, ops[:n_ops]


def live_after(preload, ops) -> dict:
    """The flow table (flow_id -> flow) once *preload* then *ops* ran."""
    live = {flow[0]: flow for flow in preload}
    for kind, flow in ops:
        if kind in ("announce", "demand"):
            live[flow[0]] = flow
        elif kind == "finish":
            del live[flow]
    return live
