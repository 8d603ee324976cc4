"""Behaviour lock: pinned digests of small reference runs.

Each reference workload below is a small seeded run whose deterministic
results (:func:`repro.distsim.canonical_metrics`) are hashed and compared
against a pinned SHA-256 digest.  A refactor that claims "same behaviour"
must leave every digest unchanged; an intended behaviour change bumps the
digest it moves and says why in CHANGES.md.

The two observed runs additionally pin everything the observers
themselves report — the audit report, the causal decompositions, the
flight-recorder dump, the comparable telemetry snapshot and the exported
trace events — so instrumentation refactors are held to the same bar.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.distsim import canonical_metrics
from repro.distsim.merge import comparable_snapshot
from repro.maze import EmulationConfig, run_emulation
from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, poisson_trace


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _trace(n_flows=30, interarrival_ns=8_000):
    topology = TorusTopology((4, 4))
    return topology, poisson_trace(topology, n_flows, interarrival_ns, seed=3)


def _sim(config, **trace_kwargs):
    topology, trace = _trace(**trace_kwargs)
    return run_simulation(topology, trace, config)


#: A finite queue on a busy fabric: data drops, broadcast drop-notes and
#: §3.2 broadcast retransmissions all happen.
_QLIMIT = dict(n_flows=30, interarrival_ns=2_000)


def _queue_limited_config(**extra):
    return SimConfig(stack="r2c2", queue_limit_bytes=3_100, seed=3, **extra)


def _run_r2c2_shared():
    return canonical_metrics(_sim(SimConfig(stack="r2c2", seed=3)))


def _run_r2c2_per_node():
    return canonical_metrics(
        _sim(SimConfig(stack="r2c2", control_plane="per_node", seed=3))
    )


def _run_r2c2_queue_limited():
    topology, trace = _trace(**_QLIMIT)
    telemetry = Telemetry(TelemetryConfig(trace=False))
    metrics = run_simulation(topology, trace, _queue_limited_config(), telemetry=telemetry)
    counters = telemetry.metrics.snapshot()["counters"]
    assert metrics.drops > 0
    assert counters["broadcast.retransmissions"] > 0
    return canonical_metrics(metrics)


def _run_r2c2_reliable_lossy():
    metrics = _sim(SimConfig(stack="r2c2", reliable=True, loss_rate=0.02, seed=3))
    assert metrics.wire_losses > 0
    return canonical_metrics(metrics)


def _run_tcp():
    return canonical_metrics(_sim(SimConfig(stack="tcp", seed=3)))


def _run_pfq():
    return canonical_metrics(_sim(SimConfig(stack="pfq", seed=3)))


def _run_fig7_maze():
    # The Figure 7 cross-validation workload shape (4x4 torus at 5 Gbps,
    # fixed-size flows, tau = 150 us, seed 21), shrunk to a few flows.
    topology = TorusTopology((4, 4), capacity_bps=gbps(5))
    trace = poisson_trace(topology, 8, 150_000, sizes=FixedSize(200_000), seed=21)
    return canonical_metrics(run_emulation(topology, trace, EmulationConfig(seed=21)))


def _observed(topology, trace, config):
    """Run with a telemetry session; return everything the observers report."""
    telemetry = Telemetry(TelemetryConfig())
    metrics = run_simulation(topology, trace, config, telemetry=telemetry)
    return {
        "metrics": canonical_metrics(metrics),
        "audit": dataclasses.asdict(metrics.audit),
        "flow_obs": metrics.flow_obs,
        "flight_dump": metrics.flight_dump,
        "telemetry": comparable_snapshot(telemetry.metrics.snapshot()),
        "trace_events": telemetry.trace.export_events(),
    }


def _run_all_observers():
    # Lossy reliable R2C2 with per-node control: wire losses, RTO waits,
    # sampled packet spans and per-node epochs reach every observer.
    topology, trace = _trace()
    config = SimConfig(
        stack="r2c2",
        reliable=True,
        loss_rate=0.02,
        control_plane="per_node",
        seed=3,
        audit=True,
        obs=True,
        flight=True,
    )
    return _observed(topology, trace, config)


def _run_observers_queue_limited():
    # Queue drops and broadcast retransmissions seen by the auditor, the
    # causal tracer and telemetry.
    topology, trace = _trace(**_QLIMIT)
    return _observed(topology, trace, _queue_limited_config(audit=True, obs=True))


REFERENCE_RUNS = {
    "r2c2_shared": _run_r2c2_shared,
    "r2c2_per_node": _run_r2c2_per_node,
    "r2c2_queue_limited": _run_r2c2_queue_limited,
    "r2c2_reliable_lossy": _run_r2c2_reliable_lossy,
    "tcp": _run_tcp,
    "pfq": _run_pfq,
    "fig7_maze": _run_fig7_maze,
    "all_observers": _run_all_observers,
    "observers_queue_limited": _run_observers_queue_limited,
}

#: Pinned at the revision that introduced this lock.  Do not re-pin to
#: make a failure go away: a moved digest means behaviour changed.
PINNED_DIGESTS = {
    "r2c2_shared": "762ac88ed59fb579dfa9dbd8e20f860aefc03f3cb7bbdb9faa4efd34963a506c",
    "r2c2_per_node": "154d9a9c51f10fda1e90b9c34be0e6611b0e0ec3baeaacea2dc6a892aa20ba7e",
    "r2c2_queue_limited": "2fb3fa5555479e5bad5b6d087976097184d6bb82c36c5fa5185449b92204c4ff",
    "r2c2_reliable_lossy": "99cb0ce207f35cbf99d76fd32aa36e5ba35f4883386f47a5d0aebfd012c97266",
    "tcp": "ac4bfd03bf536afe153211625baf555fd86ea9bc7f1b33f788cf303270141a62",
    "pfq": "80a5ee83c732c3162f93681d3f8ce43e6048cffb21911baaa6548e0d7ebd7ae6",
    "fig7_maze": "59f364e0a73d2d9ae2d694bdc959193ad392f1a54d8aed52b1c8c2cc6fa4535c",
    "all_observers": "2d9f3946584fe096fe78a701cea98de8c5b3c2dea8f4ef57539fb33b6c93287b",
    "observers_queue_limited": "4e0968a8b24fee9dfd5f930e8153c5a9747d17d436c103a77b3762506cc3e35b",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_reference_run_digest_is_pinned(name):
    assert _digest(REFERENCE_RUNS[name]()) == PINNED_DIGESTS[name], (
        f"behaviour of reference run {name!r} changed; if intended, bump its "
        "digest and record what moved and why in CHANGES.md"
    )
