"""The simulator's one observer interface (repro.sim.probe).

Every observer — the invariant auditor, the flight recorder, causal
tracing and telemetry — subscribes to the same probe, so one test can
hold them all to the same two promises: observing never perturbs the
simulation, and every stack reports the events the observers need.
"""

import json

import pytest

from repro.distsim import canonical_metrics
from repro.obs import check_decomposition
from repro.sim import SimConfig, run_simulation
from repro.sim.probe import HOOKS, HOP_HOOKS, Probe, ProbeTee, listens, tee
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.workloads import poisson_trace


class _Recorder(Probe):
    def __init__(self, log, tag):
        self._log = log
        self._tag = tag

    def on_arrive(self, node, packet, now_ns):
        self._log.append((self._tag, "arrive", node, now_ns))


class _Stalls(Probe):
    def __init__(self, log):
        self._log = log

    def on_stall(self, flow_id, now_ns):
        self._log.append(("stall", flow_id, now_ns))


class TestTee:
    def test_tee_of_nothing_is_none_and_of_one_is_itself(self):
        probe = Probe()
        assert tee([]) is None
        assert tee([None, None]) is None
        assert tee([None, probe]) is probe

    def test_events_fan_out_in_subscription_order(self):
        log = []
        probe = tee([_Recorder(log, "a"), None, _Recorder(log, "b"), _Stalls(log)])
        assert isinstance(probe, ProbeTee)
        probe.on_arrive(3, object(), 70)
        probe.on_stall(9, 80)
        probe.on_enqueue(object(), object(), 90)  # nobody overrides it
        assert log == [
            ("a", "arrive", 3, 70),
            ("b", "arrive", 3, 70),
            ("stall", 9, 80),
        ]

    def test_every_hook_is_forwarded(self):
        assert set(HOOKS) == {name for name in dir(Probe) if name.startswith("on_")}
        assert set(HOP_HOOKS) <= set(HOOKS)

        class Everything(Probe):
            def __init__(self):
                self.log = []

        for name in HOOKS:
            setattr(Everything, name, lambda self, *args, _n=name: self.log.append(_n))
        a, b = Everything(), Everything()
        probe = tee([a, b])
        for name in HOOKS:
            getattr(probe, name)(1, 2, 3)
        assert a.log == b.log == list(HOOKS)

    def test_listens_sees_through_tees(self):
        assert not listens(None, HOP_HOOKS)
        assert not listens(_Stalls([]), HOP_HOOKS)
        assert listens(_Recorder([], "a"), HOP_HOOKS)
        assert listens(tee([_Stalls([]), _Recorder([], "a")]), HOP_HOOKS)
        assert not listens(tee([_Stalls([]), Probe()]), HOP_HOOKS)


# ---------------------------------------------------------------------- #
# Observing never perturbs the simulation
# ---------------------------------------------------------------------- #

_STACKS = {
    "r2c2": dict(stack="r2c2"),
    "r2c2_reliable_lossy": dict(stack="r2c2", reliable=True, loss_rate=0.03),
    "tcp": dict(stack="tcp"),
    "pfq": dict(stack="pfq"),
}

_OBSERVERS = {
    "none": ({}, False),
    "audit": ({"audit": True}, False),
    "obs": ({"obs": True}, False),
    "flight": ({"flight": True}, False),
    "telemetry": ({}, True),
    "all": ({"audit": True, "obs": True, "flight": True}, True),
}


def _observed_run(stack, observers):
    flags, with_telemetry = _OBSERVERS[observers]
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 24, 8_000, seed=11)
    config = SimConfig(seed=11, **_STACKS[stack], **flags)
    telemetry = Telemetry(TelemetryConfig()) if with_telemetry else None
    return run_simulation(topology, trace, config, telemetry=telemetry)


@pytest.mark.parametrize("observers", sorted(_OBSERVERS))
@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_observers_do_not_perturb_the_simulation(stack, observers):
    baseline = canonical_metrics(_observed_run(stack, "none"))
    metrics = _observed_run(stack, observers)
    assert canonical_metrics(metrics) == baseline
    flags, _ = _OBSERVERS[observers]
    assert (metrics.audit is not None) == bool(flags.get("audit"))
    assert (metrics.flow_obs is not None) == bool(flags.get("obs"))
    assert (metrics.flight_dump is not None) == bool(flags.get("flight"))
    if flags.get("audit"):
        assert metrics.audit.ok


# ---------------------------------------------------------------------- #
# Every stack reports to the probe
# ---------------------------------------------------------------------- #


def _six_flows(stack, **flags):
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 6, 8_000, seed=2)
    return run_simulation(topology, trace, SimConfig(stack=stack, seed=2, **flags))


class TestPfqIsObserved:
    def test_every_pfq_flow_decomposes_exactly(self):
        metrics = _six_flows("pfq", obs=True)
        completed = metrics.completed_flows()
        assert len(completed) == 6
        assert sorted(metrics.flow_obs) == sorted(f.flow_id for f in completed)
        for record in metrics.flow_obs.values():
            assert check_decomposition(record, tolerance_ns=0) is None

    @pytest.mark.parametrize("stack", ["r2c2", "tcp", "pfq"])
    def test_flight_dump_carries_the_stack_ring(self, stack):
        dump = _six_flows(stack, obs=True, flight=True).flight_dump
        kinds = {e["kind"] for e in dump["subsystems"]["stack"]["events"]}
        assert "flow_complete" in kinds

    def test_pfq_flight_records_flow_starts(self):
        dump = _six_flows("pfq", flight=True).flight_dump
        events = dump["subsystems"]["stack"]["events"]
        assert sum(e["kind"] == "flow_start" for e in events) == 6


def test_flight_records_queue_drops():
    # A finite queue on a busy fabric: data and broadcast copies overflow.
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 30, 2_000, seed=3)
    config = SimConfig(stack="r2c2", queue_limit_bytes=3_100, seed=3, flight=True)
    metrics = run_simulation(topology, trace, config)
    assert metrics.drops > 0
    drops = [
        e
        for e in metrics.flight_dump["subsystems"]["network"]["events"]
        if e["kind"] == "queue_drop"
    ]
    assert drops
    assert {"src", "dst", "flow", "packet_kind", "seq"} <= set(drops[0])
    json.dumps(metrics.flight_dump)
