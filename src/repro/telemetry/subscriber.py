"""The simulator's telemetry subscriber: broadcast counters, trace
instants and sampled packet spans, fed by the run's probe.

The runner subscribes a :class:`TelemetryProbe` only when the session
records something, so a run without telemetry (or with null sinks) pays
nothing here.  Not re-exported from :mod:`repro.telemetry`: the simulator
imports that package early, and this module imports the simulator's probe.
"""

from __future__ import annotations

from ..sim.probe import Probe
from .trace import TRACK_BROADCAST, TRACK_PACKETS

__all__ = ["TelemetryProbe"]


class TelemetryProbe(Probe):
    """Records the host stacks' telemetry from probe events.

    ``r2c2``: the run uses an R2C2 stack, so register the broadcast counters
    and trace sampled packet lifecycles.  The tcp and pfq stacks report
    neither, so their snapshots carry no such instruments.
    """

    def __init__(self, telemetry, r2c2: bool = True) -> None:
        registry = telemetry.metrics
        # ``or None`` collapses a disabled (falsy null) trace to None, so
        # the handlers test None rather than calling a Python __bool__.
        self._trace = telemetry.trace or None
        self._sample_every = telemetry.config.packet_sample_every if r2c2 else 0
        self._counters = None
        if r2c2 and registry:
            self._counters = {
                event: registry.counter("broadcast.announcements", event=event)
                for event in ("start", "finish", "demand")
            }
            for name in ("wire_bytes", "wire_packets", "retransmissions"):
                self._counters[name] = registry.counter(f"broadcast.{name}")

    def _instant(self, name, now_ns, **args) -> None:
        self._trace.instant(name, "broadcast", now_ns, tid=TRACK_BROADCAST, args=args)

    def on_broadcast_sent(self, node, flow_id, event, tree_id, now_ns) -> None:
        if self._counters is not None:
            self._counters[event].inc()
        if self._trace is not None:
            self._instant(
                "announce", now_ns, event=event, flow=flow_id, node=node, tree=tree_id
            )

    def on_broadcast_retransmit(self, node, flow_id, dropped_at, seq, now_ns) -> None:
        if self._counters is not None:
            self._counters["retransmissions"].inc()
        if self._trace is not None:
            self._instant(
                "retransmit", now_ns, flow=flow_id, dropped_at=dropped_at, seq=seq
            )

    def on_reannounce(self, node, n_flows, now_ns) -> None:
        if self._trace is not None:
            self._instant("reannounce_round", now_ns, node=node, flows=n_flows)

    def on_broadcast_wire_delivery(self, node, packet, now_ns) -> None:
        if self._counters is not None:
            self._counters["wire_bytes"].inc(packet.size_bytes)
            self._counters["wire_packets"].inc()

    def on_delivered(self, flow, packet, now_ns) -> None:
        every = self._sample_every
        if self._trace is not None and every and packet.seq % every == 0:
            # Sampled packet lifecycle: injection -> delivery as a span.
            self._trace.complete(
                f"flow {packet.flow_id}",
                "packet",
                packet.sent_ns,
                now_ns - packet.sent_ns,
                tid=TRACK_PACKETS,
                args={"seq": packet.seq, "bytes": packet.size_bytes},
            )
