"""The crash flight recorder: last-moments context for every subsystem.

A :class:`FlightRecorder` keeps one bounded ring buffer per subsystem
("engine", "network", "stack", "controller", "auditor", ...) of recent
structured events.  When a simulation crashes, trips an oracle, or fails
an audit, :meth:`dump` serializes the rings as one JSON document — so a
fuzzer-found reproducer ships with the events that led up to the failure,
not just the failure itself.

Determinism: every recorded event carries **simulated** time only.  Two
runs of the same seeds produce byte-identical dumps, which keeps corpus
entries content-stable and diffs reviewable.

Overhead discipline: recording is opt-in (``SimConfig(flight=True)``);
the simulator feeds the recorder through :class:`FlightProbe`, one
subscriber of the run's :class:`~repro.sim.probe.Probe`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..sim.probe import Probe

__all__ = ["FlightRecorder", "FlightProbe", "FLIGHT_SCHEMA"]

#: Dump document schema version (bump on layout changes).
FLIGHT_SCHEMA = 1

#: Default per-subsystem ring capacity.
DEFAULT_LIMIT = 256


class FlightRecorder:
    """Bounded per-subsystem rings of recent structured events."""

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("flight ring limit must be >= 1")
        self.limit = limit
        self._rings: Dict[str, deque] = {}
        self._dropped: Dict[str, int] = {}

    def record(self, subsystem: str, kind: str, t_ns: int, **fields) -> None:
        """Append one event to *subsystem*'s ring (evicting the oldest)."""
        ring = self._rings.get(subsystem)
        if ring is None:
            ring = self._rings[subsystem] = deque(maxlen=self.limit)
            self._dropped[subsystem] = 0
        if len(ring) == self.limit:
            self._dropped[subsystem] += 1
        event = {"t_ns": t_ns, "kind": kind}
        if fields:
            event.update(fields)
        ring.append(event)

    def dump(self, reason: Optional[str] = None) -> dict:
        """Serialize every ring as one JSON-able document."""
        doc: dict = {
            "schema": FLIGHT_SCHEMA,
            "limit": self.limit,
            "subsystems": {
                name: {
                    "dropped": self._dropped[name],
                    "events": list(self._rings[name]),
                }
                for name in sorted(self._rings)
            },
        }
        if reason is not None:
            doc["reason"] = reason
        return doc

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())


class FlightProbe(Probe):
    """Feeds a recorder from the simulator: its ``network``, ``stack`` and
    ``controller`` rings as a probe subscriber, and its ``engine`` ring as
    an event-loop batch observer (:meth:`EventLoop.attach_batch_observer`,
    which tees with any telemetry span hook already installed)."""

    def __init__(self, flight: FlightRecorder) -> None:
        self._record = flight.record

    def on_batch(self, start_ns: int, end_ns: int, processed: int) -> None:
        self._record("engine", "batch", end_ns, start_ns=start_ns, events=processed)

    def on_drop(self, port, packet, now_ns) -> None:
        self._record(
            "network", "queue_drop", now_ns, src=port.src, dst=port.dst,
            flow=packet.flow_id, packet_kind=packet.kind, seq=packet.seq,
        )

    def on_wire_loss(self, port, packet, now_ns) -> None:
        self._record(
            "network", "wire_loss", now_ns, src=port.src, dst=port.dst,
            flow=packet.flow_id, seq=packet.seq,
        )

    def on_flow_start(self, flow, now_ns) -> None:
        self._record(
            "stack", "flow_start", now_ns, flow=flow.flow_id, src=flow.src,
            dst=flow.dst, size=flow.size_bytes,
        )

    def on_flow_complete(self, flow, node, now_ns) -> None:
        self._record("stack", "flow_complete", now_ns, flow=flow.flow_id, node=node)

    def on_rto_fired(self, flow_id, cum_acked, now_ns) -> None:
        self._record("stack", "tcp_rto", now_ns, flow=flow_id, cum_acked=cum_acked)

    def on_broadcast_retransmit(self, node, flow_id, dropped_at, seq, now_ns) -> None:
        self._record(
            "stack", "broadcast_retransmit", now_ns, flow=flow_id,
            dropped_at=dropped_at, seq=seq,
        )

    def on_epoch(self, allocations, per_node, now_ns) -> None:
        if per_node:
            self._record("controller", "epoch", now_ns, nodes=len(allocations))
        else:
            (allocation,) = allocations
            flows = 0 if allocation is None else len(allocation.rates_bps)
            self._record("controller", "epoch", now_ns, flows=flows)
