"""One hook interface for everything that observes a simulation.

The invariant auditor, the flight recorder (``obs.flight.FlightProbe``),
causal tracing (``obs.ObsSession``) and the host stacks' telemetry
(``telemetry.subscriber.TelemetryProbe``) all subclass :class:`Probe` and
override the hooks they need.  The network, its ports, the host stacks and
the control planes each hold one ``_probe``: ``None`` when nothing
observes (each instrumented site then pays one ``is not None`` test), one
observer, or a :class:`ProbeTee` of several.  Model code emits, observers
subscribe — the shape of OMNeT++ signals and statistics recorders.
Observers never schedule events or touch model state, so results are the
same whatever subscribes.  ``now_ns`` is always the event's simulated time.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["HOOKS", "HOP_HOOKS", "Probe", "ProbeTee", "listens", "tee"]


class Probe:
    """Base observer: every hook is a no-op."""

    # Port events: a packet accepted into a port's queue, or dropped by it;
    # a serialization start; a packet corrupted on the wire; a packet
    # entering propagation.
    def on_enqueue(self, port, packet, now_ns) -> None: ...
    def on_drop(self, port, packet, now_ns) -> None: ...
    def on_transmit_start(self, port, packet, duration_ns, now_ns) -> None: ...
    def on_wire_loss(self, port, packet, now_ns) -> None: ...
    def on_propagate(self, port, packet, now_ns) -> None: ...

    # Network events: a packet reached *node*; a packet was handed to the
    # host stack at *node*.
    def on_arrive(self, node, packet, now_ns) -> None: ...
    def on_local_deliver(self, node, packet, now_ns) -> None: ...

    # Flow events: the source started sending; the receiver accounted a
    # data packet; the receiver at *node* declared the flow complete.
    def on_flow_start(self, flow, now_ns) -> None: ...
    def on_flow_progress(self, flow, now_ns) -> None: ...
    def on_flow_complete(self, flow, node, now_ns) -> None: ...

    # Sender waits: rate zero until an epoch (stall) and positive again
    # (resume); the application is *delay_ns* short of bytes (host wait);
    # every outstanding segment is within its RTO for *delay_ns* (RTO
    # wait); a TCP retransmission timer expired (RTO fired).
    def on_stall(self, flow_id, now_ns) -> None: ...
    def on_resume(self, flow_id, now_ns) -> None: ...
    def on_host_wait(self, flow_id, delay_ns) -> None: ...
    def on_rto_wait(self, flow_id, delay_ns) -> None: ...
    def on_rto_fired(self, flow_id, cum_acked, now_ns) -> None: ...

    # Packet events: the source injected a data packet; a data packet
    # reached its destination stack.
    def on_inject(self, flow, packet, now_ns) -> None: ...
    def on_delivered(self, flow, packet, now_ns) -> None: ...

    # Broadcast events (§3.2): *node* announced *event* ("start", "finish"
    # or "demand") on a tree; re-sent a broadcast dropped at *dropped_at*;
    # re-announced its ongoing flows after a failure; received a broadcast
    # that crossed at least one link.
    def on_broadcast_sent(self, node, flow_id, event, tree_id, now_ns) -> None: ...
    def on_broadcast_retransmit(self, node, flow_id, dropped_at, seq, now_ns) -> None: ...
    def on_reannounce(self, node, n_flows, now_ns) -> None: ...
    def on_broadcast_wire_delivery(self, node, packet, now_ns) -> None: ...

    # Control plane: an epoch recomputation finished, with one allocation
    # per controller (a single one for the shared control plane).
    def on_epoch(self, allocations, per_node, now_ns) -> None: ...


#: Every hook a :class:`ProbeTee` forwards.
HOOKS = tuple(name for name in vars(Probe) if name.startswith("on_"))

#: The per-hop hooks: the port and network events.
HOP_HOOKS = (
    "on_enqueue",
    "on_drop",
    "on_transmit_start",
    "on_wire_loss",
    "on_propagate",
    "on_arrive",
    "on_local_deliver",
)


def _overrides(probe: Probe, name: str) -> bool:
    return getattr(type(probe), name) is not getattr(Probe, name)


class ProbeTee(Probe):
    """Fans every event out to several probes, in subscription order.

    Each hook calls only the probes that override it (directly, when only
    one does).
    """

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes = tuple(probes)
        for name in HOOKS:
            calls = [getattr(p, name) for p in self.probes if _overrides(p, name)]
            if len(calls) == 1:
                setattr(self, name, calls[0])
            elif calls:
                setattr(self, name, _fan_out(tuple(calls)))


def _fan_out(calls):
    def hook(*args) -> None:
        for call in calls:
            call(*args)

    return hook


def listens(probe: Optional[Probe], names) -> bool:
    """True when *probe* (or any probe it tees) overrides one of the hooks
    *names*: a layer none of whose events is observed skips its probe."""
    if probe is None:
        return False
    probes = probe.probes if isinstance(probe, ProbeTee) else (probe,)
    return any(_overrides(p, name) for p in probes for name in names)


def tee(probes: Iterable[Optional[Probe]]) -> Optional[Probe]:
    """One probe for *probes*, skipping ``None``: ``None`` if none is left,
    the probe itself if one is, else a :class:`ProbeTee`."""
    active = [probe for probe in probes if probe is not None]
    if len(active) < 2:
        return active[0] if active else None
    return ProbeTee(active)
