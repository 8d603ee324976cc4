"""Host-stack interface: what every transport implementation provides."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ...types import NodeId
from ..engine import EventLoop
from ..flows import SimFlow
from ..network import RackNetwork
from ..packets import SimPacket


class HostStack(ABC):
    """Per-node transport endpoint.

    The runner installs one stack per node; the network calls
    :meth:`deliver` for every packet that terminates at the node, and the
    runner calls :meth:`start_flow` on the source node's stack when a flow
    arrives.
    """

    def __init__(self, node: NodeId, loop: EventLoop, network: RackNetwork) -> None:
        self.node = node
        self.loop = loop
        self.network = network
        #: the run's observer (repro.sim.probe), shared with the network;
        #: None when nothing observes.
        self._probe = network.probe

    @abstractmethod
    def start_flow(self, flow: SimFlow) -> None:
        """Begin transmitting *flow* (this node is its source)."""

    @abstractmethod
    def deliver(self, packet: SimPacket) -> None:
        """Handle a packet addressed to (or broadcast reaching) this node."""

    def _delivered(self, flow: SimFlow, packet: SimPacket, complete: bool) -> None:
        """Receiver bookkeeping every stack shares: declare *flow* complete
        (once) when *complete*, and report the data delivery to the probe."""
        if complete and flow.completed_ns is None:
            flow.completed_ns = self.loop.now
            if self._probe is not None:
                self._probe.on_flow_complete(flow, self.node, flow.completed_ns)
        if self._probe is not None:
            self._probe.on_delivered(flow, packet, self.loop.now)
            self._probe.on_flow_progress(flow, self.loop.now)

    def on_epoch(self) -> None:
        """Hook invoked after each control-plane recomputation (optional)."""
