"""IPv6 stack: local delivery, forwarding, neighbour management.

Every node runs as a 6LoWPAN router (§4.2): packets not addressed to the
node are forwarded along statically configured routes.  Losses are counted
by cause -- no route, no neighbour, link down, buffer full -- so experiment
analysis can attribute them the way the paper does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Union

from repro.net.fib import ForwardingTable
from repro.net.nib import NeighborCache
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.netif import BleNetif


def _addr_ref(addr: Ipv6Address) -> Union[int, str]:
    """Compact, deterministic address form for trace fields.

    Derived addresses reduce to the node id; anything else is the hex of
    the packed 16 bytes.
    """
    node_id = addr.node_id()
    return node_id if node_id is not None else addr.packed.hex()


class Ipv6Stack:
    """One node's network layer.

    :param node_id: the node identity; derives the link-local and mesh
        addresses.
    :param nib_entries: neighbour cache size (paper configuration: 32).
    """

    def __init__(self, node_id: int, nib_entries: int = 32) -> None:
        self.node_id = node_id
        self.link_local = Ipv6Address.link_local(node_id)
        self.mesh_local = Ipv6Address.mesh_local(node_id)
        self.addresses = {self.link_local, self.mesh_local}
        self.nib = NeighborCache(nib_entries)
        self.fib = ForwardingTable()
        self.netifs: List[BleNetif] = []
        #: Upper-layer demux: protocol number -> handler(packet).
        self._proto_handlers: dict[int, Callable[[Ipv6Packet], None]] = {}
        # Statistics.
        self.delivered = 0
        self.forwarded = 0
        self.originated = 0
        self.drops_no_route = 0
        self.drops_no_neighbor = 0
        self.drops_hop_limit = 0
        self.drops_link = 0
        self.drops_no_handler = 0

    # -- wiring --------------------------------------------------------------

    def add_netif(self, netif: BleNetif) -> None:
        """Attach an interface (it reports received packets back here)."""
        netif.ip = self
        self.netifs.append(netif)

    def register_protocol(
        self, proto: int, handler: Callable[[Ipv6Packet], None]
    ) -> None:
        """Install an upper-layer handler for IPv6 next-header ``proto``."""
        self._proto_handlers[proto] = handler

    def neighbor_up(self, ll_addr: int, netif: BleNetif) -> None:
        """A link to ``ll_addr`` came up: install its derived addresses."""
        self.nib.add(Ipv6Address.link_local(ll_addr), ll_addr, netif)
        self.nib.add(Ipv6Address.mesh_local(ll_addr), ll_addr, netif)

    def neighbor_down(self, ll_addr: int) -> None:
        """A link went down: withdraw the neighbour entries."""
        self.nib.remove_ll(ll_addr)

    # -- data path -------------------------------------------------------------

    def send(self, packet: Ipv6Packet) -> bool:
        """Originate a packet from this node."""
        self.originated += 1
        if TRACE.enabled:
            TRACE.emit(
                None, "ip", "originate",
                node=self.node_id, dst=_addr_ref(packet.dst),
            )
        if packet.dst in self.addresses:
            self._deliver(packet)
            return True
        if packet.dst.is_multicast:
            # link-scope multicast: one copy per neighbour on each interface
            # (RFC 7668 maps IP multicast onto the connection fan-out)
            sent = 0
            for netif in self.netifs:
                fanout = getattr(netif, "send_multicast", None)
                if fanout is not None:
                    sent += fanout(packet)
            return sent > 0
        return self._route(packet)

    def receive(self, packet: Ipv6Packet, netif: BleNetif) -> None:
        """Handle a packet arriving on ``netif``."""
        if packet.dst in self.addresses or packet.dst.is_multicast:
            self._deliver(packet)
            return
        # forward (every node is a 6LoWPAN router, §4.2)
        if packet.hop_limit <= 1:
            self.drops_hop_limit += 1
            self._drop(packet, "hop-limit")
            return
        packet.hop_limit -= 1
        if self._route(packet):
            self.forwarded += 1
            if TRACE.enabled:
                TRACE.emit(
                    None, "ip", "forward",
                    node=self.node_id, dst=_addr_ref(packet.dst),
                    hop_limit=packet.hop_limit,
                )

    def _deliver(self, packet: Ipv6Packet) -> None:
        handler = self._proto_handlers.get(packet.next_header)
        if handler is None:
            self.drops_no_handler += 1
            self._drop(packet, "no-handler")
            return
        self.delivered += 1
        if TRACE.enabled:
            TRACE.emit(
                None, "ip", "deliver",
                node=self.node_id, proto=packet.next_header,
            )
        handler(packet)

    def _drop(self, packet: Ipv6Packet, cause: str) -> None:
        """Account one dropped packet; every drop cause routes through here."""
        if SPANS.enabled:
            SPANS.drop(cause)
        if TRACE.enabled:
            TRACE.emit(
                None, "ip", "drop",
                node=self.node_id, cause=cause, dst=_addr_ref(packet.dst),
            )

    def _route(self, packet: Ipv6Packet) -> bool:
        """Pick the next hop and hand the packet to its interface."""
        entry = self.nib.resolve(packet.dst)
        if entry is None:
            next_hop = self.fib.lookup(packet.dst)
            if next_hop is None:
                self.drops_no_route += 1
                self._drop(packet, "no-route")
                return False
            entry = self.nib.resolve(next_hop)
            if entry is None:
                self.drops_no_neighbor += 1
                self._drop(packet, "no-neighbor")
                return False
        ll_addr, netif = entry
        if not netif.send(packet, ll_addr):
            self.drops_link += 1
            self._drop(packet, "link")
            return False
        return True
