"""IPv6 stack: local delivery, forwarding, neighbour management.

Every node runs as a 6LoWPAN router (§4.2): packets not addressed to the
node are forwarded along statically configured routes.  Losses are counted
by cause -- no route, no neighbour, link down, buffer full -- so experiment
analysis can attribute them the way the paper does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.net.fib import ForwardingTable
from repro.net.nib import NeighborCache
from repro.sixlowpan.iphc import decompress, with_hop_limit
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP, derived_node_id
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.netif import BleNetif

#: An upper layer's entry for a decoded packet.
PacketHandler = Callable[[Ipv6Packet], None]
#: An upper layer's entry for a datagram as it came: the compressed bytes
#: :func:`~repro.sixlowpan.iphc.wire_fields` accepts.
WireHandler = Callable[[bytes], None]


def _addr_ref(addr: bytes) -> Union[int, str]:
    """Compact, deterministic form of a packed address for trace fields.

    Derived addresses reduce to the node id; anything else is the hex of
    the 16 bytes.
    """
    node_id = derived_node_id(addr)
    return node_id if node_id is not None else addr.hex()


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
        #: The packed bytes of this node's two addresses.
        self.own_addresses = {self.link_local.packed, self.mesh_local.packed}
        self.nib = NeighborCache(nib_entries)
        self.fib = ForwardingTable()
        self.netifs: List[BleNetif] = []
        #: Upper-layer demux: protocol number -> its packet entry and its
        #: wire entry (None when it takes packets only).
        self._protocols: Dict[int, Tuple[PacketHandler, Optional[WireHandler]]] = {}
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
        self, proto: int, handler: PacketHandler, wire: Optional[WireHandler] = None
    ) -> None:
        """Install an upper-layer handler for IPv6 next-header ``proto``.

        ``wire``, when given, takes a datagram for this node as it came
        (:meth:`deliver_wire`).  Each call replaces both entries.
        """
        self._protocols[proto] = (handler, wire)

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
        dst = packet.dst.packed
        self._originated(dst)
        if dst in self.own_addresses:
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
        dst = packet.dst.packed
        if dst in self.own_addresses or dst[0] == 0xFF:
            self._deliver(packet)
            return
        # forward (every node is a 6LoWPAN router, §4.2)
        if packet.hop_limit <= 1:
            self.drops_hop_limit += 1
            self._drop(dst, "hop-limit")
            return
        packet.hop_limit -= 1
        if self._route(packet):
            self._forwarded(dst, packet.hop_limit)

    def relay(self, wire: bytes, dst: bytes, hop_limit: int, ip_len: int) -> None:
        """Forward a compressed datagram for another node as it came.

        The wire path (DESIGN §12): ``wire`` is a datagram
        :func:`~repro.sixlowpan.iphc.wire_fields` accepts, read as ``dst``,
        ``hop_limit`` and ``ip_len``.  Only its hop limit is rewritten, and
        every count, drop and record is the one :meth:`receive` makes for
        the decompressed packet.
        """
        if hop_limit <= 1:
            self.drops_hop_limit += 1
            self._drop(dst, "hop-limit")
            return
        hop_limit -= 1
        if self._route_wire(with_hop_limit(wire, hop_limit), dst, ip_len):
            self._forwarded(dst, hop_limit)

    def send_wire(self, wire: bytes, dst: bytes, ip_len: int) -> bool:
        """Originate a compressed datagram from this node.

        Origination on the wire (DESIGN §12): ``wire`` is what
        :func:`~repro.sixlowpan.iphc.compress_udp` builds for a datagram to
        ``dst`` (16 packed bytes) whose packet is ``ip_len`` bytes.  Every
        count, drop and record is the one :meth:`send` makes for that
        packet.
        """
        self._originated(dst)
        if dst in self.own_addresses:
            self.deliver_wire(wire)
            return True
        return self._route_wire(wire, dst, ip_len)

    def deliver_wire(self, wire: bytes) -> None:
        """Deliver a compressed datagram for this node as it came.

        Local delivery on the wire (DESIGN §12): ``wire`` is a datagram
        :func:`~repro.sixlowpan.iphc.wire_fields` accepts, so it carries
        UDP, and UDP's wire entry reads it.  Without a wire entry it is
        decompressed and delivered as a packet.  Either way the counts and
        records are the ones :meth:`receive` makes.
        """
        registered = self._protocols.get(PROTO_UDP)
        entry = registered[1] if registered is not None else None
        if entry is None:
            self._deliver(decompress(wire))
            return
        self._delivered(PROTO_UDP)
        entry(wire)

    def _originated(self, dst: bytes) -> None:
        self.originated += 1
        if TRACE.enabled:
            TRACE.emit(None, "ip", "originate", node=self.node_id, dst=_addr_ref(dst))

    def _forwarded(self, dst: bytes, hop_limit: int) -> None:
        self.forwarded += 1
        if TRACE.enabled:
            TRACE.emit(
                None, "ip", "forward",
                node=self.node_id, dst=_addr_ref(dst), hop_limit=hop_limit,
            )

    def _deliver(self, packet: Ipv6Packet) -> None:
        proto = packet.next_header
        registered = self._protocols.get(proto)
        if registered is None:
            self.drops_no_handler += 1
            self._drop(packet.dst.packed, "no-handler")
            return
        self._delivered(proto)
        registered[0](packet)

    def _delivered(self, proto: int) -> None:
        self.delivered += 1
        if TRACE.enabled:
            TRACE.emit(None, "ip", "deliver", node=self.node_id, proto=proto)

    def _drop(self, dst: bytes, cause: str) -> None:
        """Account one packet to ``dst`` dropped; every drop cause routes
        through here."""
        if SPANS.enabled:
            SPANS.drop(cause)
        if TRACE.enabled:
            TRACE.emit(
                None, "ip", "drop",
                node=self.node_id, cause=cause, dst=_addr_ref(dst),
            )

    def _next_hop(self, dst: bytes) -> Optional[Tuple[int, BleNetif]]:
        """The neighbour and interface towards ``dst``; a miss is dropped."""
        entry = self.nib.resolve_packed(dst)
        if entry is None:
            next_hop = self.fib.lookup_packed(dst)
            if next_hop is None:
                self.drops_no_route += 1
                self._drop(dst, "no-route")
                return None
            entry = self.nib.resolve_packed(next_hop.packed)
            if entry is None:
                self.drops_no_neighbor += 1
                self._drop(dst, "no-neighbor")
        return entry

    def _route(self, packet: Ipv6Packet) -> bool:
        """Pick the next hop and hand the packet to its interface."""
        dst = packet.dst.packed
        hop = self._next_hop(dst)
        if hop is None:
            return False
        ll_addr, netif = hop
        if not netif.send(packet, ll_addr):
            self.drops_link += 1
            self._drop(dst, "link")
            return False
        return True

    def _route_wire(self, wire: bytes, dst: bytes, ip_len: int) -> bool:
        """:meth:`_route` for a compressed datagram to ``dst`` whose packet
        is ``ip_len`` bytes: the relay's and origination's way out."""
        hop = self._next_hop(dst)
        if hop is None:
            return False
        ll_addr, netif = hop
        if not netif.send_wire(wire, ip_len, ll_addr):
            self.drops_link += 1
            self._drop(dst, "link")
            return False
        return True
