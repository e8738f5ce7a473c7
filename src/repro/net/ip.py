"""IPv6 stack: local delivery, forwarding, neighbour management.

Every node runs as a 6LoWPAN router (§4.2): packets not addressed to the
node are forwarded along statically configured routes.  Losses are counted
by cause -- no route, no neighbour, link down, buffer full -- so experiment
analysis can attribute them the way the paper does.

The stack is also the one 6LoWPAN boundary (DESIGN §12): it compresses a
packet for its next hop's link just before the netif gets it, and it takes
every SDU a link received, relaying or delivering it as it came when
:func:`~repro.sixlowpan.iphc.wire_fields` accepts it and decompressing it
otherwise.  A netif carries bytes only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union

from repro.net.fib import ForwardingTable
from repro.net.nib import NeighborCache
from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP, derived_node_id
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

#: An upper layer's entry for a decoded packet.
PacketHandler = Callable[[Ipv6Packet], None]
#: An upper layer's entry for a datagram as it came: the compressed bytes
#: :func:`~repro.sixlowpan.iphc.wire_fields` accepts.
WireHandler = Callable[[bytes], None]


class Netif(Protocol):
    """What the stack uses of an interface, BLE's or 802.15.4's: ``send``
    queues a compressed datagram whose packet is ``ip_len`` bytes, and
    ``rx_counted`` counts a received SDU the stack takes."""

    #: The IID this node's link-layer address derives (RFC 7668 §3.2.2).
    iid: bytes
    ip: Optional[Ipv6Stack]
    rx_decode_errors: int

    @property
    def ll_addr(self) -> int: ...

    def send(self, wire: bytes, ip_len: int, next_hop_ll: int) -> bool: ...

    def rx_counted(self, sdu: bytes, sender_ll: int) -> None: ...


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
        self.netifs: List[Netif] = []
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

    def add_netif(self, netif: Netif) -> None:
        """Attach an interface (it hands received SDUs to :meth:`from_link`)."""
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

    def neighbor_up(self, ll_addr: int, netif: Netif) -> None:
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
        return self._route(dst, packet.total_len, packet)

    def from_link(self, sdu: bytes, netif: Netif, sender_ll: int) -> None:
        """Take an SDU ``netif`` received from the neighbour at ``sender_ll``.

        The one place a datagram picks the wire or the decode path (DESIGN
        §12): one ``wire_fields`` accepts is relayed when it is for another
        node and delivered as it came when it is for this one; any other is
        decompressed with both link IIDs and handed to :meth:`receive`.
        The netif counts the SDU first; one that does not decode counts as
        a decode error and goes no further.
        """
        fields = iphc.wire_fields(sdu)
        if fields is not None:
            netif.rx_counted(sdu, sender_ll)
            if fields[0] in self.own_addresses:
                self.deliver_wire(sdu)
            else:
                self.relay(sdu, *fields)
            return
        try:
            packet = iphc.decompress(sdu, Ipv6Address.iid_from_node_id(sender_ll), netif.iid)
        except ValueError:
            netif.rx_decode_errors += 1
            if SPANS.enabled:
                SPANS.drop("decode")
            return
        netif.rx_counted(sdu, sender_ll)
        self.receive(packet)

    def receive(self, packet: Ipv6Packet) -> None:
        """Handle a decoded packet that arrived on a link."""
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
        if self._route(dst, packet.total_len, packet):
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
        if self._route(dst, ip_len, iphc.with_hop_limit(wire, hop_limit)):
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
        return self._route(dst, ip_len, wire)

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
            self._deliver(iphc.decompress(wire))
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

    def _next_hop(self, dst: bytes) -> Optional[Tuple[int, Netif]]:
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

    def _route(self, dst: bytes, ip_len: int, datagram: Union[bytes, Ipv6Packet]) -> bool:
        """Pick the next hop towards ``dst`` and hand it the datagram, whose
        packet is ``ip_len`` bytes: compressed bytes go as they are, a packet
        is compressed for that link first."""
        hop = self._next_hop(dst)
        if hop is None:
            return False
        ll_addr, netif = hop
        if isinstance(datagram, Ipv6Packet):
            datagram = iphc.compress(datagram, netif.iid, Ipv6Address.iid_from_node_id(ll_addr))
        if not netif.send(datagram, ip_len, ll_addr):
            self.drops_link += 1
            self._drop(dst, "link")
            return False
        return True
