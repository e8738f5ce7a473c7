"""6LoWPAN interface over the 802.15.4 MAC.

Like the BLE netif it carries bytes only: the IP stack compresses each
datagram and takes each received one (DESIGN §12), so a frame-sized
datagram crosses 802.15.4 as it does BLE.  A larger one is decompressed
here only to take the RFC 4944 fragmentation path (FRAG1/FRAGN +
reassembly) that the paper's workload deliberately avoids (§4.3 footnote)
-- and whose fragility under loss `benchmarks/test_ext_fragmentation.py`
measures.

Packet-buffer accounting mirrors the BLE path: bytes are held from ``send``
until the MAC reports each frame acknowledged or dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, cast

from repro.ieee802154.mac import Frame154, Mac154
from repro.net.pktbuf import PacketBuffer
from repro.phy.frames import IEEE802154_MAX_PSDU
from repro.sixlowpan import frag
from repro.sixlowpan.iphc import UNCOMPRESSED_IPV6_DISPATCH, decompress
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet
from repro.spans.hub import SPANS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ip import Ipv6Stack

#: MAC header + FCS overhead around the 6LoWPAN payload.
MAC_OVERHEAD = 11
#: Largest 6LoWPAN payload per frame.
FRAME_BUDGET = IEEE802154_MAX_PSDU - MAC_OVERHEAD


class Netif154:
    """IPv6-over-802.15.4 interface for one node."""

    def __init__(self, mac: Mac154, pktbuf: PacketBuffer) -> None:
        self.mac = mac
        self.pktbuf = pktbuf
        #: IID of this node, derived once: the MAC's short address is fixed.
        self.iid = Ipv6Address.iid_from_node_id(mac.addr)
        self.ip: Optional["Ipv6Stack"] = None
        self.reassembler = frag.Reassembler(mac.sim, self._on_reassembled)
        self._next_tag = mac.rng.randrange(0, 0x10000)
        self.tx_packets = 0
        self.tx_fragmented_datagrams = 0
        #: frag.fragment() calls and fragments, before the pktbuf check.
        self.fragmentations = 0
        self.fragments_made = 0
        self.rx_packets = 0
        self.drops_pktbuf = 0
        self.drops_mac = 0
        self.drops_too_big = 0
        self.rx_decode_errors = 0
        mac.on_frame = self._on_frame
        mac.on_tx_done = self._on_tx_done

    @property
    def ll_addr(self) -> int:
        """This interface's short address."""
        return self.mac.addr

    def send(self, wire: bytes, ip_len: int, next_hop_ll: int) -> bool:
        """Queue ``wire``, a compressed datagram whose packet is ``ip_len``
        bytes, to ``next_hop_ll``: as one frame when it fits, else
        decompressed with both link IIDs and fragmented."""
        if len(wire) <= FRAME_BUDGET:
            return self._send_frame(wire, next_hop_ll)
        packet = decompress(wire, self.iid, Ipv6Address.iid_from_node_id(next_hop_ll))
        return self._send_fragmented(packet, next_hop_ll)

    def _send_frame(self, wire: bytes, next_hop_ll: int) -> bool:
        """Charge ``wire`` to the packet buffer and queue it as one frame."""
        if not self.pktbuf.try_alloc(len(wire)):
            self.drops_pktbuf += 1
            if SPANS.enabled:
                SPANS.drop("pktbuf")
            return False
        if SPANS.enabled:
            # Coarse single-phase hop: the datagram bytes key it, and
            # the receiver reconstructs the same key on delivery.
            SPANS.hop_open(
                ("154", self.ll_addr, next_hop_ll, wire), None,
                f"node{self.ll_addr}", f"node{next_hop_ll}",
            )
        self.mac.send(next_hop_ll, wire, tag=(len(wire), wire))
        self.tx_packets += 1
        return True

    def _send_fragmented(self, packet: Ipv6Packet, next_hop_ll: int) -> bool:
        """RFC 4944 path: carry the datagram uncompressed in fragments."""
        raw = bytes([UNCOMPRESSED_IPV6_DISPATCH]) + packet.encode()
        if len(raw) > 1281:
            self.drops_too_big += 1
            return False
        tag = self._next_tag
        self._next_tag = (self._next_tag + 1) & 0xFFFF
        fragments = frag.fragment(raw, tag, FRAME_BUDGET)
        self.fragmentations += 1
        self.fragments_made += len(fragments)
        total = sum(len(f) for f in fragments)
        if not self.pktbuf.try_alloc(total):
            self.drops_pktbuf += 1
            if SPANS.enabled:
                SPANS.drop("pktbuf")
            return False
        if SPANS.enabled:
            # Keyed by the pre-fragmentation datagram: the reassembler
            # hands the identical bytes back on the far side.
            SPANS.hop_open(
                ("154", self.ll_addr, next_hop_ll, raw), None,
                f"node{self.ll_addr}", f"node{next_hop_ll}",
            )
        for piece in fragments:
            self.mac.send(next_hop_ll, piece, tag=(len(piece), raw))
        self.tx_packets += 1
        self.tx_fragmented_datagrams += 1
        return True

    def _on_tx_done(self, frame: Frame154, ok: bool) -> None:
        # the bytes this frame holds, and the datagram it carries
        held, datagram = cast(Tuple[int, bytes], frame.tag)
        self.pktbuf.free(held)
        if not ok:
            self.drops_mac += 1
            if SPANS.enabled:
                # A datagram with a fragment given up is lost on this hop.
                SPANS.hop_lost(("154", frame.src, frame.dst, datagram))

    def _on_frame(self, frame: Frame154) -> None:
        if frag.is_fragment(frame.payload):
            self.reassembler.accept(frame.payload, frame.src)
            return
        self._deliver(frame.payload, frame.src)

    def _on_reassembled(self, datagram: bytes, sender: int) -> None:
        self._deliver(datagram, sender)

    def _deliver(self, wire: bytes, sender_ll: int) -> None:
        """Hand a received datagram to the IP stack, in its hop's span."""
        ip = self.ip
        if ip is None:
            return
        if not SPANS.enabled:
            ip.from_link(wire, self, sender_ll)
            return
        span_prev = SPANS.rx_enter(("154", sender_ll, self.ll_addr, wire))
        try:
            SPANS.hop_delivered()
            ip.from_link(wire, self, sender_ll)
        finally:
            SPANS.ctx_restore(span_prev)

    def rx_counted(self, sdu: bytes, sender_ll: int) -> None:
        """Count an SDU the IP stack takes."""
        self.rx_packets += 1
