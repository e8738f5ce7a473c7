"""RFC 7668 adaptation glue.

IPv6 over BLE differs from classic 6LoWPAN in two ways that matter here:

* **no fragmentation header** -- datagrams up to the 1280-byte IPv6 MTU ride
  in one L2CAP SDU, which the CoC segments transparently (§3.2 of the RFC);
* header compression is still RFC 6282 IPHC, with IIDs derivable from the
  Bluetooth device address.

:class:`BleAdaptation` is the object the netif uses to translate between
IPv6 packets and link SDUs, and it keeps the byte accounting that feeds the
packet-size arithmetic of §4.3.
"""

from __future__ import annotations

from typing import Optional

from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet


class BleAdaptation:
    """Stateless IPv6 <-> 6LoWPAN translation for one interface.

    :param use_iphc: disable to send the uncompressed-IPv6 dispatch instead
        (an ablation knob; RFC 7668 mandates IPHC support but allows both).
    """

    def __init__(self, use_iphc: bool = True):
        self.use_iphc = use_iphc
        #: Cumulative uncompressed IPv6 bytes presented.
        self.bytes_in = 0
        #: Cumulative on-link bytes produced.
        self.bytes_out = 0
        #: Datagrams translated in each direction.
        self.packets_down = 0
        self.packets_up = 0

    def to_link(
        self,
        packet: Ipv6Packet,
        src_ll_iid: Optional[bytes] = None,
        dst_ll_iid: Optional[bytes] = None,
    ) -> bytes:
        """Translate an outbound IPv6 packet into the L2CAP SDU bytes."""
        if self.use_iphc:
            wire = iphc.compress(packet, src_ll_iid, dst_ll_iid)
        else:
            wire = bytes([iphc.UNCOMPRESSED_IPV6_DISPATCH]) + packet.encode()
        self.count_down(packet.total_len, len(wire))
        return wire

    def count_down(self, ip_len: int, link_len: int) -> None:
        """Count one outbound datagram: a packet of ``ip_len`` bytes that
        goes on the link as ``link_len`` bytes.  :meth:`to_link` counts
        here, and so does a netif sending a datagram that is already
        compressed (the wire path, DESIGN §12)."""
        self.bytes_in += ip_len
        self.bytes_out += link_len
        self.packets_down += 1

    def from_link(
        self,
        data: bytes,
        src_ll_iid: Optional[bytes] = None,
        dst_ll_iid: Optional[bytes] = None,
    ) -> Ipv6Packet:
        """Translate inbound link bytes back into an IPv6 packet.

        :raises iphc.IphcError: on malformed input.
        """
        packet = iphc.decompress(data, src_ll_iid, dst_ll_iid)
        self.packets_up += 1
        return packet

    @property
    def compression_ratio(self) -> float:
        """On-link bytes per uncompressed byte (1.0 = no gain)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in

    @staticmethod
    def iid_for_node(node_id: int) -> bytes:
        """The link-layer-derived IID for a node (RFC 7668 §3.2.2)."""
        return Ipv6Address.iid_from_node_id(node_id)
