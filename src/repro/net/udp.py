"""Minimal UDP layer with port demultiplexing.

CoAP (the paper's application protocol) rides on UDP; this layer provides
``bind`` / ``sendto`` with real checksummed datagrams so corruption anywhere
in the stack surfaces as a counted checksum error instead of silent
misdelivery.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.ip import Ipv6Stack
from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import (
    Ipv6Address,
    Ipv6Packet,
    PROTO_UDP,
    UdpDatagram,
    udp_sum,
)

#: ``handler(payload, src_addr, src_port)`` signature for bound ports.
UdpHandler = Callable[[bytes, Ipv6Address, int], None]
#: The most data a datagram's 16-bit length field (header included) admits.
_MAX_DATA = 0xFFFF - 8


class UdpStack:
    """UDP sockets for one node, layered on an :class:`Ipv6Stack`."""

    def __init__(self, ip: Ipv6Stack) -> None:
        self.ip = ip
        self._ports: Dict[int, UdpHandler] = {}
        # Statistics.
        self.tx_datagrams = 0
        self.rx_datagrams = 0
        self.rx_no_port = 0
        self.rx_checksum_errors = 0
        ip.register_protocol(PROTO_UDP, self._on_packet, self._on_wire)

    def bind(self, port: int, handler: UdpHandler) -> None:
        """Attach ``handler`` to ``port``; raises if the port is taken."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        """Release a port (idempotent)."""
        self._ports.pop(port, None)

    def sendto(
        self,
        payload: bytes,
        dst: Ipv6Address,
        dst_port: int,
        src_port: int,
        src: Optional[Ipv6Address] = None,
        hop_limit: int = 64,
    ) -> bool:
        """Send one datagram; returns False if the stack dropped it.

        Between two routable unicast addresses the datagram leaves as the
        bytes ``compress`` would emit for its packet (origination on the
        wire, DESIGN §12); any other goes down as a packet.

        :raises ValueError: when a port, the hop limit or the length does
            not fit its field; nothing is counted then.
        """
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        if not 0 <= hop_limit <= 255:
            raise ValueError(f"hop limit out of range: {hop_limit}")
        if len(payload) > _MAX_DATA:
            raise ValueError(f"UDP data too long: {len(payload)} bytes")
        src = src or self.ip.mesh_local
        addresses = src.packed + dst.packed
        checksum = 0xFFFF - udp_sum(addresses, src_port + dst_port, payload)
        wire = iphc.compress_udp(addresses, hop_limit, src_port, dst_port, checksum, payload)
        self.tx_datagrams += 1
        if wire is not None:  # the packet: IPv6 and UDP headers, then the data
            return self.ip.send_wire(wire, dst.packed, 48 + len(payload))
        packet = Ipv6Packet(
            src=src,
            dst=dst,
            payload=UdpDatagram(src_port, dst_port, payload).encode(src, dst),
            next_header=PROTO_UDP,
            hop_limit=hop_limit,
        )
        return self.ip.send(packet)

    def _on_packet(self, packet: Ipv6Packet) -> None:
        try:
            dgram = UdpDatagram.decode(packet.payload)
        except ValueError:
            self.rx_checksum_errors += 1
            return
        self._receive(
            packet.src.packed + packet.dst.packed,
            dgram.src_port, dgram.dst_port, dgram.checksum, dgram.payload,
        )

    def _on_wire(self, wire: bytes) -> None:
        """A datagram for this node as it came (DESIGN §12): the header is
        read from its IPHC and NHC-UDP fields, never rebuilt."""
        self._receive(*iphc.wire_udp(wire))

    def _receive(
        self, addresses: bytes, src_port: int, dst_port: int, checksum: int, payload: bytes
    ) -> None:
        """Verify one datagram and hand its data to the bound port.

        :param addresses: the packed source and destination, 32 bytes.
        :param checksum: the carried checksum; 0 skips verification.
        """
        if checksum and udp_sum(addresses, src_port + dst_port + checksum, payload):
            self.rx_checksum_errors += 1
            return
        handler = self._ports.get(dst_port)
        if handler is None:
            self.rx_no_port += 1
            return
        self.rx_datagrams += 1
        handler(payload, Ipv6Address(addresses[:16]), src_port)
