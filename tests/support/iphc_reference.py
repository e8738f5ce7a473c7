"""The IPHC codec and RFC 1071 checksum as they were before the
straight-line rewrite, kept as a test-only reference.

``compress``, ``decompress`` and ``_checksum`` below are verbatim copies
of the cursor-based implementation.  ``udp_checksum`` is copied alongside
so the reference never reaches the production checksum; the exception
class is the production one, so raised errors compare by type.  The
differential suite (``tests/sixlowpan/test_iphc_reference.py``) holds the
production codec to this one: equal bytes, equal packets, and the same
exception type and message, in the same order, on malformed input.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.sixlowpan.iphc import IphcError
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP


def _checksum(data: bytes) -> int:
    """RFC 1071 one's-complement sum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def udp_checksum(src: Ipv6Address, dst: Ipv6Address, udp_bytes: bytes) -> int:
    """UDP checksum over the IPv6 pseudo header (RFC 2460 §8.1)."""
    pseudo = (
        src.packed
        + dst.packed
        + struct.pack(">IHBB", len(udp_bytes), 0, 0, PROTO_UDP)
    )
    value = _checksum(pseudo + udp_bytes)
    return value or 0xFFFF  # 0 is transmitted as all-ones for UDP


#: First-byte dispatch pattern of an IPHC-compressed datagram.
IPHC_DISPATCH = 0b011_00000
#: Dispatch byte for an uncompressed IPv6 datagram (RFC 4944 §5.1).
UNCOMPRESSED_IPV6_DISPATCH = 0x41
#: NHC-UDP header pattern ``11110CPP``.
NHC_UDP_PATTERN = 0b1111_0000

_LINK_LOCAL_PADDED = bytes.fromhex("fe80000000000000")
#: First six IID bytes of a 16-bit-compressible IID (``0000:00ff:fe00:XXXX``).
_IID_16BIT_PREFIX = bytes.fromhex("000000fffe00")
#: First 15 bytes of an ``ff02::00XX`` multicast address.
_FF02_PREFIX = bytes.fromhex("ff02") + b"\x00" * 13
#: Hop limits with an HLIM code of their own, and the inverse table.
_HLIM_MODES = {1: 0b01, 64: 0b10, 255: 0b11}
_HLIM_VALUES = {0b01: 1, 0b10: 64, 0b11: 255}


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


def _compress_unicast(addr: Ipv6Address, ll_iid: Optional[bytes]) -> Tuple[int, bytes]:
    """Pick the SAM/DAM mode and inline bytes for a unicast address."""
    if addr.is_link_local:
        iid = addr.iid
        if ll_iid is not None and iid == ll_iid:
            return 0b11, b""  # fully elided, derived from the LL address
        if iid[:6] == _IID_16BIT_PREFIX:
            return 0b10, iid[6:]  # 16-bit compressible IID
        return 0b01, iid  # 64-bit IID inline, prefix elided
    return 0b00, addr.packed  # full address inline


def _compress_multicast(addr: Ipv6Address) -> Tuple[int, bytes]:
    """Pick the DAM mode and inline bytes for a multicast address."""
    p = addr.packed
    if p[:15] == _FF02_PREFIX:
        return 0b11, p[15:16]  # ff02::00XX
    if p[2:13] == b"\x00" * 11:
        return 0b10, p[1:2] + p[13:]  # ffXX::00XX:XXXX
    if p[2:11] == b"\x00" * 9:
        return 0b01, p[1:2] + p[11:]  # ffXX::00XX:XXXX:XXXX
    return 0b00, p


def compress(
    packet: Ipv6Packet,
    src_ll_iid: Optional[bytes] = None,
    dst_ll_iid: Optional[bytes] = None,
) -> bytes:
    """Compress an IPv6 packet into a 6LoWPAN IPHC datagram.

    :param packet: the datagram to compress.
    :param src_ll_iid: IID derivable from the link-layer source address
        (enables full source elision for link-local traffic).
    :param dst_ll_iid: same for the destination.
    :returns: the compressed bytes including payload.
    :raises ValueError: when the hop limit does not fit its byte.
    """
    if not 0 <= packet.hop_limit <= 255:
        raise ValueError(f"hop limit out of range: {packet.hop_limit}")
    inline = bytearray()

    # TF: traffic class + flow label
    if packet.traffic_class == 0 and packet.flow_label == 0:
        tf = 0b11
    elif packet.flow_label == 0:
        tf = 0b10
        inline.append(packet.traffic_class)
    elif (packet.traffic_class & 0b111111) == 0:  # DSCP zero, ECN present
        tf = 0b01
        ecn = packet.traffic_class >> 6
        inline += bytes(
            [
                (ecn << 6) | ((packet.flow_label >> 16) & 0x0F),
                (packet.flow_label >> 8) & 0xFF,
                packet.flow_label & 0xFF,
            ]
        )
    else:
        tf = 0b00
        ecn_dscp = packet.traffic_class
        inline += bytes(
            [
                ecn_dscp,
                (packet.flow_label >> 16) & 0x0F,
                (packet.flow_label >> 8) & 0xFF,
                packet.flow_label & 0xFF,
            ]
        )

    # NH: UDP gets NHC compression
    udp_nhc = packet.next_header == PROTO_UDP and len(packet.payload) >= 8
    nh = 1 if udp_nhc else 0
    if not udp_nhc:
        inline.append(packet.next_header)

    # HLIM
    hlim = _HLIM_MODES.get(packet.hop_limit, 0b00)
    if hlim == 0b00:
        inline.append(packet.hop_limit)

    # addresses
    sam, src_inline = _compress_unicast(packet.src, src_ll_iid)
    inline += src_inline
    if packet.dst.is_multicast:
        m = 1
        dam, dst_inline = _compress_multicast(packet.dst)
    else:
        m = 0
        dam, dst_inline = _compress_unicast(packet.dst, dst_ll_iid)
    inline += dst_inline

    byte0 = IPHC_DISPATCH | (tf << 3) | (nh << 2) | hlim
    byte1 = (0 << 7) | (0 << 6) | (sam << 4) | (m << 3) | (0 << 2) | dam
    out = bytearray([byte0, byte1])
    out += inline

    if udp_nhc:
        out += _compress_udp(packet.payload)
    else:
        out += packet.payload
    return bytes(out)


def _compress_udp(udp_bytes: bytes) -> bytes:
    """NHC-UDP: compress the 8-byte UDP header, keep the checksum."""
    sport, dport, _length, checksum = struct.unpack_from(">HHHH", udp_bytes)
    payload = udp_bytes[8:]
    if sport >> 4 == 0xF0B and dport >> 4 == 0xF0B:
        head = bytes([NHC_UDP_PATTERN | 0b11])
        ports = bytes([((sport & 0xF) << 4) | (dport & 0xF)])
    elif dport >> 8 == 0xF0:
        head = bytes([NHC_UDP_PATTERN | 0b01])
        ports = struct.pack(">HB", sport, dport & 0xFF)
    elif sport >> 8 == 0xF0:
        head = bytes([NHC_UDP_PATTERN | 0b10])
        ports = struct.pack(">BH", sport & 0xFF, dport)
    else:
        head = bytes([NHC_UDP_PATTERN | 0b00])
        ports = struct.pack(">HH", sport, dport)
    return head + ports + struct.pack(">H", checksum) + payload


# ---------------------------------------------------------------------------
# decompression
# ---------------------------------------------------------------------------


class _Reader:
    """Byte cursor over the compressed datagram."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IphcError("truncated IPHC datagram")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def rest(self) -> bytes:
        chunk = self.data[self.pos :]
        self.pos = len(self.data)
        return chunk


def _decode_unicast(mode: int, reader: _Reader, ll_iid: Optional[bytes]) -> Ipv6Address:
    if mode == 0b00:
        return Ipv6Address(reader.take(16))
    if mode == 0b01:
        return Ipv6Address(_LINK_LOCAL_PADDED + reader.take(8))
    if mode == 0b10:
        return Ipv6Address(
            _LINK_LOCAL_PADDED + _IID_16BIT_PREFIX + reader.take(2)
        )
    if ll_iid is None:
        raise IphcError("elided address but no link-layer IID available")
    return Ipv6Address(_LINK_LOCAL_PADDED + ll_iid)


def _decode_multicast(mode: int, reader: _Reader) -> Ipv6Address:
    if mode == 0b00:
        return Ipv6Address(reader.take(16))
    if mode == 0b01:
        raw = reader.take(6)
        return Ipv6Address(b"\xff" + raw[:1] + b"\x00" * 9 + raw[1:])
    if mode == 0b10:
        raw = reader.take(4)
        return Ipv6Address(b"\xff" + raw[:1] + b"\x00" * 11 + raw[1:])
    return Ipv6Address(_FF02_PREFIX + reader.take(1))


def decompress(
    data: bytes,
    src_ll_iid: Optional[bytes] = None,
    dst_ll_iid: Optional[bytes] = None,
) -> Ipv6Packet:
    """Inverse of :func:`compress`.

    :raises IphcError: on malformed or unsupported datagrams.
    """
    if not data:
        raise IphcError("empty datagram")
    if data[0] == UNCOMPRESSED_IPV6_DISPATCH:
        return Ipv6Packet.decode(data[1:])
    if data[0] >> 5 != 0b011:
        raise IphcError(f"not an IPHC datagram (first byte {data[0]:#04x})")

    reader = _Reader(data)
    byte0, byte1 = reader.take(2)
    tf = (byte0 >> 3) & 0b11
    nh = (byte0 >> 2) & 0b1
    hlim = byte0 & 0b11
    cid = (byte1 >> 7) & 0b1
    sac = (byte1 >> 6) & 0b1
    sam = (byte1 >> 4) & 0b11
    m = (byte1 >> 3) & 0b1
    dac = (byte1 >> 2) & 0b1
    dam = byte1 & 0b11
    if cid or sac or dac:
        raise IphcError("context-based compression is not supported")

    traffic_class = 0
    flow_label = 0
    if tf == 0b00:
        raw = reader.take(4)
        traffic_class = raw[0]
        flow_label = ((raw[1] & 0x0F) << 16) | (raw[2] << 8) | raw[3]
    elif tf == 0b01:
        raw = reader.take(3)
        traffic_class = (raw[0] >> 6) << 6
        flow_label = ((raw[0] & 0x0F) << 16) | (raw[1] << 8) | raw[2]
    elif tf == 0b10:
        traffic_class = reader.take(1)[0]

    next_header = PROTO_UDP if nh else reader.take(1)[0]

    hop_limit = _HLIM_VALUES.get(hlim)
    if hop_limit is None:
        hop_limit = reader.take(1)[0]

    src = _decode_unicast(sam, reader, src_ll_iid)
    if m:
        dst = _decode_multicast(dam, reader)
    else:
        dst = _decode_unicast(dam, reader, dst_ll_iid)

    if nh:
        payload = _decompress_udp(reader, src, dst)
    else:
        payload = reader.rest()

    return Ipv6Packet(
        src=src,
        dst=dst,
        payload=payload,
        next_header=next_header,
        hop_limit=hop_limit,
        traffic_class=traffic_class,
        flow_label=flow_label,
    )


def _decompress_udp(reader: _Reader, src: Ipv6Address, dst: Ipv6Address) -> bytes:
    """Rebuild the 8-byte UDP header from NHC-UDP."""
    head = reader.take(1)[0]
    if head & 0b1111_1000 != NHC_UDP_PATTERN:
        raise IphcError(f"unsupported NHC header {head:#04x}")
    p = head & 0b11
    c = (head >> 2) & 0b1
    if p == 0b11:
        nibbles = reader.take(1)[0]
        sport = 0xF0B0 | (nibbles >> 4)
        dport = 0xF0B0 | (nibbles & 0x0F)
    elif p == 0b01:
        sport, dlow = struct.unpack(">HB", reader.take(3))
        dport = 0xF000 | dlow
    elif p == 0b10:
        slow, dport = struct.unpack(">BH", reader.take(3))
        sport = 0xF000 | slow
    else:
        sport, dport = struct.unpack(">HH", reader.take(4))
    checksum = 0 if c else struct.unpack(">H", reader.take(2))[0]
    payload = reader.rest()
    length = 8 + len(payload)
    udp = struct.pack(">HHHH", sport, dport, length, checksum) + payload
    if c:
        # checksum was elided: recompute it over the pseudo header
        raw = struct.pack(">HHHH", sport, dport, length, 0) + payload
        checksum = udp_checksum(src, dst, raw)
        udp = struct.pack(">HHHH", sport, dport, length, checksum) + payload
    return udp
