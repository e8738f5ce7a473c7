"""RFC 6282 IPHC header compression with NHC-UDP.

Stateless compression only (CID = 0): the simulated mesh distributes no
6LoWPAN contexts, mirroring the paper's configuration where GNRC runs with
default contexts.  Link-local addresses whose IID is derived from the
link-layer address compress down to zero bytes; routable mesh addresses ride
inline -- which is exactly why the paper's multi-hop packets see little
compression gain (100-byte IP packets become 115-byte BLE packets, §4.3).

Wire layout (two base bytes)::

      0   1   2   3   4   5   6   7 | 8   9  10  11  12  13  14  15
    | 0   1   1 |  TF   | NH | HLIM |CID|SAC|  SAM  | M |DAC|  DAM  |

followed by the inline fields in that order, then (with NH = 1) the NHC-UDP
header ``1 1 1 1 0 C P1 P0`` and its inline port/checksum fields.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.sixlowpan.ipv6 import (
    Ipv6Address,
    Ipv6Packet,
    PROTO_UDP,
    udp_checksum,
)

#: First-byte dispatch pattern of an IPHC-compressed datagram.
IPHC_DISPATCH = 0b011_00000
#: Dispatch byte for an uncompressed IPv6 datagram (RFC 4944 §5.1).
UNCOMPRESSED_IPV6_DISPATCH = 0x41
#: NHC-UDP header pattern ``11110CPP``.
NHC_UDP_PATTERN = 0b1111_0000

_LINK_LOCAL_PADDED = bytes.fromhex("fe80000000000000")
#: First six IID bytes of a 16-bit-compressible IID (``0000:00ff:fe00:XXXX``).
_IID_16BIT_PREFIX = bytes.fromhex("000000fffe00")
#: The leading bytes a unicast SAM/DAM mode elides; the rest of the address
#: rides inline.  Mode 0b11 elides all 16: the IID is the link layer's.
_UNICAST_ELIDED = (b"", _LINK_LOCAL_PADDED, _LINK_LOCAL_PADDED + _IID_16BIT_PREFIX)
#: First 15 bytes of an ``ff02::00XX`` multicast address.
_FF02_PREFIX = bytes.fromhex("ff02") + b"\x00" * 13
_ZEROS_9 = b"\x00" * 9
_ZEROS_11 = b"\x00" * 11
#: Hop limits with an HLIM code of their own, and the inverse table.
_HLIM_MODES = {1: 0b01, 64: 0b10, 255: 0b11}
_HLIM_VALUES = (None, 1, 64, 255)
#: Inline bytes per TF mode, and per NHC-UDP port mode.
_TF_INLINE = (4, 3, 1, 0)
_PORTS_INLINE = (4, 3, 3, 1)
#: The rebuilt UDP length field; packing it keeps ``struct.error`` for a
#: datagram over 64 KiB.
_UDP_LENGTH = struct.Struct(">H")
#: First base byte of a datagram :func:`wire_fields` accepts, less its HLIM
#: code: IPHC dispatch, TF elided, NH compressed.
_WIRE_BYTE0 = IPHC_DISPATCH | 0b11 << 3 | 0b100

#: What :func:`compress_udp` builds ahead of the addresses, by hop limit:
#: the base bytes, and the hop limit inline where it has no HLIM code.
_WIRE_HEADS = tuple(
    bytes((_WIRE_BYTE0 | _HLIM_MODES[h], 0) if h in _HLIM_MODES else (_WIRE_BYTE0, 0, h))
    for h in range(256)
)
#: The NHC-UDP byte, the ports and the checksum, by port mode.
_NHC_UDP = (
    struct.Struct(">BHHH"),  # 00: both ports inline
    struct.Struct(">BHBH"),  # 01: source inline, destination 0xF0dd
    struct.Struct(">BBHH"),  # 10: source 0xF0ss, destination inline
    struct.Struct(">BBH"),  # 11: 0xF0Bs, 0xF0Bd in one byte of nibbles
)

_TRUNCATED = "truncated IPHC datagram"
_NO_IID = "elided address but no link-layer IID available"


class IphcError(ValueError):
    """Raised on undecodable compressed datagrams."""


def compress(
    packet: Ipv6Packet,
    src_ll_iid: Optional[bytes] = None,
    dst_ll_iid: Optional[bytes] = None,
) -> bytes:
    """Compress an IPv6 packet into a 6LoWPAN IPHC datagram.

    One pass over the header: each field sets its bits of the two base
    bytes and appends its inline bytes, in wire order.

    :param packet: the datagram to compress.
    :param src_ll_iid: IID derivable from the link-layer source address
        (enables full source elision for link-local traffic).
    :param dst_ll_iid: same for the destination.
    :returns: the compressed bytes including payload.
    :raises ValueError: when the hop limit does not fit its byte.
    """
    hop_limit = packet.hop_limit
    if not 0 <= hop_limit <= 255:
        raise ValueError(f"hop limit out of range: {hop_limit}")
    out = bytearray(2)  # the base bytes, filled in last

    # TF: traffic class + flow label
    traffic_class = packet.traffic_class
    flow_label = packet.flow_label
    if flow_label == 0:
        if traffic_class == 0:
            byte0 = IPHC_DISPATCH | 0b11 << 3
        else:
            byte0 = IPHC_DISPATCH | 0b10 << 3
            out.append(traffic_class)
    elif traffic_class & 0b111111 == 0:  # DSCP zero, ECN present
        byte0 = IPHC_DISPATCH | 0b01 << 3
        out += bytes(
            (
                (traffic_class >> 6 << 6) | ((flow_label >> 16) & 0x0F),
                (flow_label >> 8) & 0xFF,
                flow_label & 0xFF,
            )
        )
    else:
        byte0 = IPHC_DISPATCH
        out += bytes(
            (
                traffic_class,
                (flow_label >> 16) & 0x0F,
                (flow_label >> 8) & 0xFF,
                flow_label & 0xFF,
            )
        )

    # NH: UDP gets NHC compression
    udp = packet.payload
    udp_nhc = packet.next_header == PROTO_UDP and len(udp) >= 8
    if udp_nhc:
        byte0 |= 0b100
    else:
        out.append(packet.next_header)

    # HLIM
    hlim = _HLIM_MODES.get(hop_limit)
    if hlim is None:
        out.append(hop_limit)
    else:
        byte0 |= hlim

    # SAM: the source is always unicast
    addr = packet.src.packed
    if addr[:8] != _LINK_LOCAL_PADDED:
        byte1 = 0b00 << 4  # full address inline
        out += addr
    elif src_ll_iid is not None and addr[8:] == src_ll_iid:
        byte1 = 0b11 << 4  # fully elided, derived from the LL address
    elif addr[8:14] == _IID_16BIT_PREFIX:
        byte1 = 0b10 << 4  # 16-bit compressible IID
        out += addr[14:]
    else:
        byte1 = 0b01 << 4  # 64-bit IID inline, prefix elided
        out += addr[8:]

    # M + DAM
    addr = packet.dst.packed
    if addr[0] == 0xFF:
        if addr[:15] == _FF02_PREFIX:
            byte1 |= 0b1011  # ff02::00XX
            out.append(addr[15])
        elif addr[2:13] == _ZEROS_11:
            byte1 |= 0b1010  # ffXX::00XX:XXXX
            out.append(addr[1])
            out += addr[13:]
        elif addr[2:11] == _ZEROS_9:
            byte1 |= 0b1001  # ffXX::00XX:XXXX:XXXX
            out.append(addr[1])
            out += addr[11:]
        else:
            byte1 |= 0b1000
            out += addr
    elif addr[:8] != _LINK_LOCAL_PADDED:
        out += addr
    elif dst_ll_iid is not None and addr[8:] == dst_ll_iid:
        byte1 |= 0b11
    elif addr[8:14] == _IID_16BIT_PREFIX:
        byte1 |= 0b10
        out += addr[14:]
    else:
        byte1 |= 0b01
        out += addr[8:]

    out[0] = byte0
    out[1] = byte1
    if not udp_nhc:
        out += udp
        return bytes(out)

    # NHC-UDP: compress the ports, keep the checksum.  The header is
    # sliced, never unpacked: bytes 0-1 source port, 2-3 destination port,
    # 4-5 length (elided), 6-7 checksum.
    sport_hi, sport_lo, dport_hi, dport_lo = udp[0], udp[1], udp[2], udp[3]
    if (
        sport_hi == 0xF0 and dport_hi == 0xF0
        and sport_lo >> 4 == 0xB and dport_lo >> 4 == 0xB
    ):
        out.append(NHC_UDP_PATTERN | 0b11)
        out.append(((sport_lo & 0xF) << 4) | (dport_lo & 0xF))
    elif dport_hi == 0xF0:
        out.append(NHC_UDP_PATTERN | 0b01)
        out += udp[:2]
        out.append(dport_lo)
    elif sport_hi == 0xF0:
        out.append(NHC_UDP_PATTERN | 0b10)
        out.append(sport_lo)
        out += udp[2:4]
    else:
        out.append(NHC_UDP_PATTERN | 0b00)
        out += udp[:4]
    out += udp[6:]
    return bytes(out)


def decompress(
    data: bytes,
    src_ll_iid: Optional[bytes] = None,
    dst_ll_iid: Optional[bytes] = None,
) -> Ipv6Packet:
    """Inverse of :func:`compress`.

    One pass over the datagram: the modes come from the two base bytes,
    and each inline field is read at its offset behind its own bounds
    check, in wire order, so a truncated datagram fails at the first field
    it cuts.

    :raises IphcError: on malformed or unsupported datagrams.
    """
    if not data:
        raise IphcError("empty datagram")
    byte0 = data[0]
    if byte0 == UNCOMPRESSED_IPV6_DISPATCH:
        return Ipv6Packet.decode(data[1:])
    if byte0 >> 5 != 0b011:
        raise IphcError(f"not an IPHC datagram (first byte {byte0:#04x})")
    size = len(data)
    if size < 2:
        raise IphcError(_TRUNCATED)
    byte1 = data[1]
    if byte1 & 0b1100_0100:  # CID, SAC or DAC
        raise IphcError("context-based compression is not supported")

    # TF
    tf = byte0 >> 3 & 0b11
    pos = 2 + _TF_INLINE[tf]
    if pos > size:
        raise IphcError(_TRUNCATED)
    if tf == 0b11:
        traffic_class = flow_label = 0
    elif tf == 0b10:
        traffic_class = data[2]
        flow_label = 0
    elif tf == 0b01:
        traffic_class = data[2] >> 6 << 6
        flow_label = ((data[2] & 0x0F) << 16) | (data[3] << 8) | data[4]
    else:
        traffic_class = data[2]
        flow_label = ((data[3] & 0x0F) << 16) | (data[4] << 8) | data[5]

    # NH
    nh = byte0 & 0b100
    if nh:
        next_header = PROTO_UDP
    else:
        if pos >= size:
            raise IphcError(_TRUNCATED)
        next_header = data[pos]
        pos += 1

    # HLIM
    hop_limit = _HLIM_VALUES[byte0 & 0b11]
    if hop_limit is None:
        if pos >= size:
            raise IphcError(_TRUNCATED)
        hop_limit = data[pos]
        pos += 1

    # SAM
    mode = byte1 >> 4 & 0b11
    if mode == 0b11:
        if src_ll_iid is None:
            raise IphcError(_NO_IID)
        src = Ipv6Address(_LINK_LOCAL_PADDED + src_ll_iid)
    else:
        elided = _UNICAST_ELIDED[mode]
        end = pos + 16 - len(elided)
        if end > size:
            raise IphcError(_TRUNCATED)
        src = Ipv6Address(elided + data[pos:end])
        pos = end

    # M + DAM
    mode = byte1 & 0b1011
    if mode == 0b0011:
        if dst_ll_iid is None:
            raise IphcError(_NO_IID)
        dst = Ipv6Address(_LINK_LOCAL_PADDED + dst_ll_iid)
    elif mode < 0b0011 or mode == 0b1000:  # unicast, or multicast inline
        elided = _UNICAST_ELIDED[mode & 0b11]
        end = pos + 16 - len(elided)
        if end > size:
            raise IphcError(_TRUNCATED)
        dst = Ipv6Address(elided + data[pos:end])
        pos = end
    elif mode != 0b1011:  # ffXX::00XX:XXXX:XXXX or ffXX::00XX:XXXX
        inline = 6 if mode == 0b1001 else 4
        end = pos + inline
        if end > size:
            raise IphcError(_TRUNCATED)
        # ff, the flags/scope byte, zeros, then the rest of the inline bytes
        dst = Ipv6Address(
            b"\xff" + data[pos : pos + 1] + bytes(15 - inline) + data[pos + 1 : end]
        )
        pos = end
    else:  # ff02::00XX
        if pos >= size:
            raise IphcError(_TRUNCATED)
        dst = Ipv6Address(_FF02_PREFIX + data[pos : pos + 1])
        pos += 1

    if not nh:
        payload = data[pos:]
    else:
        # NHC-UDP: rebuild the 8-byte UDP header
        if pos >= size:
            raise IphcError(_TRUNCATED)
        head = data[pos]
        if head & 0b1111_1000 != NHC_UDP_PATTERN:
            raise IphcError(f"unsupported NHC header {head:#04x}")
        ports_mode = head & 0b11
        end = pos + 1 + _PORTS_INLINE[ports_mode]
        if end > size:
            raise IphcError(_TRUNCATED)
        if ports_mode == 0b11:  # 0xF0Bs, 0xF0Bd: one byte of nibbles
            nibbles = data[pos + 1]
            ports = bytes((0xF0, 0xB0 | nibbles >> 4, 0xF0, 0xB0 | nibbles & 0x0F))
        elif ports_mode == 0b01:  # source inline, destination 0xF0dd
            ports = data[pos + 1 : pos + 3] + b"\xf0" + data[pos + 3 : end]
        elif ports_mode == 0b10:  # source 0xF0ss, destination inline
            ports = b"\xf0" + data[pos + 1 : end]
        else:
            ports = data[pos + 1 : end]
        pos = end
        if head & 0b100:
            # checksum elided: recompute it over the pseudo header
            body = data[pos:]
            length = _UDP_LENGTH.pack(8 + len(body))
            checksum = udp_checksum(src, dst, ports + length + b"\x00\x00" + body)
            payload = ports + length + _UDP_LENGTH.pack(checksum) + body
        else:
            if pos + 2 > size:
                raise IphcError(_TRUNCATED)
            # the carried checksum and the data after it: 8 + (size - pos - 2)
            payload = ports + _UDP_LENGTH.pack(size - pos + 6) + data[pos:]

    return Ipv6Packet(
        src=src,
        dst=dst,
        payload=payload,
        next_header=next_header,
        hop_limit=hop_limit,
        traffic_class=traffic_class,
        flow_label=flow_label,
    )


def wire_fields(data: bytes) -> Optional[Tuple[bytes, int, int]]:
    """Destination, hop limit and IPv6 length of a relayable datagram.

    A datagram is relayable when its bytes are exactly what
    :func:`compress` emits for the packet :func:`decompress` reads from
    them, whatever the link-layer IIDs on either side: stateless (CID, SAC
    and DAC 0), both addresses inline (SAM 00, M 0, DAM 00) and neither in
    fe80::/64 nor the destination multicast, TF elided, NHC-UDP with the
    checksum carried and the port mode :func:`compress` picks for those
    ports, and long enough for every field :func:`decompress` reads.  A
    router then forwards it by rewriting its hop limit alone
    (:func:`with_hop_limit`).

    :returns: the destination's 16 packed bytes, the hop limit and the
        decompressed packet's ``total_len``; None for any other datagram.
    """
    size = len(data)
    if size < 38 or data[0] & 0b1111_1100 != _WIRE_BYTE0 or data[1]:
        return None
    hop_limit = _HLIM_VALUES[data[0] & 0b11]
    if hop_limit is None:
        hop_limit = data[2]
        pos = 3
    else:
        pos = 2
    dst = data[pos + 16 : pos + 32]
    if (
        data[pos : pos + 8] == _LINK_LOCAL_PADDED
        or dst[:8] == _LINK_LOCAL_PADDED
        or dst[0] == 0xFF
    ):
        return None
    pos += 32
    head = data[pos]
    if head & 0b1111_1100 != NHC_UDP_PATTERN:  # not NHC-UDP, or checksum elided
        return None
    ports_mode = head & 0b11
    end = pos + 3 + _PORTS_INLINE[ports_mode]  # NHC byte, ports, checksum
    if end > size:
        return None
    # decline a port mode compress would not pick for the decoded ports
    if ports_mode == 0b01:  # source inline, destination 0xF0dd
        if (
            data[pos + 1] == 0xF0
            and data[pos + 2] >> 4 == 0xB
            and data[pos + 3] >> 4 == 0xB
        ):
            return None  # both ports 0xF0Bx: compress sends one nibble byte
    elif ports_mode == 0b10:  # source 0xF0ss, destination inline
        if data[pos + 2] == 0xF0:
            return None
    elif ports_mode == 0b00 and (data[pos + 1] == 0xF0 or data[pos + 3] == 0xF0):
        return None
    # 40 header bytes, the 8-byte UDP header, and the data after the checksum
    return dst, hop_limit, size - end + 48


def wire_udp(data: bytes) -> Tuple[bytes, int, int, int, bytes]:
    """The UDP datagram in a datagram :func:`wire_fields` accepts, read
    from its IPHC and NHC-UDP fields (local delivery on the wire, DESIGN
    §12).

    :returns: the packed source and destination (32 bytes), the source and
        destination ports, the carried checksum and the UDP data.
    """
    pos = 2 if data[0] & 0b11 else 3
    nhc = pos + 32
    ports_mode = data[nhc] & 0b11
    if ports_mode == 0b00:
        src_port = data[nhc + 1] << 8 | data[nhc + 2]
        dst_port = data[nhc + 3] << 8 | data[nhc + 4]
    elif ports_mode == 0b11:  # 0xF0Bs, 0xF0Bd: one byte of nibbles
        src_port = 0xF0B0 | data[nhc + 1] >> 4
        dst_port = 0xF0B0 | data[nhc + 1] & 0x0F
    elif ports_mode == 0b01:  # source inline, destination 0xF0dd
        src_port = data[nhc + 1] << 8 | data[nhc + 2]
        dst_port = 0xF000 | data[nhc + 3]
    else:  # source 0xF0ss, destination inline
        src_port = 0xF000 | data[nhc + 1]
        dst_port = data[nhc + 2] << 8 | data[nhc + 3]
    end = nhc + 1 + _PORTS_INLINE[ports_mode]
    return data[pos:nhc], src_port, dst_port, data[end] << 8 | data[end + 1], data[end + 2 :]


def compress_udp(
    addresses: bytes, hop_limit: int, src_port: int, dst_port: int, checksum: int, data: bytes
) -> Optional[bytes]:
    """:func:`compress` of a UDP packet whose compressed form does not
    depend on the link, built from its fields (origination on the wire,
    DESIGN §12).

    Equal to ``compress(packet, a, b)`` for any link IIDs ``a`` and ``b``:
    TF elided, both addresses inline, NHC-UDP in the port mode
    :func:`compress` picks with ``checksum`` carried, then ``data``.
    :func:`wire_fields` reads it as ``(dst, hop_limit, 48 + len(data))``.

    :param addresses: the packed source and destination, 32 bytes.
    :param hop_limit: 0..255, as the caller checks (it indexes a table).
    :returns: None when either address is in fe80::/64 or the destination
        is multicast: there the IIDs matter, or :func:`wire_fields`
        declines the datagram.
    """
    if (
        addresses[:8] == _LINK_LOCAL_PADDED
        or addresses[16:24] == _LINK_LOCAL_PADDED
        or addresses[16] == 0xFF
    ):
        return None
    # the port mode compress picks, in the order it tries them
    if src_port >> 4 == dst_port >> 4 == 0xF0B:
        nibbles = (src_port & 0xF) << 4 | dst_port & 0xF
        udp = _NHC_UDP[0b11].pack(NHC_UDP_PATTERN | 0b11, nibbles, checksum)
    elif dst_port >> 8 == 0xF0:
        udp = _NHC_UDP[0b01].pack(NHC_UDP_PATTERN | 0b01, src_port, dst_port & 0xFF, checksum)
    elif src_port >> 8 == 0xF0:
        udp = _NHC_UDP[0b10].pack(NHC_UDP_PATTERN | 0b10, src_port & 0xFF, dst_port, checksum)
    else:
        udp = _NHC_UDP[0b00].pack(NHC_UDP_PATTERN, src_port, dst_port, checksum)
    return b"".join((_WIRE_HEADS[hop_limit], addresses, udp, data))


def with_hop_limit(data: bytes, hop_limit: int) -> bytes:
    """A datagram :func:`wire_fields` accepts, with its hop limit replaced.

    The new value is coded as :func:`compress` codes it: 1, 64 and 255 as
    an HLIM code, any other value as an inline byte, so the inline byte
    appears or goes where the hop limit crosses those values.
    """
    rest = data[2:] if data[0] & 0b11 else data[3:]
    code = _HLIM_MODES.get(hop_limit)
    if code is None:
        return bytes((data[0] & 0b1111_1100, data[1], hop_limit)) + rest
    return bytes((data[0] & 0b1111_1100 | code, data[1])) + rest
