"""The UDP and CoAP codecs as they were before the table-driven rewrite,
kept as a test-only reference.

``udp_encode``/``udp_decode`` are ``UdpDatagram.encode``/``decode`` and
``coap_encode``/``coap_decode`` are ``CoapMessage.encode``/``decode``,
copied verbatim with ``self`` renamed to the object they take.  Both
build the production classes, so results compare with ``==``.  The UDP
checksum is the reference one of ``iphc_reference``, so the reference
never reaches the production sum; the CoAP extended-field helpers are
copied alongside.  The differential suite
(``tests/net/test_codec_reference.py``) holds the production codecs to
these: equal bytes, equal results, and the same exception type and
message on malformed input.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.coap.message import (
    COAP_VERSION,
    CoapCode,
    CoapDecodeError,
    CoapMessage,
    CoapType,
)
from repro.sixlowpan.ipv6 import Ipv6Address, UdpDatagram
from tests.support.iphc_reference import udp_checksum

_UDP_HEADER = struct.Struct(">HHHH")


# ---------------------------------------------------------------------------
# UDP


def udp_encode(self: UdpDatagram, src: Ipv6Address, dst: Ipv6Address) -> bytes:
    """Serialize with a valid checksum for the given address pair."""
    for port in (self.src_port, self.dst_port):
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"port out of range: {port}")
    length = _UDP_HEADER.size + len(self.payload)
    raw = _UDP_HEADER.pack(self.src_port, self.dst_port, length, 0) + self.payload
    self.checksum = udp_checksum(src, dst, raw)
    return (
        _UDP_HEADER.pack(self.src_port, self.dst_port, length, self.checksum)
        + self.payload
    )


def udp_decode(
    data: bytes,
    src: Optional[Ipv6Address] = None,
    dst: Optional[Ipv6Address] = None,
    verify: bool = True,
) -> UdpDatagram:
    """Parse; verifies the checksum when both addresses are supplied."""
    if len(data) < _UDP_HEADER.size:
        raise ValueError("truncated UDP header")
    sport, dport, length, checksum = _UDP_HEADER.unpack_from(data)
    if length < _UDP_HEADER.size or length > len(data):
        raise ValueError("bad UDP length field")
    payload = data[_UDP_HEADER.size : length]
    if verify and src is not None and dst is not None and checksum != 0:
        raw = _UDP_HEADER.pack(sport, dport, length, 0) + payload
        if udp_checksum(src, dst, raw) != checksum:
            raise ValueError("UDP checksum mismatch")
    return UdpDatagram(sport, dport, payload, checksum)


# ---------------------------------------------------------------------------
# CoAP


def _encode_extended(value: int) -> Tuple[int, bytes]:
    """Nibble + extension bytes for an option delta or length."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    if value < 65805:
        v = value - 269
        return 14, bytes([v >> 8, v & 0xFF])
    raise ValueError(f"option delta/length too large: {value}")


def _decode_extended(nibble: int, data: bytes, pos: int) -> Tuple[int, int]:
    """Inverse of :func:`_encode_extended`; returns (value, new_pos)."""
    if nibble < 13:
        return nibble, pos
    if nibble == 13:
        if pos >= len(data):
            raise CoapDecodeError("truncated option extension")
        return data[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(data):
            raise CoapDecodeError("truncated option extension")
        return (data[pos] << 8 | data[pos + 1]) + 269, pos + 2
    raise CoapDecodeError("reserved option nibble 15")


def coap_encode(self: CoapMessage) -> bytes:
    """Serialize to RFC 7252 wire bytes."""
    out = bytearray(
        [
            (COAP_VERSION << 6) | (self.mtype << 4) | len(self.token),
            self.code,
            self.mid >> 8,
            self.mid & 0xFF,
        ]
    )
    out += self.token
    last_number = 0
    for number, value in sorted(self.options, key=lambda kv: kv[0]):
        delta_nibble, delta_ext = _encode_extended(number - last_number)
        len_nibble, len_ext = _encode_extended(len(value))
        out.append((delta_nibble << 4) | len_nibble)
        out += delta_ext + len_ext + value
        last_number = number
    if self.payload:
        out.append(0xFF)
        out += self.payload
    return bytes(out)


def coap_decode(data: bytes) -> CoapMessage:
    """Parse wire bytes; raises :class:`CoapDecodeError` when malformed."""
    if len(data) < 4:
        raise CoapDecodeError("shorter than the fixed header")
    version = data[0] >> 6
    if version != COAP_VERSION:
        raise CoapDecodeError(f"unsupported CoAP version {version}")
    mtype = CoapType((data[0] >> 4) & 0b11)
    tkl = data[0] & 0x0F
    if tkl > 8:
        raise CoapDecodeError(f"invalid token length {tkl}")
    try:
        code = CoapCode(data[1])
    except ValueError as exc:
        raise CoapDecodeError(f"unknown code {data[1]:#x}") from exc
    mid = (data[2] << 8) | data[3]
    pos = 4
    if pos + tkl > len(data):
        raise CoapDecodeError("truncated token")
    token = data[pos : pos + tkl]
    pos += tkl

    options: List[Tuple[int, bytes]] = []
    number = 0
    while pos < len(data):
        byte = data[pos]
        if byte == 0xFF:
            pos += 1
            if pos >= len(data):
                raise CoapDecodeError("payload marker with empty payload")
            break
        pos += 1
        delta, pos = _decode_extended(byte >> 4, data, pos)
        length, pos = _decode_extended(byte & 0x0F, data, pos)
        if pos + length > len(data):
            raise CoapDecodeError("truncated option value")
        number += delta
        options.append((number, data[pos : pos + length]))
        pos += length
    payload = data[pos:]
    return CoapMessage(
        mtype=mtype,
        code=code,
        mid=mid,
        token=token,
        options=options,
        payload=payload,
    )
