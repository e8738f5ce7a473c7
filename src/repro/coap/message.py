"""The CoAP wire format (RFC 7252 §3).

Fixed 4-byte header, 0-8 byte token, delta-encoded options (with the 13/14
extended forms), and the 0xFF payload marker.  The codec is exact so the
packet-size arithmetic of the paper's §4.3 (13 bytes of CoAP framing around
a 39-byte payload) holds on the wire.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Tuple


class CoapType(enum.IntEnum):
    """Message types (RFC 7252 §4.2/§4.3)."""

    CON = 0
    NON = 1
    ACK = 2
    RST = 3


class CoapCode(enum.IntEnum):
    """The subset of codes the experiments use."""

    EMPTY = 0x00
    GET = 0x01
    POST = 0x02
    PUT = 0x03
    DELETE = 0x04
    CREATED = 0x41  # 2.01
    CONTENT = 0x45  # 2.05
    NOT_FOUND = 0x84  # 4.04

    @property
    def dotted(self) -> str:
        """The c.dd display form, e.g. ``2.05``."""
        return f"{self.value >> 5}.{self.value & 0x1F:02d}"


class CoapOption(enum.IntEnum):
    """Option numbers used here."""

    URI_PATH = 11
    CONTENT_FORMAT = 12


#: CoAP protocol version.
COAP_VERSION = 1

#: Message types by their two-bit value (declared in value order), and
#: codes by their byte: decode looks them up instead of calling the enums.
_TYPES: Tuple[CoapType, ...] = tuple(CoapType)
_CODES: Dict[int, CoapCode] = {code.value: code for code in CoapCode}
#: Options sort by number alone, so repeated options keep their order.
_OPTION_NUMBER = itemgetter(0)
#: Built messages: the fixed header (first byte, code, message ID), the
#: first byte of a CON request, a NON request and an ACK less the token
#: length, and the codes of a request and an empty ACK.
_HEADER = struct.Struct(">BBH")
_CON = COAP_VERSION << 6 | CoapType.CON << 4
_NON = COAP_VERSION << 6 | CoapType.NON << 4
_ACK = COAP_VERSION << 6 | CoapType.ACK << 4
_GET = int(CoapCode.GET)
_EMPTY = int(CoapCode.EMPTY)
_URI_PATH = int(CoapOption.URI_PATH)


class CoapDecodeError(ValueError):
    """Raised on malformed CoAP messages."""


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
    """Inverse of :func:`_encode_extended` for a nibble of 13 or more (a
    smaller one is its own value); returns (value, new_pos)."""
    if nibble == 13:
        if pos >= len(data):
            raise CoapDecodeError("truncated option extension")
        return data[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(data):
            raise CoapDecodeError("truncated option extension")
        return (data[pos] << 8 | data[pos + 1]) + 269, pos + 2
    raise CoapDecodeError("reserved option nibble 15")


@dataclass
class CoapMessage:
    """One CoAP message.

    Options are (number, value) pairs kept sorted by number at encode time,
    as the delta encoding requires.
    """

    mtype: CoapType
    code: CoapCode
    mid: int
    token: bytes = b""
    options: List[Tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.mid <= 0xFFFF:
            raise ValueError(f"message id out of range: {self.mid}")
        if len(self.token) > 8:
            raise ValueError("token longer than 8 bytes")

    # -- convenience ----------------------------------------------------------

    def uri_path(self) -> str:
        """Join the Uri-Path options into a path string."""
        return "/".join(
            value.decode() for num, value in self.options if num == _URI_PATH
        )

    @classmethod
    def request(
        cls,
        path: str,
        payload: bytes = b"",
        mid: int = 0,
        token: bytes = b"",
        confirmable: bool = False,
        code: CoapCode = CoapCode.GET,
    ) -> "CoapMessage":
        """Build a GET-style request with Uri-Path options."""
        options = [
            (int(CoapOption.URI_PATH), seg.encode())
            for seg in path.split("/")
            if seg
        ]
        return cls(
            mtype=CoapType.CON if confirmable else CoapType.NON,
            code=code,
            mid=mid,
            token=token,
            options=options,
            payload=payload,
        )

    def make_ack(
        self, code: CoapCode = CoapCode.EMPTY, payload: bytes = b""
    ) -> "CoapMessage":
        """The acknowledgement for this message (same MID; token echoes
        back when the ACK carries a piggybacked response)."""
        return CoapMessage(
            mtype=CoapType.ACK,
            code=code,
            mid=self.mid,
            token=self.token if code is not CoapCode.EMPTY else b"",
            payload=payload,
        )

    # -- codec ------------------------------------------------------------------

    def encode(self) -> bytes:
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
        options = self.options
        if len(options) > 1:
            options = sorted(options, key=_OPTION_NUMBER)
        last_number = 0
        for number, value in options:
            delta_nibble, delta_ext = _encode_extended(number - last_number)
            len_nibble, len_ext = _encode_extended(len(value))
            out.append((delta_nibble << 4) | len_nibble)
            out += delta_ext + len_ext + value
            last_number = number
        if self.payload:
            out.append(0xFF)
            out += self.payload
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        """Parse wire bytes; raises :class:`CoapDecodeError` when malformed."""
        size = len(data)
        if size < 4:
            raise CoapDecodeError("shorter than the fixed header")
        byte0 = data[0]
        version = byte0 >> 6
        if version != COAP_VERSION:
            raise CoapDecodeError(f"unsupported CoAP version {version}")
        tkl = byte0 & 0x0F
        if tkl > 8:
            raise CoapDecodeError(f"invalid token length {tkl}")
        code = _CODES.get(data[1])
        if code is None:
            raise CoapDecodeError(f"unknown code {data[1]:#x}")
        pos = 4 + tkl
        if pos > size:
            raise CoapDecodeError("truncated token")

        options: List[Tuple[int, bytes]] = []
        number = 0
        while pos < size:
            byte = data[pos]
            if byte == 0xFF:
                pos += 1
                if pos >= size:
                    raise CoapDecodeError("payload marker with empty payload")
                break
            pos += 1
            delta = byte >> 4
            if delta > 12:
                delta, pos = _decode_extended(delta, data, pos)
            length = byte & 0x0F
            if length > 12:
                length, pos = _decode_extended(length, data, pos)
            end = pos + length
            if end > size:
                raise CoapDecodeError("truncated option value")
            number += delta
            options.append((number, data[pos:end]))
            pos = end
        return cls(
            mtype=_TYPES[byte0 >> 4 & 0b11],
            code=code,
            mid=data[2] << 8 | data[3],
            token=data[4 : 4 + tkl],
            options=options,
            payload=data[pos:],
        )


def uri_path_options(path: str) -> bytes:
    """The Uri-Path options of a request for ``path``, as
    :meth:`CoapMessage.encode` writes them (the request bytes behind its
    4-byte header)."""
    return CoapMessage.request(path).encode()[4:]


def request_bytes(
    options: bytes, payload: bytes, mid: int, token: bytes, confirmable: bool
) -> bytes:
    """``CoapMessage.request(path, payload, mid, token, confirmable).encode()``,
    built from the path's :func:`uri_path_options`.

    :param mid: 0..0xFFFF.
    :param token: up to 8 bytes.
    """
    head = _HEADER.pack((_CON if confirmable else _NON) | len(token), _GET, mid)
    if payload:
        return b"".join((head, token, options, b"\xff", payload))
    return head + token + options


def empty_ack_bytes(mid: int) -> bytes:
    """``make_ack().encode()`` of the message with ``mid``: the empty ACK."""
    return _HEADER.pack(_ACK, _EMPTY, mid)
