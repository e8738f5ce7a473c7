"""IPv6 and UDP primitives with byte-exact wire formats.

The experiment traffic is CoAP over UDP over IPv6 (§4.3): a 39-byte CoAP
payload inside a 100-byte IP packet.  Real headers (and a real UDP checksum
over the IPv6 pseudo header) keep that arithmetic honest and give the IPHC
codec something genuine to compress.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional


class Ipv6Address:
    """A 16-byte IPv6 address with the helpers 6LoWPAN needs.

    Nodes in the simulated network derive their interface identifier (IID)
    from their link-layer address the same way RFC 7668 derives it from the
    Bluetooth device address, so IPHC can elide addresses entirely.
    """

    __slots__ = ("packed",)

    LINK_LOCAL_PREFIX = bytes.fromhex("fe80000000000000")
    #: A ULA prefix standing in for the routable prefix the border router
    #: would distribute in a real deployment.
    MESH_PREFIX = bytes.fromhex("fd0012bb00000000")

    def __init__(self, packed: bytes):
        if len(packed) != 16:
            raise ValueError(f"IPv6 address must be 16 bytes, got {len(packed)}")
        self.packed = bytes(packed)

    @classmethod
    def from_string(cls, text: str) -> "Ipv6Address":
        """Parse a (full or ``::``-compressed) textual address."""
        import ipaddress

        return cls(ipaddress.IPv6Address(text).packed)

    @classmethod
    def iid_from_node_id(cls, node_id: int) -> bytes:
        """The 64-bit IID a node derives from its link-layer address."""
        return struct.pack(">Q", 0x0200_0000_0000_0000 | node_id)

    @classmethod
    def link_local(cls, node_id: int) -> "Ipv6Address":
        """fe80::/64 address with the node's derived IID."""
        return cls(cls.LINK_LOCAL_PREFIX + cls.iid_from_node_id(node_id))

    @classmethod
    def mesh_local(cls, node_id: int) -> "Ipv6Address":
        """Routable (mesh-wide) address with the node's derived IID."""
        return cls(cls.MESH_PREFIX + cls.iid_from_node_id(node_id))

    @property
    def iid(self) -> bytes:
        """The 64-bit interface identifier."""
        return self.packed[8:]

    @property
    def prefix(self) -> bytes:
        """The 64-bit prefix."""
        return self.packed[:8]

    @property
    def is_link_local(self) -> bool:
        """Whether the address is in fe80::/64."""
        return self.packed[:8] == self.LINK_LOCAL_PREFIX

    @property
    def is_multicast(self) -> bool:
        """Whether the address is in ff00::/8."""
        return self.packed[0] == 0xFF

    def node_id(self) -> Optional[int]:
        """Recover the node id from a derived IID (None if foreign)."""
        return derived_node_id(self.packed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ipv6Address) and self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:
        import ipaddress

        return f"Ipv6Address({ipaddress.IPv6Address(self.packed)})"


def derived_node_id(packed: bytes) -> Optional[int]:
    """The node id behind a packed address with a derived IID (None if
    foreign)."""
    value = int.from_bytes(packed[8:], "big")
    if value & 0xFFFF_FFFF_0000_0000 == 0x0200_0000_0000_0000:
        return value & 0xFFFF_FFFF
    return None


#: IANA protocol number for UDP.
PROTO_UDP = 17
#: Default hop limit used by the stack.
DEFAULT_HOP_LIMIT = 64

_IPV6_HEADER = struct.Struct(">IHBB16s16s")
_UDP_HEADER = struct.Struct(">HHHH")


@dataclass
class Ipv6Packet:
    """An IPv6 datagram (fixed header + payload).

    Only the fields the simulation exercises are first-class; traffic class
    and flow label ride along for codec fidelity.
    """

    src: Ipv6Address
    dst: Ipv6Address
    payload: bytes = b""
    next_header: int = PROTO_UDP
    hop_limit: int = DEFAULT_HOP_LIMIT
    traffic_class: int = 0
    flow_label: int = 0

    def encode(self) -> bytes:
        """Serialize to the 40-byte header + payload wire format."""
        if not 0 <= self.hop_limit <= 255:
            raise ValueError(f"hop limit out of range: {self.hop_limit}")
        word0 = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        header = _IPV6_HEADER.pack(
            word0,
            len(self.payload),
            self.next_header,
            self.hop_limit,
            self.src.packed,
            self.dst.packed,
        )
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "Ipv6Packet":
        """Parse the wire format; raises ValueError on malformed input."""
        if len(data) < _IPV6_HEADER.size:
            raise ValueError("truncated IPv6 header")
        word0, plen, nh, hlim, src, dst = _IPV6_HEADER.unpack_from(data)
        if word0 >> 28 != 6:
            raise ValueError(f"not an IPv6 packet (version {word0 >> 28})")
        payload = data[_IPV6_HEADER.size : _IPV6_HEADER.size + plen]
        if len(payload) != plen:
            raise ValueError("truncated IPv6 payload")
        return cls(
            src=Ipv6Address(src),
            dst=Ipv6Address(dst),
            payload=payload,
            next_header=nh,
            hop_limit=hlim,
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
        )

    @property
    def total_len(self) -> int:
        """On-wire size in bytes."""
        return _IPV6_HEADER.size + len(self.payload)


def _checksum(data: bytes) -> int:
    """RFC 1071 one's-complement sum.

    Since 2**16 ≡ 1 (mod 0xFFFF), the data read as one big-endian integer
    is ≡ the sum of its 16-bit words, and the folded sum of a nonzero
    total is its residue in 1..0xFFFF: a residue of 0 folds to 0xFFFF.
    Only all-zero data folds to 0.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8  # pad the odd byte out to a word
    if not value:
        return 0xFFFF
    return 0xFFFF - (value % 0xFFFF or 0xFFFF)


def udp_checksum(src: Ipv6Address, dst: Ipv6Address, udp_bytes: bytes) -> int:
    """UDP checksum over the IPv6 pseudo header (RFC 2460 §8.1)."""
    pseudo = (
        src.packed
        + dst.packed
        + struct.pack(">IHBB", len(udp_bytes), 0, 0, PROTO_UDP)
    )
    value = _checksum(pseudo + udp_bytes)
    return value or 0xFFFF  # 0 is transmitted as all-ones for UDP


def udp_sum(addresses: bytes, words: int, data: bytes) -> int:
    """The pseudo header and a UDP datagram summed as :func:`_checksum`
    sums them, mod 0xFFFF (DESIGN §12, *The sum check*).

    Every 16-bit word sits at an even offset and 2**16 ≡ 1 (mod 0xFFFF),
    so each adds itself wherever it is: the addresses, the next header,
    the length twice (pseudo and UDP header), ``words`` and the padded
    ``data``.  With the ports as ``words`` the checksum is ``0xFFFF -``
    this sum, as :func:`udp_checksum` computes it; with the ports and a
    carried checksum in 1..0xFFFF the sum is 0 exactly when that checksum
    is right.

    :param addresses: the packed source and destination, 32 bytes.
    :param words: the sum of the UDP header's words other than its length.
    :param data: the UDP data.
    """
    value = int.from_bytes(addresses + data, "big")
    if len(data) % 2:
        value <<= 8  # pad the odd byte out to a word
    return (value + words + 2 * (_UDP_HEADER.size + len(data)) + PROTO_UDP) % 0xFFFF


@dataclass
class UdpDatagram:
    """A UDP datagram (8-byte header + payload)."""

    src_port: int
    dst_port: int
    payload: bytes = b""
    #: Filled in by :meth:`encode`; kept for decode round-trips.
    checksum: int = field(default=0, compare=False)

    def encode(self, src: Ipv6Address, dst: Ipv6Address) -> bytes:
        """Serialize with a valid checksum for the given address pair."""
        src_port, dst_port, payload = self.src_port, self.dst_port, self.payload
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        self.checksum = checksum = 0xFFFF - udp_sum(
            src.packed + dst.packed, src_port + dst_port, payload
        )
        return (
            _UDP_HEADER.pack(src_port, dst_port, _UDP_HEADER.size + len(payload), checksum)
            + payload
        )

    @classmethod
    def decode(
        cls,
        data: bytes,
        src: Optional[Ipv6Address] = None,
        dst: Optional[Ipv6Address] = None,
        verify: bool = True,
    ) -> "UdpDatagram":
        """Parse; verifies the checksum when both addresses are supplied."""
        if len(data) < _UDP_HEADER.size:
            raise ValueError("truncated UDP header")
        sport, dport, length, checksum = _UDP_HEADER.unpack_from(data)
        if length < _UDP_HEADER.size or length > len(data):
            raise ValueError("bad UDP length field")
        payload = data[_UDP_HEADER.size : length]
        if verify and src is not None and dst is not None and checksum != 0:
            if udp_sum(src.packed + dst.packed, sport + dport + checksum, payload):
                raise ValueError("UDP checksum mismatch")
        return cls(sport, dport, payload, checksum)

    @property
    def total_len(self) -> int:
        """On-wire size in bytes."""
        return _UDP_HEADER.size + len(self.payload)
