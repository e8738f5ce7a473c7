"""Local delivery on the wire: UDP's wire entry against the decode path.

A datagram ``iphc.wire_fields`` accepts and addressed to the node reaches
UDP as it came (``Ipv6Stack.deliver_wire`` -> ``UdpStack._on_wire``,
DESIGN §12); the decode path decompresses it and hands the packet to
``Ipv6Stack.receive``.  For the same datagrams both must make the same
handler calls, counts and trace records: right and wrong checksums, a
checksum of 0, and bound and unbound ports.  A UDP registration without a
wire entry, and none at all, are served by the decode path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ip import Ipv6Stack
from repro.net.udp import UdpStack
from repro.sixlowpan import iphc
from repro.sixlowpan.iphc import compress, decompress, wire_fields
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP, UdpDatagram
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE
from tests.integration.test_wire_path_differential import counters
from tests.sixlowpan.test_wire_path import PORTS

NODE = 1
#: One bound port of each NHC-UDP class: inline, 8-bit and 4-bit.
BOUND = (5683, 0xF012, 0xF0B3)

ROUTABLE = st.one_of(
    st.integers(2, 2**32 - 1).map(Ipv6Address.mesh_local),
    st.binary(min_size=16, max_size=16)
    .filter(lambda b: b[0] != 0xFF and b[:8] != Ipv6Address.LINK_LOCAL_PREFIX)
    .map(Ipv6Address),
)


@st.composite
def local_datagrams(draw):
    """Compressed UDP datagrams for the node that ``wire_fields`` accepts:
    any routable source and hop limit, ports of every NHC class (bound or
    not), data of 0-300 B, and a checksum that is right, 0, 0xFFFF or
    anything, or a corrupted byte after it."""
    src, dst = draw(ROUTABLE), Ipv6Address.mesh_local(NODE)
    dst_port = draw(st.one_of(st.sampled_from(BOUND), PORTS))
    udp = bytearray(
        UdpDatagram(draw(PORTS), dst_port, draw(st.binary(max_size=300))).encode(src, dst)
    )
    checksum = draw(st.one_of(st.none(), st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF)))
    if checksum is not None:
        udp[6:8] = checksum.to_bytes(2, "big")
    if len(udp) > 8 and draw(st.booleans()):
        udp[draw(st.integers(8, len(udp) - 1))] = draw(st.integers(0, 255))
    packet = Ipv6Packet(src, dst, bytes(udp), hop_limit=draw(st.integers(0, 255)))
    wire = compress(packet, draw(st.binary(min_size=8, max_size=8)), None)
    assert wire_fields(wire)[0] == dst.packed
    return wire


class Side:
    """One node's IP and UDP stacks, with a recording handler per bound
    port."""

    def __init__(self, register=True):
        self.ip = Ipv6Stack(NODE)
        self.calls = []
        self.udp = UdpStack(self.ip) if register else None
        if register:
            for port in BOUND:
                self.udp.bind(port, lambda *call, port=port: self.calls.append((port, call)))

    def counts(self):
        return counters(self.ip), counters(self.udp) if self.udp else None


def traced(feed, wires):
    """The records ``feed`` makes of each datagram, in order."""
    ring = RingBufferSink()
    TRACE.configure(sinks=[ring])
    try:
        for wire in wires:
            feed(wire)
    finally:
        TRACE.reset()
    return [(r.layer, r.kind, r.fields) for r in ring.records()]


def refuse(*args):
    raise AssertionError("a datagram for the wire entry was decompressed")


@given(wires=st.lists(local_datagrams(), min_size=1, max_size=6))
@settings(max_examples=400, deadline=None)
def test_wire_entry_matches_the_decode_path(wires):
    wire_side, decode_side = Side(), Side()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iphc, "decompress", refuse)
        wire_records = traced(wire_side.ip.deliver_wire, wires)
    decode_records = traced(lambda w: decode_side.ip.receive(decompress(w)), wires)
    assert wire_side.calls == decode_side.calls
    assert wire_side.counts() == decode_side.counts()
    assert wire_records == decode_records


def test_hand_picked_checksums_and_ports():
    """A right, a zero and a wrong checksum, and a bound and an unbound
    port of two NHC classes."""
    src, dst = Ipv6Address.mesh_local(9), Ipv6Address.mesh_local(NODE)

    def wire(dst_port, checksum=None, data=b"data"):
        udp = bytearray(UdpDatagram(7, dst_port, data).encode(src, dst))
        if checksum is not None:
            udp[6:8] = checksum.to_bytes(2, "big")
        return compress(Ipv6Packet(src, dst, bytes(udp)))

    good = UdpDatagram(7, 5683, b"data").encode(src, dst)
    wrong = (int.from_bytes(good[6:8], "big") % 0xFFFF) + 1
    wires = [wire(5683), wire(5683, 0), wire(5683, wrong), wire(0xF0B3), wire(4242)]
    side = Side()
    for w in wires:
        side.ip.deliver_wire(w)
    assert [call[0] for call in side.calls] == [5683, 5683, 0xF0B3]
    assert side.calls[0][1] == (b"data", src, 7)
    assert (side.udp.rx_datagrams, side.udp.rx_checksum_errors, side.udp.rx_no_port) == (3, 1, 1)
    assert side.ip.delivered == 5


def test_a_packet_only_udp_handler_still_receives():
    """A bare ``PROTO_UDP`` registration has no wire entry: the datagram is
    decompressed and the handler gets the packet."""
    side = Side(register=False)
    got = []
    side.ip.register_protocol(PROTO_UDP, got.append)
    src, dst = Ipv6Address.mesh_local(9), side.ip.mesh_local
    packet = Ipv6Packet(src, dst, UdpDatagram(7, 5683, b"x").encode(src, dst), hop_limit=63)
    side.ip.deliver_wire(compress(packet))
    assert got == [packet]
    assert side.ip.delivered == 1


def test_no_udp_registration_drops_like_the_decode_path():
    src, dst = Ipv6Address.mesh_local(9), Ipv6Address.mesh_local(NODE)
    wire = compress(Ipv6Packet(src, dst, UdpDatagram(7, 5683, b"x").encode(src, dst)))
    wire_side, decode_side = Side(register=False), Side(register=False)
    wire_records = traced(wire_side.ip.deliver_wire, [wire])
    decode_records = traced(lambda w: decode_side.ip.receive(decompress(w)), [wire])
    assert wire_side.ip.drops_no_handler == decode_side.ip.drops_no_handler == 1
    assert wire_records == decode_records
    assert [(layer, kind) for layer, kind, _ in wire_records] == [("ip", "drop")]
