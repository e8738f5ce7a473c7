"""The wire path: a router relays a compressed datagram as it came.

``iphc.wire_fields`` accepts a datagram only when its bytes are exactly
what ``compress`` emits for the decoded packet on any link, and
``iphc.with_hop_limit`` rewrites its hop limit.  So relaying must give the
bytes the decode path gives (``decompress``, decrement, ``compress`` for
the next link), whatever the IIDs of either link.  Every other datagram
must be declined and decode as before.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.l2cap.coc import _CocEnd
from repro.net.ip import Ipv6Stack
from repro.sim.units import SEC
from repro.sixlowpan import iphc
from repro.sixlowpan.iphc import (
    IphcError,
    compress,
    decompress,
    wire_fields,
    with_hop_limit,
)
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP, UdpDatagram
from repro.testbed.topology import BleNetwork
from tests.sixlowpan.test_iphc import arbitrary_packets
from tests.sixlowpan.test_property_roundtrip import _packet
from tests.support import send_packet


def relayable(packet):
    """Whether ``compress`` emits a link-independent datagram for
    ``packet`` that a router may relay (the oracle for ``wire_fields``)."""
    return (
        packet.traffic_class == 0
        and packet.flow_label == 0
        and packet.next_header == PROTO_UDP
        and len(packet.payload) >= 8
        and not packet.src.is_link_local
        and not packet.dst.is_link_local
        and not packet.dst.is_multicast
    )


def link_iids(packet):
    """Any IID a link layer could hand the codec, the packet's own too."""
    return st.one_of(
        st.none(),
        st.just(packet.src.iid),
        st.just(packet.dst.iid),
        st.binary(min_size=8, max_size=8),
    )


def assert_relay_exact(wire, packet, data):
    """``wire`` = ``compress(packet, ...)``: the wire path accepts it iff
    the packet is relayable, and then relays what the decode path sends."""
    fields = wire_fields(wire)
    assert (fields is not None) == relayable(packet), wire.hex()
    if fields is None:
        return
    assert fields == (packet.dst.packed, packet.hop_limit, packet.total_len)
    next_src, next_dst = data.draw(link_iids(packet)), data.draw(link_iids(packet))
    assert compress(packet, next_src, next_dst) == wire
    if packet.hop_limit > 1:
        hop_limit = packet.hop_limit - 1
        forwarded = dataclasses.replace(packet, hop_limit=hop_limit)
        assert with_hop_limit(wire, hop_limit) == compress(forwarded, next_src, next_dst)


# -- relaying equals decompress, decrement, compress ------------------------------


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_relay_equals_recompression_over_the_round_trip_space(seed, data):
    rng = random.Random(seed)
    for _ in range(20):
        packet, src_iid, dst_iid = _packet(rng)
        # the packet as drawn, and with its traffic class and flow label off
        for candidate in (packet, dataclasses.replace(packet, traffic_class=0, flow_label=0)):
            iids = data.draw(link_iids(candidate)), data.draw(link_iids(candidate))
            assert_relay_exact(compress(candidate, *iids), candidate, data)


@given(packet=arbitrary_packets(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_relay_equals_recompression_on_arbitrary_packets(packet, data):
    for candidate in (packet, dataclasses.replace(packet, traffic_class=0, flow_label=0)):
        iids = data.draw(link_iids(candidate)), data.draw(link_iids(candidate))
        assert_relay_exact(compress(candidate, *iids), candidate, data)


ADDRESSES = st.one_of(
    st.integers(0, 2**32 - 1).map(Ipv6Address.mesh_local),
    st.binary(min_size=16, max_size=16).map(Ipv6Address),
    st.binary(min_size=8, max_size=8).map(
        lambda iid: Ipv6Address(Ipv6Address.LINK_LOCAL_PREFIX + iid)
    ),
    st.binary(min_size=15, max_size=15).map(lambda rest: Ipv6Address(b"\xff" + rest)),
)
#: Ports of each NHC-UDP class: 4-bit (0xF0Bx), 8-bit (0xF0xx), inline.
PORTS = st.one_of(
    st.integers(0xF0B0, 0xF0BF), st.integers(0xF000, 0xF0FF), st.integers(0, 0xFFFF)
)


@st.composite
def forwarded_packets(draw):
    """Packets near the shape a router forwards: any addresses, mostly UDP
    with TF elided, every port class and hop limit."""
    src, dst = draw(ADDRESSES), draw(ADDRESSES)
    udp = UdpDatagram(draw(PORTS), draw(PORTS), draw(st.binary(max_size=120)))
    payload = udp.encode(src, dst)
    next_header = PROTO_UDP
    shape = draw(st.integers(0, 9))
    if shape == 0:
        next_header = 58  # another protocol over the same bytes
    elif shape == 1:
        payload = payload[: draw(st.integers(0, 7))]  # UDP too short for NHC
    tf = draw(st.sampled_from([(0, 0)] * 8 + [(4, 0), (0, 1)]))
    return Ipv6Packet(
        src=src,
        dst=dst,
        payload=payload,
        next_header=next_header,
        hop_limit=draw(st.integers(0, 255)),
        traffic_class=tf[0],
        flow_label=tf[1],
    )


@given(packet=forwarded_packets(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_relay_equals_recompression_near_the_forwarded_shape(packet, data):
    iids = data.draw(link_iids(packet)), data.draw(link_iids(packet))
    assert_relay_exact(compress(packet, *iids), packet, data)


@st.composite
def near_wire_datagrams(draw):
    """Bytes laid out like a relayable datagram, any field free to be off."""

    def often(usual, other):
        """``usual`` three times in four, else ``other``."""
        return draw(st.sampled_from([usual] * 3 + [other]))

    byte0 = draw(often(st.integers(0x7C, 0x7F), st.integers(0, 255)))
    byte1 = draw(often(st.just(0), st.integers(0, 255)))
    hop_limit = bytes([draw(st.integers(0, 255))]) if byte0 & 0b11 == 0 else b""
    addresses = b""
    for _ in range(2):
        prefix = often(b"", draw(st.sampled_from([b"\xfe\x80" + bytes(6), b"\xff"])))
        addresses += prefix + draw(
            st.binary(min_size=16 - len(prefix), max_size=16 - len(prefix))
        )
    nhc = draw(often(st.integers(0xF0, 0xF3), st.integers(0, 255)))
    port_bytes = st.sampled_from([0xF0, 0xB1, 0xB7, 0x16, 0x33, 0x00])
    ports = bytes(draw(st.lists(port_bytes, min_size=4, max_size=4)))
    tail = draw(st.binary(max_size=40))
    datagram = bytes([byte0, byte1]) + hop_limit + addresses + bytes([nhc]) + ports + tail
    return datagram[: often(len(datagram), draw(st.integers(0, len(datagram))))]


@given(wire=near_wire_datagrams(), data=st.data())
@settings(max_examples=500, deadline=None)
def test_accepted_bytes_are_what_compress_emits(wire, data):
    """Whatever bytes ``wire_fields`` accepts decode to a relayable packet
    that ``compress`` turns back into them (up to the hop limit's coding,
    which the relay re-codes anyway)."""
    fields = wire_fields(wire)
    if fields is None:
        return
    iid = data.draw(st.none() | st.binary(min_size=8, max_size=8))
    packet = decompress(wire, iid, iid)
    assert relayable(packet)
    assert fields == (packet.dst.packed, packet.hop_limit, packet.total_len)
    assert compress(packet, iid, None) == with_hop_limit(wire, packet.hop_limit)
    assert_relay_exact(with_hop_limit(wire, packet.hop_limit), packet, data)


# -- origination: the builder is compress ----------------------------------------

#: Hop limits on both sides of each HLIM code, and the ends of the byte.
HOP_LIMITS = (0, 1, 2, 63, 64, 65, 254, 255)


def assert_built_exact(src, dst, hop_limit, sport, dport, checksum, data, iids):
    """``compress_udp`` of the fields is ``compress`` of their packet for
    every pair of link IIDs, and None exactly where ``wire_fields``
    declines what ``compress`` emits."""
    udp = bytearray(UdpDatagram(sport, dport, data).encode(src, dst))
    if checksum is not None:
        udp[6:8] = checksum.to_bytes(2, "big")
    packet = Ipv6Packet(src, dst, bytes(udp), hop_limit=hop_limit)
    built = iphc.compress_udp(
        src.packed + dst.packed, hop_limit, sport, dport, int.from_bytes(udp[6:8], "big"), data
    )
    for a, b in iids:
        wire = compress(packet, a, b)
        if built is None:
            assert wire_fields(wire) is None
        else:
            assert built == wire
    if built is not None:
        assert wire_fields(built) == (dst.packed, hop_limit, 48 + len(data))
    return built


@given(
    src=ADDRESSES,
    dst=ADDRESSES,
    hop_limit=st.one_of(st.sampled_from(HOP_LIMITS), st.integers(0, 255)),
    sport=PORTS,
    dport=PORTS,
    checksum=st.one_of(st.none(), st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF)),
    data=st.binary(max_size=300),
    iids=st.lists(
        st.tuples(*[st.none() | st.binary(min_size=8, max_size=8)] * 2), min_size=1, max_size=3
    ),
)
@settings(max_examples=500, deadline=None)
def test_built_origination_is_what_compress_emits(
    src, dst, hop_limit, sport, dport, checksum, data, iids
):
    iids += [(src.iid, dst.iid)]  # the IIDs that elide link-local addresses
    assert_built_exact(src, dst, hop_limit, sport, dport, checksum, data, iids)


def test_built_origination_over_port_classes_hop_limits_and_addresses():
    """Every NHC port mode, every hop limit near an HLIM code, data of odd
    and even lengths, and mesh, link-local and multicast addresses."""
    mesh, other = Ipv6Address.mesh_local(3), Ipv6Address.mesh_local(0)
    port_modes = {
        (5683, 5683): 0b00, (5683, 0xF012): 0b01, (0xF012, 5683): 0b10, (0xF0B1, 0xF0B2): 0b11
    }
    pairs = [(mesh, other), (LINK_LOCAL, other), (mesh, LINK_LOCAL), (mesh, ALL_NODES)]
    cases = itertools.product(port_modes, HOP_LIMITS, (0, 1, 38, 39, 300), pairs)
    for (sport, dport), hop_limit, size, (src, dst) in cases:
        data = bytes(i & 0xFF for i in range(size))
        iids = [(None, None), (src.iid, dst.iid)]
        wire = assert_built_exact(src, dst, hop_limit, sport, dport, None, data, iids)
        assert (wire is None) == (LINK_LOCAL in (src, dst) or dst == ALL_NODES)
        if wire is not None:
            nhc = 34 if hop_limit in (1, 64, 255) else 35
            assert wire[nhc] & 0b11 == port_modes[sport, dport]


# -- the hop limit's coding -------------------------------------------------------


def forwarded(hop_limit=64, sport=5683, dport=5683, **kwargs):
    """A packet of the paper's traffic in transit: mesh addresses inline."""
    src, dst = Ipv6Address.mesh_local(3), Ipv6Address.mesh_local(0)
    payload = UdpDatagram(sport, dport, bytes(range(39))).encode(src, dst)
    return Ipv6Packet(src=src, dst=dst, payload=payload, hop_limit=hop_limit, **kwargs)


@pytest.mark.parametrize(
    "hop_limit, growth",
    [(2, -1), (63, 0), (64, 1), (65, -1), (254, 0), (255, 1)],
)
def test_hop_limit_is_recoded_across_its_codes(hop_limit, growth):
    """64, 255 and 1 have HLIM codes; every other value rides inline."""
    packet = forwarded(hop_limit)
    wire = compress(packet)
    relayed = with_hop_limit(wire, hop_limit - 1)
    assert relayed == compress(dataclasses.replace(packet, hop_limit=hop_limit - 1))
    assert len(relayed) - len(wire) == growth
    assert wire_fields(relayed) == (
        packet.dst.packed, hop_limit - 1, packet.total_len
    )


# -- declined datagrams decode as before ------------------------------------------


def with_port_mode(packet, mode):
    """``compress(packet)`` (hop limit coded) with its NHC-UDP ports sent in
    port ``mode``, whichever mode ``compress`` would pick."""
    udp = packet.payload
    sport, dport = udp[0:2], udp[2:4]
    inline = {
        0b00: sport + dport,
        0b01: sport + dport[1:],
        0b10: sport[1:] + dport,
        0b11: bytes([(sport[1] & 0xF) << 4 | dport[1] & 0xF]),
    }[mode]
    return compress(packet)[:34] + bytes([iphc.NHC_UDP_PATTERN | mode]) + inline + udp[6:]


def with_address(packet, offset, address):
    """``compress(packet)`` (hop limit coded) with the inline address at
    ``offset`` (2 source, 18 destination) replaced."""
    wire = compress(packet)
    return wire[:offset] + address.packed + wire[offset + 16 :]


LINK_LOCAL = Ipv6Address.link_local(5)
ALL_NODES = Ipv6Address.from_string("ff02::1")
BASE = forwarded()
FOUR_BIT = forwarded(sport=0xF0B1, dport=0xF0B2)
EIGHT_BIT_BOTH = forwarded(sport=0xF012, dport=0xF034)
EIGHT_BIT_SRC = forwarded(sport=0xF012)


def _udp_inline(packet):
    """The uncompressed-NH form: next header 17 inline, UDP header raw."""
    wire = compress(packet)
    return bytes([wire[0] & ~0b100 & 0xFF, wire[1], PROTO_UDP]) + wire[2:34] + packet.payload


def _checksum_elided(packet):
    """NHC-UDP with C = 1: the receiver recomputes the checksum."""
    wire = compress(packet)  # ports 5683/5683: mode 00, 4 inline bytes
    return wire[:34] + bytes([wire[34] | 0b100]) + wire[35:39] + wire[41:]


DECLINED = {
    "tf-inline": lambda: (
        compress(forwarded(traffic_class=0x20)), forwarded(traffic_class=0x20)
    ),
    "flow-label": lambda: (compress(forwarded(flow_label=7)), forwarded(flow_label=7)),
    "four-bit-ports-in-mode-00": lambda: (with_port_mode(FOUR_BIT, 0b00), FOUR_BIT),
    "four-bit-ports-in-mode-01": lambda: (with_port_mode(FOUR_BIT, 0b01), FOUR_BIT),
    "four-bit-ports-in-mode-10": lambda: (with_port_mode(FOUR_BIT, 0b10), FOUR_BIT),
    "eight-bit-ports-in-mode-10": lambda: (
        with_port_mode(EIGHT_BIT_BOTH, 0b10), EIGHT_BIT_BOTH
    ),
    "eight-bit-ports-in-mode-00": lambda: (
        with_port_mode(EIGHT_BIT_BOTH, 0b00), EIGHT_BIT_BOTH
    ),
    "eight-bit-source-in-mode-00": lambda: (
        with_port_mode(EIGHT_BIT_SRC, 0b00), EIGHT_BIT_SRC
    ),
    "link-local-source-inline": lambda: (
        with_address(BASE, 2, LINK_LOCAL), dataclasses.replace(BASE, src=LINK_LOCAL)
    ),
    "link-local-destination-inline": lambda: (
        with_address(BASE, 18, LINK_LOCAL), dataclasses.replace(BASE, dst=LINK_LOCAL)
    ),
    "multicast-destination-inline": lambda: (
        with_address(BASE, 18, ALL_NODES), dataclasses.replace(BASE, dst=ALL_NODES)
    ),
    "uncompressed-dispatch": lambda: (
        bytes([iphc.UNCOMPRESSED_IPV6_DISPATCH]) + BASE.encode(), BASE
    ),
    "next-header-inline": lambda: (_udp_inline(BASE), BASE),
    "checksum-elided": lambda: (_checksum_elided(BASE), BASE),
    "context-based": lambda: (
        compress(BASE)[:1] + bytes([0x80]) + compress(BASE)[2:], IphcError
    ),
}


@pytest.mark.parametrize("case", sorted(DECLINED))
def test_declined_datagrams_decode_as_before(case):
    wire, expected = DECLINED[case]()
    assert wire_fields(wire) is None
    if expected is IphcError:
        with pytest.raises(IphcError):
            decompress(wire)
        return
    assert decompress(wire) == expected


@pytest.mark.parametrize(
    "packet", [BASE, forwarded(100), FOUR_BIT, EIGHT_BIT_BOTH, EIGHT_BIT_SRC],
    ids=["mode-00", "inline-hop-limit", "mode-11", "mode-01", "mode-10"],
)
def test_every_truncation_is_declined_or_exact(packet):
    """A cut into a field ``decompress`` reads is declined (and fails to
    decode); a cut into the UDP data leaves a shorter relayable datagram."""
    wire = compress(packet)
    header = len(wire) - (len(packet.payload) - 8)
    for size in range(len(wire)):
        cut = wire[:size]
        fields = wire_fields(cut)
        if size < header:
            assert fields is None, size
            with pytest.raises(IphcError):
                decompress(cut)
        else:
            shorter = decompress(cut)
            assert fields == (packet.dst.packed, packet.hop_limit, shorter.total_len)
            assert compress(shorter) == cut


# -- at a router ------------------------------------------------------------------


def line3():
    """Nodes 0 - 1 - 2 with their links up; node 1 routes between them."""
    net = BleNetwork(3, seed=55, ppms=[0.0, 0.0, 0.0])
    net.apply_edges([(0, 1), (1, 2)])
    net.run(2 * SEC)
    assert net.all_links_up()
    return net


def spy(monkeypatch, cls, name):
    """Record the arguments of every call to ``cls.name``."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append((self, args))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_hop_limit_one_is_dropped_before_l2cap(monkeypatch):
    net = line3()
    relays = spy(monkeypatch, Ipv6Stack, "relay")
    sdus = spy(monkeypatch, _CocEnd, "send_sdu")
    router = net.nodes[1]
    assert send_packet(net.nodes[2].netif, forwarded(hop_limit=1), 1)
    net.run(net.sim.now + 2 * SEC)
    assert [self for self, _ in relays] == [router.ip]  # the wire path took it
    assert router.ip.drops_hop_limit == 1
    assert router.ip.forwarded == 0
    assert router.netif.tx_packets == 0
    assert [end.ll_end.controller for end, _ in sdus] == [net.nodes[2].controller]
