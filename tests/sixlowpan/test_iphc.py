"""Tests for the RFC 6282 IPHC codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sixlowpan.iphc import IphcError, compress, decompress
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram, PROTO_UDP


def udp_packet(src, dst, payload=b"data", sport=5683, dport=5683, **kwargs):
    dgram = UdpDatagram(sport, dport, payload)
    return Ipv6Packet(src=src, dst=dst, payload=dgram.encode(src, dst), **kwargs)


IID1 = Ipv6Address.iid_from_node_id(1)
IID2 = Ipv6Address.iid_from_node_id(2)


class TestRoundtrips:
    def test_link_local_fully_elided(self):
        """Link-local + LL-derived IIDs compress the addresses to nothing."""
        pkt = udp_packet(Ipv6Address.link_local(1), Ipv6Address.link_local(2))
        wire = compress(pkt, IID1, IID2)
        # 2 IPHC + 1 NHC + 4 ports + 2 checksum + payload: addresses gone
        assert len(wire) == 9 + len(pkt.payload) - 8
        assert decompress(wire, IID1, IID2) == pkt

    def test_mesh_addresses_ride_inline(self):
        pkt = udp_packet(Ipv6Address.mesh_local(1), Ipv6Address.mesh_local(2))
        wire = compress(pkt, IID1, IID2)
        assert decompress(wire, IID1, IID2) == pkt
        assert len(wire) > 32  # both 16-byte addresses are inline

    def test_paper_packet_size_arithmetic(self):
        """§4.3: 39-byte CoAP payload => 100-byte IP packet; compressed
        on-link size stays close (multi-hop addresses compress poorly)."""
        coap_ish = b"\x50\x01\x12\x34" + b"\xff" + b"p" * 47  # 52 bytes
        pkt = udp_packet(
            Ipv6Address.mesh_local(1), Ipv6Address.mesh_local(2), payload=coap_ish
        )
        assert pkt.total_len == 100
        wire = compress(pkt, IID1, IID2)
        # savings: 40-byte IPv6 header -> 2 + 32 inline addrs; UDP 8 -> 7
        assert len(wire) == 93

    def test_non_udp_next_header_inline(self):
        pkt = Ipv6Packet(
            src=Ipv6Address.link_local(1),
            dst=Ipv6Address.link_local(2),
            payload=b"icmpv6-ish",
            next_header=58,
        )
        wire = compress(pkt, IID1, IID2)
        assert decompress(wire, IID1, IID2) == pkt

    def test_multicast_ff02_1_compresses_to_one_byte(self):
        pkt = Ipv6Packet(
            src=Ipv6Address.link_local(1),
            dst=Ipv6Address.from_string("ff02::1"),
            payload=b"ra",
            next_header=58,
            hop_limit=255,
        )
        wire = compress(pkt, IID1, None)
        assert decompress(wire, IID1, None) == pkt
        # 2 iphc + 1 nh + 1 mcast byte + payload
        assert len(wire) == 4 + len(pkt.payload)

    def test_multicast_wider_scopes(self):
        for text in ("ff05::1:3", "ff0e::1234:5678:9abc", "ff02::2:ff00:1"):
            pkt = Ipv6Packet(
                src=Ipv6Address.link_local(1),
                dst=Ipv6Address.from_string(text),
                payload=b"x",
                next_header=58,
            )
            wire = compress(pkt, IID1, None)
            assert decompress(wire, IID1, None) == pkt, text

    def test_hop_limit_special_values_cost_nothing(self):
        sizes = {}
        for hlim in (1, 64, 255, 65):
            pkt = udp_packet(
                Ipv6Address.link_local(1),
                Ipv6Address.link_local(2),
                hop_limit=hlim,
            )
            sizes[hlim] = len(compress(pkt, IID1, IID2))
            assert decompress(compress(pkt, IID1, IID2), IID1, IID2) == pkt
        assert sizes[1] == sizes[64] == sizes[255] == sizes[65] - 1

    def test_traffic_class_and_flow_label_forms(self):
        cases = [
            (0, 0),        # TF=11, fully elided
            (5, 0),        # TF=10, one byte
            (0b11000000, 0x12345),  # TF=01, ECN only + flow label
            (0x2A, 0x00FFF),        # TF=00, everything inline
        ]
        for tc, fl in cases:
            pkt = udp_packet(
                Ipv6Address.link_local(1),
                Ipv6Address.link_local(2),
                traffic_class=tc,
                flow_label=fl,
            )
            wire = compress(pkt, IID1, IID2)
            assert decompress(wire, IID1, IID2) == pkt, (tc, fl)


class TestNhcUdpPorts:
    def mk(self, sport, dport):
        return udp_packet(
            Ipv6Address.link_local(1),
            Ipv6Address.link_local(2),
            sport=sport,
            dport=dport,
        )

    def test_both_ports_in_f0b_nibble_range(self):
        pkt = self.mk(0xF0B3, 0xF0BD)
        wire = compress(pkt, IID1, IID2)
        assert decompress(wire, IID1, IID2) == pkt
        # ports collapse into a single byte
        small = len(wire)
        assert small == len(compress(self.mk(5683, 5683), IID1, IID2)) - 3

    def test_dst_port_in_f0_range(self):
        pkt = self.mk(5683, 0xF042)
        assert decompress(compress(pkt, IID1, IID2), IID1, IID2) == pkt

    def test_src_port_in_f0_range(self):
        pkt = self.mk(0xF042, 5683)
        assert decompress(compress(pkt, IID1, IID2), IID1, IID2) == pkt

    def test_checksum_carried_verbatim(self):
        pkt = self.mk(5683, 5684)
        wire = compress(pkt, IID1, IID2)
        out = decompress(wire, IID1, IID2)
        assert out.payload == pkt.payload  # checksum bytes identical


class TestErrors:
    def test_empty_datagram(self):
        with pytest.raises(IphcError):
            decompress(b"")

    def test_wrong_dispatch(self):
        with pytest.raises(IphcError):
            decompress(b"\x00\x00\x00")

    def test_truncated(self):
        pkt = udp_packet(Ipv6Address.mesh_local(1), Ipv6Address.mesh_local(2))
        wire = compress(pkt, IID1, IID2)
        with pytest.raises(IphcError):
            decompress(wire[:10], IID1, IID2)

    def test_elided_address_without_iid(self):
        pkt = udp_packet(Ipv6Address.link_local(1), Ipv6Address.link_local(2))
        wire = compress(pkt, IID1, IID2)
        with pytest.raises(IphcError):
            decompress(wire, None, None)

    def test_uncompressed_dispatch_fallback(self):
        pkt = udp_packet(Ipv6Address.mesh_local(1), Ipv6Address.mesh_local(2))
        wire = bytes([0x41]) + pkt.encode()
        assert decompress(wire) == pkt

    @pytest.mark.parametrize("hop_limit", [-1, 256])
    def test_out_of_range_hop_limit_raises(self, hop_limit):
        pkt = udp_packet(Ipv6Address.link_local(1), Ipv6Address.link_local(2))
        pkt.hop_limit = hop_limit
        with pytest.raises(ValueError, match="hop limit out of range"):
            compress(pkt, IID1, IID2)


@st.composite
def arbitrary_packets(draw):
    def addr(kind):
        if kind == "ll-derived":
            return Ipv6Address.link_local(draw(st.integers(1, 2)))
        if kind == "ll-random":
            return Ipv6Address(
                Ipv6Address.LINK_LOCAL_PREFIX + draw(st.binary(min_size=8, max_size=8))
            )
        if kind == "mesh":
            return Ipv6Address.mesh_local(draw(st.integers(0, 2**31)))
        return Ipv6Address(b"\xff" + draw(st.binary(min_size=15, max_size=15)))

    kinds = st.sampled_from(["ll-derived", "ll-random", "mesh"])
    src = addr(draw(kinds))
    dst = addr(draw(st.sampled_from(["ll-derived", "ll-random", "mesh", "mcast"])))
    use_udp = draw(st.booleans())
    if use_udp:
        dgram = UdpDatagram(
            draw(st.integers(0, 65535)),
            draw(st.integers(0, 65535)),
            draw(st.binary(max_size=200)),
        )
        payload = dgram.encode(src, dst)
        nh = PROTO_UDP
    else:
        payload = draw(st.binary(max_size=200))
        nh = draw(st.integers(0, 255).filter(lambda v: v != PROTO_UDP))
    return Ipv6Packet(
        src=src,
        dst=dst,
        payload=payload,
        next_header=nh,
        hop_limit=draw(st.integers(0, 255)),
        traffic_class=draw(st.integers(0, 255)),
        flow_label=draw(st.integers(0, 0xFFFFF)),
    )


@given(pkt=arbitrary_packets())
@settings(max_examples=300, deadline=None)
def test_compress_decompress_identity(pkt):
    """Property: IPHC round-trips any packet our stack can emit."""
    wire = compress(pkt, IID1, IID2)
    assert decompress(wire, IID1, IID2) == pkt


@given(pkt=arbitrary_packets())
@settings(max_examples=100, deadline=None)
def test_compression_never_inflates_much(pkt):
    """IPHC output is at most 1 byte larger than the raw datagram."""
    wire = compress(pkt, IID1, IID2)
    assert len(wire) <= pkt.total_len + 1
