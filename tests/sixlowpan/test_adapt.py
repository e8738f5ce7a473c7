"""Tests for the RFC 7668 adaptation glue."""

import pytest

from repro.sixlowpan import BleAdaptation
from repro.sixlowpan.iphc import IphcError
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram


def make_packet():
    src, dst = Ipv6Address.link_local(1), Ipv6Address.link_local(2)
    dgram = UdpDatagram(5683, 5683, b"q" * 39)
    return Ipv6Packet(src=src, dst=dst, payload=dgram.encode(src, dst))


def test_roundtrip_with_iphc():
    adapt = BleAdaptation()
    pkt = make_packet()
    wire = adapt.to_link(pkt, BleAdaptation.iid_for_node(1), BleAdaptation.iid_for_node(2))
    back = adapt.from_link(wire, BleAdaptation.iid_for_node(1), BleAdaptation.iid_for_node(2))
    assert back == pkt


def test_roundtrip_without_iphc():
    adapt = BleAdaptation(use_iphc=False)
    pkt = make_packet()
    wire = adapt.to_link(pkt)
    assert wire[0] == 0x41
    assert adapt.from_link(wire) == pkt


def test_compression_ratio_tracking():
    adapt = BleAdaptation()
    pkt = make_packet()
    adapt.to_link(pkt, BleAdaptation.iid_for_node(1), BleAdaptation.iid_for_node(2))
    assert adapt.compression_ratio < 1.0  # link-local traffic compresses well
    assert adapt.packets_down == 1


def test_uncompressed_mode_ratio_above_one():
    adapt = BleAdaptation(use_iphc=False)
    adapt.to_link(make_packet())
    assert adapt.compression_ratio > 1.0  # dispatch byte adds overhead


def test_ratio_defaults_to_one():
    assert BleAdaptation().compression_ratio == 1.0


def test_malformed_input_raises():
    adapt = BleAdaptation()
    with pytest.raises(IphcError):
        adapt.from_link(b"\x00garbage")


@pytest.mark.parametrize("use_iphc", [True, False])
@pytest.mark.parametrize("hop_limit", [-1, 256])
def test_out_of_range_hop_limit_raises(use_iphc, hop_limit):
    packet = make_packet()
    packet.hop_limit = hop_limit
    with pytest.raises(ValueError, match="hop limit out of range"):
        BleAdaptation(use_iphc=use_iphc).to_link(packet)
