"""Tests for the 802.15.4 network interface."""

from repro.ieee802154 import CsmaNetwork
from repro.ieee802154.netif154 import FRAME_BUDGET
from repro.sim.units import SEC
from repro.sixlowpan.iphc import compress
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram
from tests.support import send_packet


def linked_net():
    net = CsmaNetwork(2, seed=91)
    net.apply_edges([(0, 1)])
    return net


def make_packet(src_id, dst_id, payload_len=60):
    src = Ipv6Address.mesh_local(src_id)
    dst = Ipv6Address.mesh_local(dst_id)
    dgram = UdpDatagram(5683, 5683, bytes(payload_len - 8))
    return Ipv6Packet(src=src, dst=dst, payload=dgram.encode(src, dst))


def test_send_and_receive():
    net = linked_net()
    got = []
    net.nodes[0].udp.bind(5683, lambda p, src, sport: got.append(p))
    assert send_packet(net.nodes[1].netif, make_packet(1, 0), 0)
    net.run(1 * SEC)
    assert len(got) == 1
    assert net.nodes[1].netif.tx_packets == 1
    assert net.nodes[0].netif.rx_packets == 1


def test_pktbuf_held_until_mac_completion():
    net = linked_net()
    netif = net.nodes[1].netif
    assert send_packet(netif, make_packet(1, 0), 0)
    assert net.nodes[1].pktbuf.used > 0
    net.run(1 * SEC)
    assert net.nodes[1].pktbuf.used == 0


def test_mac_drop_frees_pktbuf_and_counts():
    net = linked_net()
    netif = net.nodes[1].netif
    assert send_packet(netif, make_packet(1, 99), 99)  # nobody there
    net.run(2 * SEC)
    assert netif.drops_mac == 1
    assert net.nodes[1].pktbuf.used == 0


def test_oversize_packet_takes_fragmentation_path():
    """Datagrams above the frame budget go through RFC 4944 fragments."""
    net = linked_net()
    got = []
    net.nodes[0].udp.bind(5683, lambda p, src, sport: got.append(len(p)))
    big = make_packet(1, 0, payload_len=200)  # 240-byte IP packet
    assert send_packet(net.nodes[1].netif, big, 0)
    net.run(2 * SEC)
    assert got == [192]
    assert net.nodes[1].netif.tx_fragmented_datagrams == 1


def test_pktbuf_exhaustion():
    net = CsmaNetwork(2, seed=92, pktbuf_capacity=128)
    net.apply_edges([(0, 1)])
    netif = net.nodes[1].netif
    results = [send_packet(netif, make_packet(1, 0), 0) for _ in range(5)]
    assert not all(results)
    assert netif.drops_pktbuf > 0


def test_compression_shared_with_ble_path():
    """The same IPHC runs over 802.15.4 (fair comparison): the stack
    compresses for the link, and one frame carries those bytes."""
    net = linked_net()
    packet = make_packet(1, 0)
    wire = compress(packet, net.nodes[1].netif.iid, Ipv6Address.iid_from_node_id(0))
    assert net.nodes[1].ip.send(packet)
    assert net.nodes[1].pktbuf.used == len(wire) < packet.total_len
    assert net.nodes[1].netif.tx_packets == 1


def test_link_local_datagrams_cross_with_both_addresses_elided():
    """IPHC elides both link-local addresses against the link IIDs: a
    datagram that fits a frame goes as those bytes, and one over the frame
    budget crosses intact, decompressed with both IIDs to be fragmented."""
    net = linked_net()
    got = []
    net.nodes[0].udp.bind(5683, lambda *call: got.append(call))
    src, dst = Ipv6Address.link_local(1), Ipv6Address.link_local(0)
    small, large = bytes(range(20)), bytes(range(200))
    small_wire, large_wire = (
        compress(
            Ipv6Packet(src=src, dst=dst, payload=UdpDatagram(5683, 5683, data).encode(src, dst)),
            src.iid, dst.iid,
        )
        for data in (small, large)
    )
    assert small_wire[1] & 0b0011_0011 == 0b0011_0011  # SAM and DAM 11: both elided
    assert len(small_wire) <= FRAME_BUDGET < len(large_wire)
    assert net.nodes[1].udp.sendto(small, dst, 5683, 5683, src=src)
    assert net.nodes[1].pktbuf.used == len(small_wire)
    assert net.nodes[1].udp.sendto(large, dst, 5683, 5683, src=src)
    net.run(2 * SEC)
    assert got == [(small, src, 5683), (large, src, 5683)]
    assert net.nodes[1].netif.tx_fragmented_datagrams == 1
    assert net.nodes[0].netif.rx_decode_errors == 0
