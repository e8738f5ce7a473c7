"""Tests for the BLE network interface (nimble_netif equivalent)."""

import pytest

from repro.ble.config import ConnParams
from repro.ble.conn import Connection, DisconnectReason
from repro.net.netif import coc_of
from repro.sim.units import MSEC, SEC
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram
from repro.testbed.topology import BleNetwork


def linked_net():
    net = BleNetwork(2, seed=51, ppms=[0.0, 0.0])
    net.apply_edges([(0, 1)])
    net.run(2 * SEC)
    assert net.all_links_up()
    return net


def make_packet(src_id, dst_id, payload_len=60):
    src = Ipv6Address.mesh_local(src_id)
    dst = Ipv6Address.mesh_local(dst_id)
    dgram = UdpDatagram(5683, 5683, bytes(payload_len - 8))
    return Ipv6Packet(src=src, dst=dst, payload=dgram.encode(src, dst))


def test_send_compresses_and_delivers():
    net = linked_net()
    got = []
    net.nodes[0].udp.bind(5683, lambda p, src, sport: got.append(p))
    assert net.nodes[1].netif.send(make_packet(1, 0), next_hop_ll=0)
    net.run(3 * SEC)
    assert len(got) == 1
    assert net.nodes[1].netif.tx_packets == 1
    assert net.nodes[0].netif.rx_packets == 1


def test_send_without_link_counted():
    net = BleNetwork(2, seed=52, ppms=[0.0, 0.0])  # no edges configured
    assert not net.nodes[1].netif.send(make_packet(1, 0), next_hop_ll=0)
    assert net.nodes[1].netif.drops_no_link == 1


def test_pktbuf_charged_until_ll_ack():
    net = linked_net()
    netif = net.nodes[1].netif
    used_before = net.nodes[1].pktbuf.used
    assert netif.send(make_packet(1, 0), next_hop_ll=0)
    assert net.nodes[1].pktbuf.used > used_before  # held while in flight
    net.run(3 * SEC)
    assert net.nodes[1].pktbuf.used == used_before  # released on LL ack


def test_pktbuf_exhaustion_drops():
    net = BleNetwork(2, seed=53, ppms=[0.0, 0.0], pktbuf_capacity=128)
    net.apply_edges([(0, 1)])
    net.run(2 * SEC)
    netif = net.nodes[1].netif
    sent = sum(netif.send(make_packet(1, 0), next_hop_ll=0) for _ in range(5))
    assert sent < 5
    assert netif.drops_pktbuf > 0


def test_conn_close_releases_held_bytes():
    from repro.ble.conn import DisconnectReason

    net = linked_net()
    netif = net.nodes[1].netif
    # queue packets, then kill the link before they can be acknowledged
    for _ in range(3):
        assert netif.send(make_packet(1, 0), next_hop_ll=0)
    assert net.nodes[1].pktbuf.used > 0
    conn = net.nodes[1].controller.connection_to(0)
    conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
    assert net.nodes[1].pktbuf.used == 0


def test_neighbor_entries_follow_link_state():
    from repro.ble.conn import DisconnectReason

    net = linked_net()
    addr = Ipv6Address.mesh_local(0)
    assert net.nodes[1].ip.nib.resolve(addr) is not None
    conn = net.nodes[1].controller.connection_to(0)
    conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
    assert net.nodes[1].ip.nib.resolve(addr) is None
    # statconn re-establishes; the neighbour comes back
    net.run(net.sim.now + 2 * SEC)
    assert net.nodes[1].ip.nib.resolve(addr) is not None


def test_rx_decode_errors_counted():
    net = linked_net()
    conn = net.nodes[1].controller.connection_to(0)
    from repro.net.netif import coc_of

    coc = coc_of(conn)
    coc.send(net.nodes[1].controller, b"\x00\x00garbage-not-iphc")
    net.run(3 * SEC)
    assert net.nodes[0].netif.rx_decode_errors == 1


def test_compression_stats_accumulate():
    net = linked_net()
    netif = net.nodes[1].netif
    netif.send(make_packet(1, 0), next_hop_ll=0)
    assert netif.adaptation.packets_down == 1
    assert netif.adaptation.bytes_in == 100
    assert netif.adaptation.bytes_out < 100  # IPHC saves a few bytes


@pytest.mark.parametrize("closed_first", [0, 1])
@pytest.mark.parametrize("first_coordinator", [0, 1])
def test_send_takes_the_link_connection_to_finds(first_coordinator, closed_first):
    """Two connections join nodes 0 and 1, opened in either order: ``send``
    queues on the link ``controller.connection_to`` returns, before and
    after either closes, and counts a drop once both are gone."""
    net = BleNetwork(2, seed=54, ppms=[0.0, 0.0])
    first = net.nodes[first_coordinator].controller
    second = net.nodes[1 - first_coordinator].controller
    conns = [
        Connection(net.sim, coord, sub, ConnParams(interval_ns=interval * MSEC),
                   access_address=aa, anchor0_true=anchor * MSEC)
        for coord, sub, interval, aa, anchor in (
            (first, second, 75, 0x1234567, 1),
            (second, first, 80, 0x7654321, 2),
        )
    ]
    net.run(1 * SEC)

    def link_used(src):
        """The connections whose channel got the SDU ``src`` sends."""
        controller = net.nodes[src].controller
        ends = [coc_of(conn).end_of(controller) for conn in conns]
        queued = [len(end.tx_sdus) for end in ends]
        sent = net.nodes[src].netif.send(make_packet(src, 1 - src), next_hop_ll=1 - src)
        grown = [conn for conn, end, n in zip(conns, ends, queued) if len(end.tx_sdus) > n]
        return sent, grown

    closing = [conns[closed_first], conns[1 - closed_first]]
    # what connection_to finds after 0, 1 and 2 closes: the first opened
    found = [conns[0], conns[1 - closed_first], None]
    for step in range(3):
        for src in (0, 1):
            expected = net.nodes[src].controller.connection_to(1 - src)
            assert expected is found[step]
            sent, grown = link_used(src)
            assert (sent, grown) == ((False, []) if expected is None else (True, [expected]))
        if step < 2:
            closing[step].close(DisconnectReason.LOCAL_CLOSE)
    assert [node.netif.drops_no_link for node in net.nodes] == [1, 1]
