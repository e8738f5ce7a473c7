"""Tests for the BLE network interface (nimble_netif equivalent)."""

import pytest

from repro.ble.config import ConnParams
from repro.ble.conn import Connection, DisconnectReason
from repro.ieee802154 import CsmaNetwork
from repro.net.netif import coc_of
from repro.sim.units import MSEC, SEC
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram
from repro.testbed.topology import BleNetwork
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE
from tests.support import send_packet


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
    assert send_packet(net.nodes[1].netif, make_packet(1, 0), 0)
    net.run(3 * SEC)
    assert len(got) == 1
    assert net.nodes[1].netif.tx_packets == 1
    assert net.nodes[0].netif.rx_packets == 1


def test_send_without_link_counted():
    net = BleNetwork(2, seed=52, ppms=[0.0, 0.0])  # no edges configured
    assert not send_packet(net.nodes[1].netif, make_packet(1, 0), 0)
    assert net.nodes[1].netif.drops_no_link == 1


def test_pktbuf_charged_until_ll_ack():
    net = linked_net()
    netif = net.nodes[1].netif
    used_before = net.nodes[1].pktbuf.used
    assert send_packet(netif, make_packet(1, 0), 0)
    assert net.nodes[1].pktbuf.used > used_before  # held while in flight
    net.run(3 * SEC)
    assert net.nodes[1].pktbuf.used == used_before  # released on LL ack


def test_pktbuf_exhaustion_drops():
    net = BleNetwork(2, seed=53, ppms=[0.0, 0.0], pktbuf_capacity=128)
    net.apply_edges([(0, 1)])
    net.run(2 * SEC)
    netif = net.nodes[1].netif
    sent = sum(send_packet(netif, make_packet(1, 0), 0) for _ in range(5))
    assert sent < 5
    assert netif.drops_pktbuf > 0


def test_conn_close_releases_held_bytes():
    from repro.ble.conn import DisconnectReason

    net = linked_net()
    netif = net.nodes[1].netif
    # queue packets, then kill the link before they can be acknowledged
    for _ in range(3):
        assert send_packet(netif, make_packet(1, 0), 0)
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
    """An SDU that does not decode counts a decode error on either link,
    reaches no handler and counts no received packet; over BLE it is not
    recorded as ``sixlo.rx`` either."""
    garbage = b"\x00\x00garbage-not-iphc"
    ble = linked_net()
    csma = CsmaNetwork(2, seed=91)
    csma.apply_edges([(0, 1)])
    got = []
    for net in (ble, csma):
        net.nodes[0].udp.bind(5683, lambda *call: got.append(call))
    ring = RingBufferSink()
    TRACE.configure(sinks=[ring], layers=["sixlo"])
    try:
        coc_of(ble.nodes[1].controller.connection_to(0)).send(ble.nodes[1].controller, garbage)
        ble.run(3 * SEC)
        assert csma.nodes[1].netif.send(garbage, len(garbage), next_hop_ll=0)
        csma.run(1 * SEC)
    finally:
        TRACE.reset()
    for net in (ble, csma):
        receiver = net.nodes[0]
        assert receiver.netif.rx_decode_errors == 1
        assert receiver.netif.rx_packets == 0
        assert receiver.ip.delivered == 0
    assert got == []
    assert ring.records() == []  # no sixlo.rx


def test_compression_stats_accumulate():
    """The stack compresses a packet for its next hop's link: the netif
    queues and records (``sixlo.tx``) fewer bytes than the packet has."""
    net = linked_net()
    ring = RingBufferSink()
    TRACE.configure(sinks=[ring], layers=["sixlo"])
    try:
        assert net.nodes[1].ip.send(make_packet(1, 0))
    finally:
        TRACE.reset()
    (tx,) = [dict(r.fields) for r in ring.records()]
    assert tx["in_len"] == 100
    assert tx["out_len"] < 100  # IPHC saves a few bytes
    assert net.nodes[1].netif.tx_packets == 1


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
        sent = send_packet(net.nodes[src].netif, make_packet(src, 1 - src), 1 - src)
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
