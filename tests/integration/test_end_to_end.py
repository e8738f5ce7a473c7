"""End-to-end integration: CoAP over UDP over IPv6 over L2CAP over BLE.

Small networks, short runs -- these validate that the whole Figure 5 stack
composes, forwards multi-hop, and recovers from link loss.  The paper-scale
experiments live in ``benchmarks/``.
"""

from repro.ble.conn import DisconnectReason
from repro.sim.units import MSEC, SEC
from repro.testbed.topology import BleNetwork, line_topology_edges
from repro.testbed.traffic import Consumer, Producer, TrafficConfig


def linear_net(n, seed=4, **kwargs):
    net = BleNetwork(n, seed=seed, ppms=[0.0] * n, **kwargs)
    net.apply_edges(line_topology_edges(n))
    return net


def test_single_hop_request_response():
    net = linear_net(2)
    consumer = Consumer(net.nodes[0])
    producer = Producer(net.nodes[1], net.nodes[0].mesh_local)
    producer.start()
    net.run(10 * SEC)
    assert producer.requests_sent >= 8
    assert producer.pdr == 1.0
    assert consumer.total_requests == producer.requests_sent


def test_three_hop_forwarding():
    net = linear_net(4)
    consumer = Consumer(net.nodes[0])
    producer = Producer(net.nodes[3], net.nodes[0].mesh_local)
    producer.start()
    net.run(15 * SEC)
    assert producer.pdr == 1.0
    assert consumer.total_requests == producer.requests_sent
    # intermediate nodes actually forwarded (request and response legs)
    assert net.nodes[1].ip.forwarded >= 2 * producer.requests_sent
    assert net.nodes[2].ip.forwarded >= 2 * producer.requests_sent


def test_rtt_scales_with_hops_and_interval():
    """§5.1: RTT is dominated by per-hop connection-interval quantization."""
    rtts = {}
    for n in (2, 5):
        net = linear_net(n)
        Consumer(net.nodes[0])
        producer = Producer(net.nodes[n - 1], net.nodes[0].mesh_local)
        producer.start(delay_ns=2 * SEC)  # let links establish first
        net.run(40 * SEC)
        assert producer.pdr == 1.0
        samples = [rtt for _, rtt in producer.rtt_samples]
        rtts[n] = sum(samples) / len(samples)
    # 1 hop vs 4 hops: the RTT must grow roughly with the hop count
    assert rtts[5] > 2.5 * rtts[2]
    # and a single hop's RTT stays below ~2 connection intervals (75 ms)
    assert rtts[2] < 2 * 75 * MSEC


def test_multiple_producers_tree():
    from repro.testbed.topology import tree_topology_edges

    net = BleNetwork(15, seed=9, ppms=[0.0] * 15)
    net.apply_edges(tree_topology_edges())
    consumer = Consumer(net.nodes[0])
    producers = [
        Producer(net.nodes[i], net.nodes[0].mesh_local) for i in range(1, 15)
    ]
    for producer in producers:
        producer.start(delay_ns=3 * SEC)
    net.run(20 * SEC)
    assert net.all_links_up()
    for producer in producers:
        assert producer.requests_sent > 0
        assert producer.pdr == 1.0, f"producer {producer.node.node_id}"
    assert consumer.total_requests == sum(p.requests_sent for p in producers)


def test_traffic_survives_connection_loss():
    """statconn reconnects; only packets in the gap are lost."""
    net = linear_net(3)
    Consumer(net.nodes[0])
    producer = Producer(
        net.nodes[2],
        net.nodes[0].mesh_local,
        config=TrafficConfig(interval_ns=200 * MSEC, jitter_ns=50 * MSEC),
    )
    producer.start(delay_ns=2 * SEC)

    def kill_link():
        conn = net.nodes[1].controller.connection_to(0)
        if conn:
            conn.close(DisconnectReason.SUPERVISION_TIMEOUT)

    net.sim.at(10 * SEC, kill_link)
    net.run(30 * SEC)
    assert net.all_links_up()
    assert producer.acks_received > 0
    # loss window is ~tens of ms; at 200 ms spacing nearly everything lands
    assert producer.pdr > 0.95


def test_pktbuf_exhaustion_drops_but_recovers():
    """Overload fills the GNRC pktbuf; drops are counted there (§5.2)."""
    net = linear_net(3, pktbuf_capacity=600)
    Consumer(net.nodes[0])
    producer = Producer(
        net.nodes[2],
        net.nodes[0].mesh_local,
        config=TrafficConfig(interval_ns=8 * MSEC, jitter_ns=2 * MSEC),
    )
    producer.start(delay_ns=2 * SEC)
    net.run(12 * SEC)
    drops = (
        net.nodes[2].netif.drops_pktbuf
        + net.nodes[1].netif.drops_pktbuf
    )
    assert drops > 0
    assert producer.pdr < 1.0
    assert producer.acks_received > 0  # but the network did not collapse


def test_forwarding_uses_hop_limit():
    net = linear_net(3)
    Consumer(net.nodes[0])
    producer = Producer(net.nodes[2], net.nodes[0].mesh_local)
    producer.start()
    net.run(8 * SEC)
    # grab any packet mid-flight: originated hop limit is 64, the consumer
    # receives it after 2 hops; verify the forward counters line up instead
    assert net.nodes[1].ip.drops_hop_limit == 0
    assert net.nodes[1].ip.forwarded > 0
