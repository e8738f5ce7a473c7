"""Tests for the producer/consumer workload."""

from repro.sim.units import MSEC, SEC
from repro.testbed.topology import BleNetwork
from repro.testbed.traffic import Consumer, Producer, TrafficConfig


def make_net():
    net = BleNetwork(2, seed=31, ppms=[0.0, 0.0])
    net.apply_edges([(0, 1)])
    return net


def test_producer_interval_with_jitter_bounds():
    net = make_net()
    Consumer(net.nodes[0])
    producer = Producer(
        net.nodes[1],
        net.nodes[0].mesh_local,
        config=TrafficConfig(interval_ns=1 * SEC, jitter_ns=500 * MSEC),
    )
    producer.start()
    net.run(30 * SEC)
    times = producer.request_times
    gaps = [(b - a) / SEC for a, b in zip(times, times[1:])]
    assert gaps, "producer must have produced"
    assert all(0.5 <= g <= 1.5 for g in gaps), f"jitter out of ±0.5 s: {gaps}"
    # jitter actually varies the gaps
    assert max(gaps) - min(gaps) > 0.1


def test_zero_jitter_is_periodic():
    net = make_net()
    Consumer(net.nodes[0])
    producer = Producer(
        net.nodes[1],
        net.nodes[0].mesh_local,
        config=TrafficConfig(interval_ns=1 * SEC, jitter_ns=0),
    )
    producer.start()
    net.run(10 * SEC)
    times = producer.request_times
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert gaps == {1 * SEC}


def test_stop_halts_production():
    net = make_net()
    Consumer(net.nodes[0])
    producer = Producer(net.nodes[1], net.nodes[0].mesh_local)
    producer.start()
    net.sim.at(5 * SEC, producer.stop)
    net.run(15 * SEC)
    assert all(t <= 5 * SEC for t in producer.request_times)


def test_payload_length_reaches_consumer():
    seen = []
    net = make_net()
    consumer = Consumer(net.nodes[0])
    original = consumer._serve

    def spy(payload, src):
        seen.append(len(payload))
        return original(payload, src)

    consumer.endpoint._resources["sense"] = spy
    producer = Producer(
        net.nodes[1],
        net.nodes[0].mesh_local,
        config=TrafficConfig(payload_len=39),
    )
    producer.start()
    net.run(5 * SEC)
    assert seen and all(n == 39 for n in seen)


def test_consumer_counts_per_producer():
    net = BleNetwork(3, seed=32, ppms=[0.0] * 3)
    net.apply_edges([(0, 1), (0, 2)])
    consumer = Consumer(net.nodes[0])
    p1 = Producer(net.nodes[1], net.nodes[0].mesh_local)
    p2 = Producer(net.nodes[2], net.nodes[0].mesh_local)
    p1.start()
    p2.start()
    net.run(10 * SEC)
    assert consumer.requests_by_producer[1] == p1.acks_received
    assert consumer.requests_by_producer[2] == p2.acks_received
    assert consumer.total_requests == p1.acks_received + p2.acks_received


def test_pdr_defaults_to_one():
    net = make_net()
    producer = Producer(net.nodes[1], net.nodes[0].mesh_local)
    assert producer.pdr == 1.0


def test_rtt_samples_match_ack_count():
    net = make_net()
    Consumer(net.nodes[0])
    producer = Producer(net.nodes[1], net.nodes[0].mesh_local)
    producer.start()
    net.run(10 * SEC)
    assert len(producer.rtt_samples) == producer.acks_received
    assert all(rtt > 0 for _, rtt in producer.rtt_samples)
