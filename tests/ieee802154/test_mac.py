"""Tests for the CSMA/CA MAC and the active medium."""

import random

from repro.ieee802154.mac import Mac154, MacConfig
from repro.ieee802154.medium154 import CsmaMedium
from repro.phy.medium import InterferenceModel
from repro.sim import Simulator
from repro.sim.units import SEC


def make_macs(n=2, seed=1, interference=None, config=None):
    sim = Simulator()
    medium = CsmaMedium(sim, random.Random(seed), interference)
    macs = [
        Mac154(sim, medium, addr=i, rng=random.Random(seed * 100 + i), config=config)
        for i in range(n)
    ]
    return sim, medium, macs


def test_single_frame_delivery_with_ack():
    sim, medium, (a, b) = make_macs()
    got = []
    b.on_frame = lambda frame: got.append(frame.payload)
    done = []
    a.on_tx_done = lambda frame, ok: done.append(ok)
    a.send(1, b"hello-154")
    sim.run(until=1 * SEC)
    assert got == [b"hello-154"]
    assert done == [True]
    assert a.tx_ok == 1


def test_queue_processes_in_order():
    sim, medium, (a, b) = make_macs()
    got = []
    b.on_frame = lambda frame: got.append(frame.payload)
    for i in range(5):
        a.send(1, bytes([i]))
    sim.run(until=1 * SEC)
    assert got == [bytes([i]) for i in range(5)]


def test_frame_to_absent_peer_drops_after_retries():
    sim, medium, (a, b) = make_macs()
    done = []
    a.on_tx_done = lambda frame, ok: done.append(ok)
    a.send(99, b"void")  # nobody home
    sim.run(until=1 * SEC)
    assert done == [False]
    assert a.tx_dropped_retries == 1
    # 1 initial try + macMaxFrameRetries
    assert a.tx_attempts == 1 + MacConfig().max_frame_retries


def test_noise_triggers_retries_then_success():
    interference = InterferenceModel(base_ber=0.0, channel_per={17: 0.5})
    sim, medium, (a, b) = make_macs(seed=5, interference=interference)
    got = []
    b.on_frame = lambda f: got.append(f.payload)
    results = []
    a.on_tx_done = lambda f, ok: results.append(ok)
    for i in range(30):
        a.send(1, bytes([i]) * 10)
    sim.run(until=30 * SEC)
    assert len(results) == 30
    assert any(results)  # some get through
    assert a.tx_attempts > 30  # retries happened
    # every delivered frame was delivered exactly once (dedupe by seq)
    assert len(got) == b.rx_frames


def test_collision_when_two_senders_align():
    """Force both senders to transmit simultaneously: both frames corrupt."""
    sim, medium, macs = make_macs(3)
    a, b, c = macs
    # bypass CSMA: put two frames on the air directly
    from repro.phy.frames import ieee802154_air_time_ns

    outcomes = []
    dur = ieee802154_air_time_ns(50)
    sim.at(1000, lambda: medium.transmit(a, 17, 50, dur, outcomes.append))
    sim.at(1000, lambda: medium.transmit(b, 17, 50, dur, outcomes.append))
    sim.run(until=1 * SEC)
    assert outcomes == [False, False]
    assert medium.collisions == 2


def test_cca_sees_ongoing_transmission():
    sim, medium, macs = make_macs(2)
    from repro.phy.frames import ieee802154_air_time_ns

    dur = ieee802154_air_time_ns(100)
    sim.at(1000, lambda: medium.transmit(macs[0], 17, 100, dur, lambda ok: None))
    observed = []
    sim.at(1000 + dur // 2, lambda: observed.append(medium.channel_busy(17)))
    sim.at(1000 + dur + 1000, lambda: observed.append(medium.channel_busy(17)))
    sim.run(until=1 * SEC)
    assert observed == [True, False]


def test_contention_backoff_keeps_goodput_reasonable():
    """Seven saturating senders to one sink: collisions happen (the CCA
    turnaround is blind, §5.3's contention losses), but binary exponential
    backoff still delivers the bulk of the frames."""
    sim, medium, macs = make_macs(8, seed=3)
    sink = macs[0]
    received = []
    sink.on_frame = lambda f: received.append(f.src)
    for sender in macs[1:]:
        for i in range(20):
            sender.send(0, bytes([sender.addr, i]))
    sim.run(until=30 * SEC)
    total_sent = 7 * 20
    assert medium.collisions > 0
    assert len(received) >= 0.7 * total_sent
    # drop-after-retries is 802.15.4's failure mode: it must appear here
    assert sum(m.tx_dropped_retries for m in macs[1:]) > 0


def test_duplicate_suppression_on_lost_ack():
    """If the ACK collides, the retransmitted frame is deduped by seq."""
    interference = InterferenceModel(base_ber=2e-3)  # short ACKs also die
    sim, medium, (a, b) = make_macs(seed=11, interference=interference)
    got = []
    b.on_frame = lambda f: got.append(f.seq)
    for i in range(200):
        a.send(1, bytes(20))
    sim.run(until=120 * SEC)
    assert b.rx_dupes > 0  # at least one ACK loss caused a redundant rx
    assert len(got) == len(set(got)) or b.rx_frames == len(got)
