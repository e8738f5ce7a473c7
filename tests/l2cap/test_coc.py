"""Tests for the LE credit-based connection-oriented channel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ble.config import BleConfig
from repro.l2cap import CocConfig, L2capCoc
from repro.phy.medium import InterferenceBurst
from repro.sim.units import MSEC, SEC

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from ble.conftest import BlePlane  # noqa: E402


def make_coc(plane=None, coc_config=None, conn_params=None, **plane_kwargs):
    plane = plane or BlePlane(**plane_kwargs)
    conn = plane.connect(0, 1, params=conn_params, anchor0=MSEC)
    coc = L2capCoc(conn, coc_config)
    return plane, conn, coc


def test_small_sdu_roundtrip():
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    coc.send(plane.nodes[0], b"ipv6-packet-bytes")
    plane.sim.run(until=200 * MSEC)
    assert got == [b"ipv6-packet-bytes"]


def test_sdu_larger_than_mps_is_segmented_and_reassembled():
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdu = bytes(range(256)) * 4  # 1024 bytes > 247 MPS
    coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=1 * SEC)
    assert got == [sdu]
    end = coc.end_of(plane.nodes[0])
    assert end.sdus_sent == 1


#: Either side of what one K-frame carries (MPS 247 less the 2-byte SDU
#: length: 245 bytes) and of what two carry (492), up to the IPv6 MTU.
BOUNDARY_SDU_SIZES = (0, 1, 244, 245, 246, 491, 492, 1280)


def kframes(size):
    """K-frames an SDU of ``size`` bytes takes at the default MPS."""
    return 1 + -(-max(0, size - 245) // 247)


def test_sdus_at_kframe_boundaries():
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdus = [bytes((size + i) % 256 for i in range(size)) for size in BOUNDARY_SDU_SIZES]
    for sdu in sdus:
        coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=3 * SEC)
    assert got == sdus
    tx, rx = coc.end_of(plane.nodes[0]), coc.end_of(plane.nodes[1])
    assert rx.sdus_received == len(sdus)
    # every consumed K-frame is paid back, one credit each: 16 in all
    frames = sum(kframes(size) for size in BOUNDARY_SDU_SIZES)
    assert frames == 16
    assert rx.credits_returned == frames
    assert tx.credits == CocConfig().initial_credits


def test_mtu_enforced():
    plane, conn, coc = make_coc()
    with pytest.raises(ValueError):
        coc.send(plane.nodes[0], b"x" * 1281)


def test_bidirectional_traffic():
    plane, conn, coc = make_coc()
    got = {"up": [], "down": []}
    coc.set_rx_handler(plane.nodes[1], got["down"].append)
    coc.set_rx_handler(plane.nodes[0], got["up"].append)
    coc.send(plane.nodes[0], b"request")
    coc.send(plane.nodes[1], b"response")
    plane.sim.run(until=500 * MSEC)
    assert got["down"] == [b"request"]
    assert got["up"] == [b"response"]


def test_many_sdus_in_order():
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdus = [bytes([i]) * (10 + i) for i in range(30)]
    for sdu in sdus:
        coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=5 * SEC)
    assert got == sdus


def test_credits_limit_inflight_frames():
    """With 1 initial credit, the second SDU waits for a credit return."""
    plane, conn, coc = make_coc(coc_config=CocConfig(initial_credits=1))
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    coc.send(plane.nodes[0], b"first")
    coc.send(plane.nodes[0], b"second")
    end = coc.end_of(plane.nodes[0])
    assert end.credits == 0  # the single credit was spent immediately
    plane.sim.run(until=1 * SEC)
    assert got == [b"first", b"second"]  # credit return unblocked the second
    assert coc.end_of(plane.nodes[1]).credits_returned >= 2


def test_credit_window_below_one_sdu_still_delivers():
    """One credit, one 1000 B SDU (five K-frames): the receiver grants each
    frame as its peer runs dry mid-SDU instead of waiting for the whole SDU."""
    plane, conn, coc = make_coc(coc_config=CocConfig(initial_credits=1))
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdu = bytes(range(250)) * 4
    coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=2 * SEC)
    assert got == [sdu]
    assert coc.end_of(plane.nodes[1]).credits_returned == kframes(len(sdu)) == 5
    assert coc.end_of(plane.nodes[0]).credits == 1


def test_sdu_sent_callback_fires_after_ll_ack():
    plane, conn, coc = make_coc()
    sent = []
    end = coc.end_of(plane.nodes[0])
    end.on_sdu_sent = sent.append
    coc.send(plane.nodes[0], b"payload", tag="cookie")
    assert sent == []  # nothing acked before the first connection event
    plane.sim.run(until=200 * MSEC)
    assert sent == ["cookie"]


def test_survives_interference_burst():
    """Retransmissions below keep the channel lossless and in order."""
    plane = BlePlane()
    plane.medium.interference.bursts.append(
        InterferenceBurst(100 * MSEC, 350 * MSEC, tuple(range(37)), 1.0)
    )
    plane, conn, coc = make_coc(plane=plane)
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdus = [bytes([i]) * 100 for i in range(10)]
    for sdu in sdus:
        coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=3 * SEC)
    assert got == sdus
    assert conn.open


def test_queue_bytes_accounting():
    plane, conn, coc = make_coc()
    end = coc.end_of(plane.nodes[0])
    # queue before any connection event has run
    coc.send(plane.nodes[0], b"x" * 400)
    assert end.queue_bytes() > 0
    plane.sim.run(until=1 * SEC)
    assert end.queue_bytes() == 0


def test_throughput_stall_on_tiny_pool():
    """A tiny LL buffer pool stalls the pump but never loses SDUs."""
    plane = BlePlane(config_factory=lambda i: BleConfig(buffer_pool_bytes=300))
    plane, conn, coc = make_coc(plane=plane)
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    sdus = [bytes([i]) * 150 for i in range(8)]
    for sdu in sdus:
        coc.send(plane.nodes[0], sdu)
    plane.sim.run(until=3 * SEC)
    assert got == sdus


def test_pool_stall_sends_the_frame_again_once_the_pool_frees():
    """A 1000 B SDU is five K-frames; a 300 B LL pool holds one full frame."""
    plane = BlePlane(config_factory=lambda i: BleConfig(buffer_pool_bytes=300))
    plane, conn, coc = make_coc(plane=plane)
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    end = coc.end_of(plane.nodes[0])
    sdu = bytes(range(250)) * 4
    coc.send(plane.nodes[0], sdu)
    assert end.pool_stalls == 1  # frame 2 waits for frame 1's ack
    plane.sim.run(until=2 * SEC)
    assert got == [sdu]
    # frames 3 and 4 wait too; the 18 B frame 5 fits beside frame 4
    assert (end.pool_stalls, end.credit_stalls) == (3, 0)


def test_credit_stalls_count_pumps_left_without_credit():
    """Back-to-back 1280 B SDUs (six K-frames each) outrun ten credits."""
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    end = coc.end_of(plane.nodes[0])
    sdus = [bytes([i]) * 1280 for i in range(3)]
    for sdu in sdus:
        coc.send(plane.nodes[0], sdu)
    assert (end.credits, end.credit_stalls) == (4, 0)  # only the head is pumped
    plane.sim.run(until=2 * SEC)
    assert got == sdus
    # the second SDU's pumps end without credit until the first is paid back
    assert (end.pool_stalls, end.credit_stalls) == (0, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        CocConfig(mps=10)
    with pytest.raises(ValueError):
        CocConfig(mtu=100, mps=200)
    with pytest.raises(ValueError):
        CocConfig(initial_credits=0)


@given(
    payload=st.binary(min_size=0, max_size=1280),
)
@settings(max_examples=30, deadline=None)
def test_any_sdu_roundtrips(payload):
    """Property: any SDU within the MTU reassembles byte-identically."""
    plane, conn, coc = make_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    coc.send(plane.nodes[0], payload)
    plane.sim.run(until=2 * SEC)
    assert got == [payload]
