"""Property-based invariants of the BLE data plane under random traffic/loss.

The SN/NESN acknowledgement scheme guarantees exactly-once, in-order
delivery per direction.  These tests fuzz traffic patterns and loss
processes and check the conservation laws that must hold regardless:

* every acknowledged PDU was delivered exactly once (acked == rx_unique up
  to the single in-flight PDU),
* payloads arrive in transmission order, bit-exact,
* buffer pools drain to zero once everything is acknowledged,
* the radio scheduler's busy time never exceeds wall time.
"""

from hypothesis import given, settings, strategies as st

from repro.ble.config import ConnParams
from repro.phy.medium import InterferenceBurst
from repro.sim.units import MSEC, SEC

from .conftest import BlePlane


@st.composite
def traffic_pattern(draw):
    """A list of (time_ms, direction, payload) send operations."""
    n = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n):
        ops.append(
            (
                draw(st.integers(min_value=2, max_value=2000)),
                draw(st.booleans()),
                draw(st.binary(min_size=1, max_size=120)),
            )
        )
    return sorted(ops)


@st.composite
def loss_bursts(draw):
    """Up to three total-loss bursts inside the first 2.5 s."""
    bursts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=2300))
        length = draw(st.integers(min_value=10, max_value=400))
        bursts.append(
            InterferenceBurst(start * MSEC, (start + length) * MSEC,
                              tuple(range(37)), 1.0)
        )
    return bursts


@given(pattern=traffic_pattern(), bursts=loss_bursts(), seed=st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_exactly_once_in_order_delivery(pattern, bursts, seed):
    plane = BlePlane(seed=seed)
    plane.medium.interference.bursts.extend(bursts)
    conn = plane.connect(0, 1, params=ConnParams(interval_ns=30 * MSEC), anchor0=MSEC)
    got = {True: [], False: []}
    conn.sub.on_rx_pdu = lambda pdu: got[True].append(pdu.payload)
    conn.coord.on_rx_pdu = lambda pdu: got[False].append(pdu.payload)
    sent = {True: [], False: []}

    for t_ms, downstream, payload in pattern:
        def make(downstream=downstream, payload=payload):
            node = plane.nodes[0] if downstream else plane.nodes[1]
            if conn.send(node, payload):
                sent[downstream].append(payload)

        plane.sim.at(t_ms * MSEC, make)

    plane.sim.run(until=10 * SEC)
    # Bursts end by 2.7 s and retransmissions have 7+ s to finish.  A burst
    # longer than the supervision timeout legitimately kills the connection
    # and discards queued data -- then delivery may be truncated, but never
    # reordered or duplicated.
    for direction in (True, False):
        if conn.open:
            assert got[direction] == sent[direction], (
                f"direction {direction}: delivery not exactly-once/in-order"
            )
        else:
            n = len(got[direction])
            assert got[direction] == sent[direction][:n], (
                f"direction {direction}: delivered list is not an in-order "
                "prefix of the sent list"
            )

    # conservation: every ack implies a delivery; at most the single
    # in-flight PDU may be delivered but not yet acknowledged
    for tx, rx in (
        (conn.coord.stats, conn.sub.stats),
        (conn.sub.stats, conn.coord.stats),
    ):
        assert 0 <= rx.rx_data_unique - tx.tx_data_acked <= 1
    # buffer pools fully drained after all acks
    assert plane.nodes[0].buffer_pool.used == 0
    assert plane.nodes[1].buffer_pool.used == 0
    # physics: radio cannot be busy longer than elapsed time
    for node in plane.nodes:
        assert node.scheduler.busy_ns_total <= plane.sim.now


@given(seed=st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_idle_connection_event_count_is_deterministic(seed):
    """Without loss or drift, event pacing is exact regardless of seed."""
    plane = BlePlane(seed=seed)
    conn = plane.connect(0, 1, params=ConnParams(interval_ns=50 * MSEC), anchor0=MSEC)
    plane.sim.run(until=2 * SEC)
    assert conn.coord.stats.events_active == 1 + (2000 - 1) // 50


@given(
    interval_ms=st.sampled_from([15, 30, 75, 150]),
    ppm_a=st.floats(min_value=-100, max_value=100),
    ppm_b=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_lone_connection_survives_any_legal_drift(interval_ms, ppm_a, ppm_b):
    """Window widening must absorb any in-spec drift for a single link."""
    plane = BlePlane(ppms=[ppm_a, ppm_b])
    conn = plane.connect(
        0, 1, params=ConnParams(interval_ns=interval_ms * MSEC), anchor0=MSEC
    )
    plane.sim.run(until=20 * SEC)
    assert conn.open
    assert conn.sub.stats.events_missed_window == 0
