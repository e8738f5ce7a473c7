"""Tests for the BLE connection state machine.

These exercise the behaviours the paper's analysis rests on: interval-paced
connection events, SN/NESN acknowledgement with automatic retransmission,
CRC-triggered event aborts, window widening, supervision timeouts, and --
most importantly -- connection shading between co-located connections.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.ble.config import BleConfig, ConnParams, CsaVariant, SchedulerPolicy
from repro.ble.conn import Connection, DisconnectReason
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.phy.medium import InterferenceBurst
from repro.sim.units import MSEC, SEC, USEC
from repro.trace.tracer import TRACE

from tests.support import LINE4

from .conftest import BlePlane


class Hog:
    """A fake activity that claims a radio forever."""

    consec_skips = 0

    def next_radio_time(self, after_ns):
        return None


PARAMS_75MS = ConnParams(interval_ns=75 * MSEC)


def test_idle_connection_paces_events_at_interval(plane):
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    plane.sim.run(until=1 * SEC)
    # anchor at 1 ms, then every 75 ms: events at 1, 76, 151, ... <= 1000 ms
    expected = 1 + (1000 - 1) // 75
    assert conn.coord.stats.events_active == expected
    assert conn.sub.stats.events_active == expected
    assert conn.open


def test_data_delivery_coordinator_to_subordinate(plane):
    conn = plane.connect(0, 1, anchor0=MSEC)
    received = []
    conn.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)
    assert conn.send(plane.nodes[0], b"hello-ble")
    plane.sim.run(until=200 * MSEC)
    assert received == [b"hello-ble"]
    assert conn.coord.stats.tx_data_acked == 1


def test_data_delivery_subordinate_to_coordinator(plane):
    conn = plane.connect(0, 1, anchor0=MSEC)
    received = []
    conn.coord.on_rx_pdu = lambda pdu: received.append(pdu.payload)
    assert conn.send(plane.nodes[1], b"uplink")
    plane.sim.run(until=200 * MSEC)
    assert received == [b"uplink"]


def test_bidirectional_exchange_in_one_event(plane):
    conn = plane.connect(0, 1, anchor0=MSEC)
    got = {"c": [], "s": []}
    conn.sub.on_rx_pdu = lambda pdu: got["s"].append(pdu.payload)
    conn.coord.on_rx_pdu = lambda pdu: got["c"].append(pdu.payload)
    conn.send(plane.nodes[0], b"down")
    conn.send(plane.nodes[1], b"up")
    plane.sim.run(until=80 * MSEC)  # a single connection event suffices
    assert got["s"] == [b"down"]
    assert got["c"] == [b"up"]


def test_queue_drains_within_one_event_via_more_data(plane):
    """§2.2: the MD flag lets peers chain packet exchanges inside an event."""
    conn = plane.connect(0, 1, anchor0=MSEC)
    received = []
    conn.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)
    for i in range(10):
        assert conn.send(plane.nodes[0], bytes([i]) * 50)
    plane.sim.run(until=MSEC + 40 * MSEC)  # well before the second event
    assert len(received) == 10
    assert conn.coord.stats.events_active == 1


def test_ack_frees_buffer_pool(plane):
    conn = plane.connect(0, 1, anchor0=MSEC)
    pool = plane.nodes[0].buffer_pool
    conn.send(plane.nodes[0], b"x" * 100)
    assert pool.used == 100
    plane.sim.run(until=100 * MSEC)
    assert pool.used == 0


def test_send_too_large_payload_raises(plane):
    conn = plane.connect(0, 1)
    with pytest.raises(ValueError):
        conn.send(plane.nodes[0], b"x" * 252)


def test_send_fails_when_pool_exhausted(make_plane):
    plane = make_plane(
        config_factory=lambda i: BleConfig(buffer_pool_bytes=150)
    )
    conn = plane.connect(0, 1, anchor0=MSEC)
    assert conn.send(plane.nodes[0], b"x" * 100)
    assert not conn.send(plane.nodes[0], b"y" * 100)
    assert plane.nodes[0].buffer_pool.alloc_failures == 1


def test_send_on_closed_connection_returns_false(plane):
    conn = plane.connect(0, 1)
    conn.close()
    assert not conn.send(plane.nodes[0], b"data")


def test_retransmission_after_interference_burst(make_plane):
    """A lost packet is retransmitted one connection event later (§5.1)."""
    plane = make_plane()
    # jam everything between 50 ms and 200 ms: the first delivery attempts die
    plane.medium.interference.bursts.append(
        InterferenceBurst(50 * MSEC, 200 * MSEC, tuple(range(37)), 1.0)
    )
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=60 * MSEC)
    received = []
    conn.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)
    conn.send(plane.nodes[0], b"persistent")
    plane.sim.run(until=400 * MSEC)
    assert received == [b"persistent"]  # delivered exactly once, no dup
    assert conn.coord.stats.tx_data_attempts > 1  # needed retransmissions
    assert conn.coord.stats.events_crc_abort >= 1
    assert conn.open


def test_no_duplicate_delivery_when_ack_lost(make_plane):
    """If only the subordinate's reply is lost, the retransmitted PDU is
    recognised as a duplicate via its sequence number and dropped."""
    plane = make_plane()
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    received = []
    conn.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)

    # patch the medium: lose exactly the second packet (the sub's first reply)
    real = plane.medium.packet_lost
    counter = {"n": 0}

    def lossy(channel, nbytes):
        counter["n"] += 1
        if counter["n"] == 2:
            return True
        return real(channel, nbytes)

    plane.medium.packet_lost = lossy
    conn.send(plane.nodes[0], b"once-only")
    plane.sim.run(until=300 * MSEC)
    assert received == [b"once-only"]
    assert conn.sub.stats.rx_data_dup == 1


def test_supervision_timeout_when_sub_radio_blocked(plane):
    """Events that never reach the subordinate kill the link (§2.2)."""
    closed = []
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    conn.on_closed = lambda c, reason: closed.append(reason)
    plane.nodes[1].scheduler.claim(Hog(), 0, 10 * SEC)
    plane.sim.run(until=2 * SEC)
    assert closed == [DisconnectReason.SUPERVISION_TIMEOUT]
    # default timeout = 6 * 75 ms = 450 ms after the last valid packet
    assert not conn.open


def test_supervision_timeout_under_total_jamming(make_plane):
    plane = make_plane(base_ber=0.0)
    plane.medium.interference.bursts.append(
        InterferenceBurst(0, 10 * SEC, tuple(range(37)), 1.0)
    )
    closed = []
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    conn.on_closed = lambda c, r: closed.append(r)
    plane.sim.run(until=2 * SEC)
    assert closed == [DisconnectReason.SUPERVISION_TIMEOUT]


def test_honest_sca_declaration_survives_drift(make_plane):
    """Window widening absorbs real drift when SCA is declared honestly."""
    plane = make_plane(ppms=[250.0, -250.0])  # worst-case legal clocks
    conn = plane.connect(
        0, 1, params=ConnParams(interval_ns=75 * MSEC), anchor0=MSEC
    )
    plane.sim.run(until=30 * SEC)
    assert conn.open
    assert conn.sub.stats.events_missed_window == 0


def test_dishonest_sca_declaration_loses_sync(make_plane):
    """With declared SCA 0 and no widening floor, drift breaks the link."""
    plane = make_plane(
        ppms=[200.0, -200.0],
        config_factory=lambda i: BleConfig(
            declared_sca_ppm=0.0, window_widening_base_ns=10 * USEC
        ),
    )
    closed = []
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    conn.on_closed = lambda c, r: closed.append(r)
    plane.sim.run(until=60 * SEC)
    # 400 ppm relative drift = 30 us per 75 ms interval > 10 us window
    assert closed == [DisconnectReason.SUPERVISION_TIMEOUT]
    assert conn.sub.stats.events_missed_window > 0


class TestConnectionShading:
    """The paper's core finding, reproduced at unit scale (§6.1)."""

    def _shaded_plane(self, make_plane, policy, interval2_ms=75):
        plane = make_plane(
            n_nodes=3,
            # 50 ppm relative drift: conn A's anchors slide 50 us/s *towards*
            # conn B's, closing the initial 2 ms gap in ~40 s
            ppms=[-25.0, 0.0, 25.0],
            config_factory=lambda i: BleConfig(scheduler_policy=policy),
        )
        # node1 is subordinate of two connections whose coordinators drift
        # against each other; anchors start 2 ms apart and close at 50 us/s.
        conn_a = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
        conn_b = plane.connect(
            2, 1, params=ConnParams(interval_ns=interval2_ms * MSEC), anchor0=3 * MSEC
        )
        return plane, conn_a, conn_b

    def test_same_interval_starves_one_connection(self, make_plane):
        plane, conn_a, conn_b = self._shaded_plane(
            make_plane, SchedulerPolicy.EARLIEST_WINS
        )
        closed = []
        conn_a.on_closed = lambda c, r: closed.append(("a", r))
        conn_b.on_closed = lambda c, r: closed.append(("b", r))
        plane.sim.run(until=120 * SEC)
        reasons = [r for _, r in closed]
        assert DisconnectReason.SUPERVISION_TIMEOUT in reasons

    def test_distinct_intervals_prevent_shading(self, make_plane):
        """§6.3: unique intervals per node stop the losses."""
        plane, conn_a, conn_b = self._shaded_plane(
            make_plane, SchedulerPolicy.EARLIEST_WINS, interval2_ms=85
        )
        closed = []
        conn_a.on_closed = lambda c, r: closed.append(r)
        conn_b.on_closed = lambda c, r: closed.append(r)
        plane.sim.run(until=120 * SEC)
        assert closed == []
        assert conn_a.open and conn_b.open

    def test_alternate_policy_degrades_instead_of_dropping(self, make_plane):
        """Paper choice (ii): alternation halves capacity but keeps links."""
        plane, conn_a, conn_b = self._shaded_plane(
            make_plane, SchedulerPolicy.ALTERNATE
        )
        closed = []
        conn_a.on_closed = lambda c, r: closed.append(r)
        conn_b.on_closed = lambda c, r: closed.append(r)
        plane.sim.run(until=120 * SEC)
        assert closed == []
        skips = (
            conn_a.coord.stats.events_skipped_policy
            + conn_a.sub.stats.events_skipped_policy
            + conn_b.coord.stats.events_skipped_policy
            + conn_b.sub.stats.events_skipped_policy
        )
        assert skips > 0


def test_param_update_changes_interval(plane):
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    new = ConnParams(interval_ns=150 * MSEC)
    conn.request_param_update(new)
    plane.sim.run(until=3 * SEC)
    assert conn.params.interval_ns == 150 * MSEC
    assert conn.open
    # event pacing slowed down: fewer than the 75 ms count of events
    assert conn.coord.stats.events_active < 3 * 13


def test_chan_map_update_takes_effect(plane):
    from repro.ble.chanmap import ChannelMap

    conn = plane.connect(0, 1, anchor0=MSEC)
    conn.send(plane.nodes[0], b"warm-up")
    plane.sim.run(until=100 * MSEC)
    conn.request_chan_map_update(ChannelMap((0, 1, 2, 3)))
    plane.sim.run(until=300 * MSEC)
    assert conn.chan_map.num_used == 4
    # keep traffic flowing on the restricted map
    received = []
    conn.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)
    before = [list(x) for x in conn.coord.stats.per_channel]
    conn.send(plane.nodes[0], b"restricted")
    plane.sim.run(until=600 * MSEC)
    assert received == [b"restricted"]
    for channel in range(4, 37):
        assert conn.coord.stats.per_channel[channel][0] == before[channel][0]


def test_csa1_link_outlives_the_event_counter_wrap(make_plane):
    """Event 65,536 of a 7.5 ms link falls at 491.5 s; CSA#1 hops on."""
    plane = make_plane(config_factory=lambda i: BleConfig(csa=CsaVariant.CSA1))
    conn = plane.connect(0, 1, params=ConnParams(interval_ns=7500 * USEC), anchor0=MSEC)
    plane.sim.run(until=500 * SEC)
    assert conn.open
    assert conn.event_counter > 0x10000


def test_close_is_idempotent_and_notifies_once(plane):
    conn = plane.connect(0, 1)
    closed = []
    conn.on_closed = lambda c, r: closed.append(r)
    conn.close()
    conn.close()
    assert closed == [DisconnectReason.LOCAL_CLOSE]


def test_close_unregisters_from_controllers(plane):
    conn = plane.connect(0, 1)
    assert conn in plane.nodes[0].connections
    conn.close()
    assert conn not in plane.nodes[0].connections
    assert conn not in plane.nodes[1].connections


def test_second_connection_truncates_first_events(make_plane):
    """Figure 4: a co-located connection bounds event length (capacity)."""
    plane = make_plane(n_nodes=3)
    conn_a = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    received = []
    conn_a.sub.on_rx_pdu = lambda pdu: received.append(pdu.payload)

    def saturate(n):
        sent = 0
        for _ in range(n):
            if conn_a.send(plane.nodes[0], b"z" * 200):
                sent += 1
        return sent

    saturate(25)
    plane.sim.run(until=70 * MSEC)  # one event, alone on the node
    alone = len(received)

    # open a second connection anchored mid-interval of the first
    plane.connect(2, 1, params=PARAMS_75MS, anchor0=76 * MSEC + 37 * MSEC)
    received.clear()
    plane.sim.run(until=151 * MSEC)
    plane.nodes[0].buffer_pool.free(plane.nodes[0].buffer_pool.used)
    conn_a.coord.tx_queue.clear()
    saturate(25)
    received.clear()
    plane.sim.run(until=226 * MSEC)  # exactly one more event of conn_a
    restricted = len(received)
    assert 0 < restricted < alone


# -- the idle event's short path ----------------------------------------------


def jam_everything_at_3s(plane):
    """Replace the jammed set wholesale mid-run (its change stamp's idiom)."""
    def jam():
        plane.medium.interference.jammed_channels = tuple(range(37))

    plane.sim.at(3 * SEC, jam)


def overwrite_channel_per_at_5s(plane):
    """Overwrite every channel's PER in place mid-run, then invalidate (the
    model's idiom for that) and let one other lookup re-stamp the model."""
    model = plane.medium.interference
    model.channel_per.update(dict.fromkeys(range(37), 0.0))

    def overwrite():
        for channel in model.channel_per:
            model.channel_per[channel] = 0.5
        model.invalidate()
        model.packet_error_rate(0, 10, plane.sim.now)

    plane.sim.at(5 * SEC, overwrite)


IDLE_SCENARIOS = {
    # PER of an empty packet ~0.21: both sides' losses, no timeout
    "high-ber": dict(base_ber=3e-3),
    # time-dependent PER: 0 outside the burst, 0.3 inside
    "burst": dict(bursts=[InterferenceBurst(300 * MSEC, 3 * SEC,
                                            tuple(range(37)), 0.3)]),
    # by 3 s (40 events) every channel's PER is memoized: the jam must
    # still reach it
    "jam-mid-run": dict(base_ber=1e-3, setup=jam_everything_at_3s),
    # every channel's PER is memoized by 5 s: the overwrite must reach it
    "per-overwrite-mid-run": dict(setup=overwrite_channel_per_at_5s, until=10 * SEC),
}


def run_idle(traced, base_ber=0.0, bursts=(), setup=None, until=5 * SEC):
    """A lone idle connection; everything the exchange touches."""
    plane = BlePlane(base_ber=base_ber, seed=7)
    plane.medium.interference.bursts.extend(bursts)
    if setup is not None:
        setup(plane)
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    closed = []
    conn.on_closed = lambda c, reason: closed.append((plane.sim.now, reason))
    if traced:
        TRACE.configure(sinks=[])
    try:
        plane.sim.run(until=until)
    finally:
        TRACE.reset()
    return {
        "coord_stats": dataclasses.asdict(conn.coord.stats),
        "sub_stats": dataclasses.asdict(conn.sub.stats),
        "bits": (conn.coord.sn, conn.coord.nesn, conn.sub.sn, conn.sub.nesn),
        "last_rx_valid": (conn.coord.last_rx_valid, conn.sub.last_rx_valid),
        "medium": (plane.medium.packets_sampled, plane.medium.packets_lost),
        "closed": closed,
    }


@pytest.mark.parametrize("scenario", sorted(IDLE_SCENARIOS))
def test_idle_path_matches_the_traced_exchange_loop(scenario):
    """TRACE off takes the idle path, TRACE on the loop: same run."""
    fast = run_idle(False, **IDLE_SCENARIOS[scenario])
    assert fast == run_idle(True, **IDLE_SCENARIOS[scenario])
    assert fast["coord_stats"]["events_crc_abort"] > 0
    if scenario in ("jam-mid-run", "per-overwrite-mid-run"):
        assert [reason for _, reason in fast["closed"]] == [
            DisconnectReason.SUPERVISION_TIMEOUT
        ]
    else:
        assert fast["sub_stats"]["events_crc_abort"] > 0
        assert fast["closed"] == []


def test_lost_empty_pdu_is_retransmitted_with_its_sn(make_plane):
    plane = make_plane()
    # only event 1 (anchor 76 ms) is jammed: the coordinator's empty dies
    plane.medium.interference.bursts.append(
        InterferenceBurst(76 * MSEC, 77 * MSEC, tuple(range(37)), 1.0)
    )
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    coord, sub = conn.coord, conn.sub
    plane.sim.run(until=50 * MSEC)
    sn = coord.sn
    plane.sim.run(until=100 * MSEC)
    assert coord.stats.events_crc_abort == 1
    assert coord._outstanding is coord._empty_pdu
    assert coord._empty_pdu.sn == sn and sub.nesn == sn
    plane.sim.run(until=200 * MSEC)
    # the same SN went out again and was accepted exactly once
    assert sub.nesn == sn ^ 1
    assert coord.sn == sn ^ 1 and coord._outstanding is None
    assert (coord.stats.tx_empty, sub.stats.tx_empty) == (3, 2)


def count_calls(monkeypatch, conn, name):
    calls = []
    method = getattr(conn, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(conn, name, counted)
    return calls


def test_idle_events_skip_the_exchange_loop(plane, monkeypatch):
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    loop = count_calls(monkeypatch, conn, "_exchange_loop")
    stats = conn.coord.stats
    plane.sim.run(until=1 * SEC)
    assert (len(loop), stats.events_active) == (0, 14)
    TRACE.configure(sinks=[])
    try:
        plane.sim.run(until=2 * SEC)
    finally:
        TRACE.reset()
    assert (len(loop), stats.events_active) == (13, 27)


def test_metered_idle_events_skip_the_exchange_loop(monkeypatch):
    """Metering samples the counters; it takes no event off the idle path:
    a metered run enters the exchange loop exactly as often as the dark one."""
    config = dataclasses.replace(
        ExperimentConfig.from_yaml(Path(LINE4).read_text()), sample_period_s=1.0
    )
    calls = []
    loop = Connection._exchange_loop

    def counted(self, *args):
        calls.append(self.conn_id)
        return loop(self, *args)

    monkeypatch.setattr(Connection, "_exchange_loop", counted)
    run_experiment(config)
    dark = len(calls)
    run_experiment(dataclasses.replace(config, metrics=True))
    assert dark > 0
    assert len(calls) - dark == dark


def test_queued_data_takes_the_exchange_loop(plane, monkeypatch):
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    loop = count_calls(monkeypatch, conn, "_exchange_loop")
    conn.send(plane.nodes[1], b"uplink")
    plane.sim.run(until=50 * MSEC)
    assert len(loop) == 1
    assert conn.sub.stats.tx_data_acked == 1


def test_exchange_loop_runs_when_crc_errors_do_not_abort(make_plane, monkeypatch):
    plane = make_plane(
        config_factory=lambda i: BleConfig(abort_event_on_crc_error=False)
    )
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    loop = count_calls(monkeypatch, conn, "_exchange_loop")
    plane.sim.run(until=1 * SEC)
    assert (len(loop), conn.coord.stats.events_active) == (14, 14)


def test_served_events_skip_arbitration(plane, monkeypatch):
    """A served event (eligible link, window hit, radios free, tracing off)
    has nothing to arbitrate: with data queued it goes straight to the
    exchange loop.  Only a traced event asks ``_arbitrate``."""
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    loop = count_calls(monkeypatch, conn, "_exchange_loop")
    arbitrate = count_calls(monkeypatch, conn, "_arbitrate")
    conn.send(plane.nodes[1], b"uplink")
    plane.sim.run(until=500 * MSEC)  # 7 events, one of them with data
    assert (len(loop), len(arbitrate)) == (1, 0)
    assert conn.sub.stats.tx_data_acked == 1
    TRACE.configure(sinks=[])
    try:
        conn.send(plane.nodes[1], b"uplink")
        plane.sim.run(until=1 * SEC)  # 7 more events, all traced
    finally:
        TRACE.reset()
    assert (len(loop), len(arbitrate)) == (8, 7)
    assert conn.sub.stats.tx_data_acked == 2


def test_alternate_policy_events_are_arbitrated(make_plane, monkeypatch):
    plane = make_plane(
        config_factory=lambda i: BleConfig(
            scheduler_policy=SchedulerPolicy.ALTERNATE
        )
    )
    conn = plane.connect(0, 1, params=PARAMS_75MS, anchor0=MSEC)
    loop = count_calls(monkeypatch, conn, "_exchange_loop")
    arbitrate = count_calls(monkeypatch, conn, "_arbitrate")
    plane.sim.run(until=1 * SEC)
    assert (len(loop), len(arbitrate)) == (14, 14)
    assert conn.coord.stats.events_active == 14
