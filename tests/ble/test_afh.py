"""Tests for adaptive frequency hopping."""

from repro.ble.afh import AfhConfig, AfhManager
from repro.ble.config import ConnParams
from repro.sim.units import MSEC, SEC

from .conftest import BlePlane


def jammed_plane(channels=(22,), **kwargs):
    plane = BlePlane(**kwargs)
    plane.medium.interference.jammed_channels = tuple(channels)
    return plane


def busy_conn(plane, interval_ms=30):
    """A connection with continuous light traffic (so events carry data)."""
    conn = plane.connect(
        0, 1, params=ConnParams(interval_ns=interval_ms * MSEC), anchor0=MSEC
    )

    def chatter():
        conn.send(plane.nodes[0], b"x" * 30)
        plane.sim.after(100 * MSEC, chatter)

    plane.sim.after(10 * MSEC, chatter)
    return conn


def test_blacklists_jammed_channel():
    plane = jammed_plane()
    conn = busy_conn(plane)
    afh = AfhManager(conn, AfhConfig(eval_interval_ns=5 * SEC, min_samples=3))
    afh.start()
    plane.sim.run(until=60 * SEC)
    assert 22 in afh.blacklist
    assert afh.map_updates >= 1
    assert not conn.chan_map.is_used(22)


def test_abort_rate_drops_after_adaptation():
    plane = jammed_plane(channels=(5, 22, 30))
    conn = busy_conn(plane)
    afh = AfhManager(conn, AfhConfig(eval_interval_ns=5 * SEC, min_samples=3,
                                     probation_evals=1000))
    afh.start()
    plane.sim.run(until=60 * SEC)
    aborts_mid = conn.coord.stats.events_crc_abort
    events_mid = conn.coord.stats.events_active
    plane.sim.run(until=120 * SEC)
    d_aborts = conn.coord.stats.events_crc_abort - aborts_mid
    d_events = conn.coord.stats.events_active - events_mid
    assert {5, 22, 30} <= afh.blacklist
    assert d_aborts / max(d_events, 1) < 0.02, "post-adaptation aborts persist"


def test_min_channels_floor_respected():
    plane = jammed_plane(channels=tuple(range(32)))  # almost everything dead
    conn = busy_conn(plane)
    afh = AfhManager(
        conn,
        AfhConfig(eval_interval_ns=5 * SEC, min_samples=2, min_channels=10,
                  probation_evals=1000),
    )
    afh.start()
    plane.sim.run(until=240 * SEC)
    assert len(afh.blacklist) <= 37 - 10
    assert conn.chan_map.num_used >= 10


def test_probation_re_admits_channels():
    plane = jammed_plane()
    conn = busy_conn(plane)
    afh = AfhManager(
        conn,
        AfhConfig(eval_interval_ns=2 * SEC, min_samples=3, probation_evals=2),
    )
    afh.start()
    plane.sim.run(until=30 * SEC)
    assert afh.paroles >= 1


def test_clean_medium_never_blacklists():
    plane = BlePlane(base_ber=0.0)
    conn = busy_conn(plane)
    afh = AfhManager(conn, AfhConfig(eval_interval_ns=5 * SEC, min_samples=3))
    afh.start()
    plane.sim.run(until=60 * SEC)
    assert afh.blacklist == set()
    assert afh.map_updates == 0


def test_stop_halts_adaptation():
    plane = jammed_plane()
    conn = busy_conn(plane)
    afh = AfhManager(conn, AfhConfig(eval_interval_ns=5 * SEC, min_samples=3))
    afh.start()
    afh.stop()
    plane.sim.run(until=30 * SEC)
    assert afh.map_updates == 0
