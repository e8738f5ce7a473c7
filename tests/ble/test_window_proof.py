"""The subordinate's receive window proof (DESIGN §11).

``Connection._window_always_hits`` claims that, under its condition, the
exact window arithmetic of ``_sub_window`` reports a hit at every anchor,
however many events have passed since the last resync.  These tests draw
configurations inside the condition and check the exact arithmetic, show
that one just outside it misses, and that a proven link's idle event
reads no clock at all.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ble.config import BleConfig, ConnParams
from repro.sim.clock import DriftingClock
from repro.sim.units import MSEC, SEC, USEC

from .conftest import BlePlane


def link(ppms, scas, base_ns, interval_ns, sub_epoch=0, sub_offset=0, anchor0=MSEC):
    """A coordinator (node 0) and subordinate (node 1) with the given clocks."""
    plane = BlePlane(
        ppms=list(ppms),
        config_factory=lambda i: BleConfig(
            declared_sca_ppm=scas[i], window_widening_base_ns=base_ns
        ),
    )
    plane.nodes[1].clock = DriftingClock(
        plane.sim, ppm=ppms[1], local_offset=sub_offset, epoch=sub_epoch
    )
    return plane.connect(
        0, 1, params=ConnParams(interval_ns=interval_ns), anchor0=anchor0
    )


def window_hits(conn, events):
    """The exact arithmetic at the anchor ``events`` after the last resync."""
    conn.event_counter = conn._sync_counter + events
    t0 = conn._sync_true + events * conn._interval_true
    pred, widening = conn._sub_window()
    return pred - widening <= t0 <= pred + widening


@given(
    ppm_s=st.floats(min_value=-999.999, max_value=999.999),
    sca_c=st.floats(min_value=0.0, max_value=1000.0),
    sca_s=st.floats(min_value=0.0, max_value=1000.0),
    share=st.floats(min_value=-1.0, max_value=1.0),
    base_ns=st.integers(min_value=4, max_value=100 * USEC),
    interval_ns=st.integers(min_value=MSEC, max_value=4 * SEC),
    sub_epoch=st.integers(min_value=-10**12, max_value=10**12),
    sub_offset=st.integers(min_value=-10**12, max_value=10**12),
    anchor0=st.integers(min_value=0, max_value=10**14),
    events=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=400, deadline=None)
def test_window_hits_whenever_the_proof_holds(
    ppm_s, sca_c, sca_s, share, base_ns, interval_ns, sub_epoch, sub_offset,
    anchor0, events,
):
    # the relative drift is drawn as a share of the most the condition allows
    ppm_c = ppm_s + share * (0.99 * (sca_c + sca_s) - 1)
    assume(abs(ppm_c) < 1000)
    assume(abs(ppm_c - ppm_s) + 1 <= 0.99 * (sca_c + sca_s))
    conn = link(
        (ppm_c, ppm_s), (sca_c, sca_s), base_ns, interval_ns,
        sub_epoch, sub_offset, anchor0,
    )
    assert conn._window_proven
    assert window_hits(conn, events)


@pytest.mark.parametrize(
    "ppms, base_ns, interval_ns, proven",
    [
        ((3.0, -3.0), 32 * USEC, 75 * MSEC, True),  # the paper's clocks
        ((49.0, -49.0), 4, MSEC, True),  # |98| + 1 = 0.99 x 100, every edge
        ((49.0, -49.5), 4, MSEC, False),
        ((49.0, -49.0), 3, MSEC, False),
        ((49.0, -49.0), 4, MSEC - 1, False),
        ((999.9, 999.9), 4, MSEC, True),
        ((1000.0, 1000.0), 4, MSEC, False),
        ((-1000.0, -1000.0), 4, MSEC, False),
    ],
)
def test_the_condition_at_its_edges(ppms, base_ns, interval_ns, proven):
    conn = link(ppms, (50.0, 50.0), base_ns, interval_ns)
    assert conn._window_proven is proven


def test_ablation_link_is_outside_the_proof_and_misses():
    """The window ablation's clocks (±150 ppm, 0 SCA, 8 us base)."""
    conn = link((150.0, -150.0), (0.0, 0.0), 8 * USEC, 75 * MSEC)
    assert not conn._window_proven
    # 300 ppm of a 75 ms interval is 22.5 us, beyond the 8 us window
    assert window_hits(conn, 0)
    assert not window_hits(conn, 1)


def test_standard_link_at_300_ppm_is_outside_the_proof():
    """The ablation's honest variant (301 > 0.99 x 100 ppm): its window
    holds only while the subordinate resyncs at least every other event."""
    conn = link((150.0, -150.0), (50.0, 50.0), 32 * USEC, 75 * MSEC)
    assert not conn._window_proven
    assert window_hits(conn, 2)
    assert not window_hits(conn, 3)


def test_param_update_recomputes_the_proof():
    conn = link((3.0, -3.0), (50.0, 50.0), 32 * USEC, 75 * MSEC)
    assert conn._window_proven
    conn.request_param_update(ConnParams(interval_ns=MSEC // 2))
    conn.sim.run(until=SEC)
    assert conn.params.interval_ns == MSEC // 2
    assert not conn._window_proven


def test_idle_event_on_a_proven_link_reads_no_clock(monkeypatch):
    conn = link((3.0, -3.0), (50.0, 50.0), 32 * USEC, 75 * MSEC)
    assert conn._window_proven
    calls = []
    for name in ("to_true", "to_local"):
        method = getattr(DriftingClock, name)

        def counted(self, t, method=method, name=name):
            calls.append(name)
            return method(self, t)

        monkeypatch.setattr(DriftingClock, name, counted)
    conn.sim.run(until=SEC)
    assert conn.coord.stats.events_active == 14
    assert calls == []
