"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator, SEC, MSEC
from repro.sim.kernel import COMPACT_MIN_CANCELLED, SimulationError
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE


@pytest.fixture
def clean_trace():
    TRACE.reset()
    yield
    TRACE.reset()


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(30, lambda: fired.append(30))
    sim.at(10, lambda: fired.append(10))
    sim.at(20, lambda: fired.append(20))
    sim.run()
    assert fired == [10, 20, 30]


def test_same_timestamp_fires_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.at(5, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_after_is_relative_to_now():
    sim = Simulator()
    seen = []
    sim.at(100, lambda: sim.after(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [150]


def test_run_until_excludes_horizon_events():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append(10))
    sim.at(20, lambda: fired.append(20))
    sim.run(until=20)
    assert fired == [10]
    assert sim.now == 20
    # the horizon event is still pending and fires on the next run
    sim.run()
    assert fired == [10, 20]


def test_run_until_advances_now_without_events():
    sim = Simulator()
    sim.run(until=5 * SEC)
    assert sim.now == 5 * SEC


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.at(10, lambda: fired.append("nope"))
    timer.cancel()
    sim.at(20, lambda: fired.append("yes"))
    sim.run()
    assert fired == ["yes"]


def test_cancel_from_within_callback():
    sim = Simulator()
    fired = []
    later = sim.at(20, lambda: fired.append("later"))
    sim.at(10, later.cancel)
    sim.run()
    assert fired == []


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: (fired.append(10), sim.stop()))
    sim.at(20, lambda: fired.append(20))
    sim.run()
    assert fired == [10]
    sim.run()
    assert fired == [10, 20]


def test_tracing_switched_on_between_runs_covers_the_next_run(clean_trace):
    """The dispatch loop is chosen per ``run()`` call: tracing armed
    between two runs records exactly the second run's events."""
    sim = Simulator()
    for i in range(10):
        sim.at(i * MSEC, lambda: None)
    t1, t2 = 4 * MSEC, 8 * MSEC
    first = sim.run(until=t1)
    ring = RingBufferSink()
    TRACE.configure(sinks=[ring])
    second = sim.run(until=t2)
    dispatched = [r.time_ns for r in ring.records() if r.key == "kernel.dispatch"]
    assert dispatched == [i * MSEC for i in range(4, 8)]
    assert (first, second) == (4, 4)


def test_periodic_rescheduling_pattern():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 4:
            sim.after(MSEC, tick)

    sim.after(MSEC, tick)
    sim.run()
    assert ticks == [MSEC, 2 * MSEC, 3 * MSEC, 4 * MSEC]


def test_schedule_between_runs_after_a_parked_horizon():
    """After run(until=...) parks ``now`` past the last event, an ``at``
    just after ``now`` still fires on the next run."""
    sim = Simulator()
    fired = []
    sim.at(20 * MSEC, fired.append, "first")
    sim.run(until=20 * MSEC + 10)
    sim.at(20 * MSEC + 20, fired.append, "after-horizon")
    sim.run()
    assert fired == ["first", "after-horizon"]


def test_stale_cancel_does_not_touch_a_new_timer():
    """A handle names its own timer for good: cancelling it again after
    ``run`` popped it leaves every later timer alone."""
    sim = Simulator()
    fired = []
    old = sim.at(50, fired.append, "old")
    old.cancel()
    sim.run(until=100)  # pops the cancelled timer
    sim.at(200, fired.append, "new")
    old.cancel()
    sim.run()
    assert fired == ["new"]


def test_pending_is_live_count():
    sim = Simulator()
    handles = [sim.at(i * 1000, lambda: None) for i in range(10)]
    assert sim.pending() == 10
    assert sim.queue_depth() == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending() == 6
    assert sim.queue_depth() == 10  # lazily deleted, still resident
    handles[0].cancel()  # double-cancel must not double-count
    assert sim.pending() == 6


def test_compaction_reclaims_cancelled_timers():
    sim = Simulator()
    n = 3 * COMPACT_MIN_CANCELLED
    handles = [sim.at((i % 7) * 6 * MSEC + i, lambda: None) for i in range(n)]
    keep = handles[:: 3]
    for handle in handles:
        if handle not in keep:
            handle.cancel()
    # Cancelled (2n/3) outnumber live (n/3): compaction must have fired at
    # least once, dropping resident count well below the scheduled total
    # (post-compaction cancels may lazily re-accumulate below threshold).
    assert sim.pending() == len(keep)
    assert sim.queue_depth() < n
    assert sim.queue_depth() - sim.pending() < COMPACT_MIN_CANCELLED * 2
    fired = []
    for handle in keep:
        handle.callback = fired.append
        handle.args = (handle.seq,)
    sim.run()
    assert sorted(fired) == sorted(h.seq for h in keep)


def test_rearm_reuses_timer_object():
    sim = Simulator()
    fired = []
    timer = sim.at(100, fired.append, "a")
    sim.run(until=200)
    assert fired == ["a"]
    again = sim.rearm(timer, 300)
    assert again is timer  # same object, no allocation
    sim.run(until=400)
    assert fired == ["a", "a"]


def test_rearm_in_past_raises():
    sim = Simulator()
    timer = sim.at(100, lambda: None)
    sim.run(until=500)
    with pytest.raises(SimulationError):
        sim.rearm(timer, 400)


def test_rearm_of_queued_timer_falls_back_to_fresh_schedule():
    sim = Simulator()
    fired = []
    timer = sim.at(100, fired.append, "x")
    # Still queued: rearm must not corrupt the queued entry.
    clone = sim.rearm(timer, 200)
    assert clone is not timer
    sim.run()
    assert fired == ["x", "x"]
