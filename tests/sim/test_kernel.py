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


def test_recurring_timer_rearms_the_same_object_after_its_own_timers():
    sim = Simulator()
    log = []
    handles = []

    def tick():
        log.append(("tick", sim.now))
        # Same-instant timers scheduled by the callback keep their lower
        # seq: the re-armed timer takes the next one after them.
        sim.at(sim.now + 100, log.append, ("other", sim.now + 100))
        handles.append((timer.seq, timer.queued))
        return sim.now + 100 if sim.now < 300 else None

    timer = sim.recurring(100, tick)
    sim.run()
    assert log == [
        ("tick", 100), ("other", 200), ("tick", 200), ("other", 300),
        ("tick", 300), ("other", 400),
    ]
    assert [queued for _, queued in handles] == [False, False, False]
    seqs = [seq for seq, _ in handles]
    assert seqs == [0, 2, 4]  # each re-arm drew the seq after "other"
    assert not timer.queued and sim.pending() == 0


def test_recurring_timer_ends_when_its_callback_returns_none():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        return None

    sim.recurring(10, tick)
    sim.run()
    assert fired == [10]
    assert sim.pending() == 0 and sim.queue_depth() == 0


def test_recurring_timer_cancelled_in_its_own_callback_is_not_rearmed():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if sim.now == 200:
            timer.cancel()
        return sim.now + 100  # a time, but the timer is cancelled

    timer = sim.recurring(100, tick)
    sim.run(until=SEC)
    assert fired == [100, 200]
    assert sim.pending() == 0 and sim.queue_depth() == 0
    assert not timer.queued


def test_recurring_time_in_past_raises():
    sim = Simulator()
    sim.recurring(100, lambda: 50)
    with pytest.raises(SimulationError):
        sim.run()


def test_outside_cancel_of_a_recurring_timer_is_counted():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        return sim.now + 100

    timer = sim.recurring(100, tick)
    sim.run(until=250)
    assert fired == [100, 200]
    assert timer.queued and sim.pending() == 1
    timer.cancel()  # from outside the callback: the queued entry is counted
    assert sim.pending() == 0 and sim.queue_depth() == 1
    sim.run(until=SEC)
    assert fired == [100, 200]
    assert sim.queue_depth() == 0
