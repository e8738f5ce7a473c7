"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator, SEC, MSEC
from repro.sim.kernel import WHEEL_SLOT_NS, SimulationError
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


def test_peek_skips_cancelled():
    sim = Simulator()
    t1 = sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    t1.cancel()
    assert sim.peek() == 20


def test_peek_crosses_many_cancelled_only_slots():
    # 1,200 slots holding one cancelled timer each, ahead of 1,500 live
    # timers: too few cancellations to trigger compaction, so peek must
    # walk every dead slot (iteratively -- one frame per slot overflows).
    sim = Simulator()
    live_at = 1201 * WHEEL_SLOT_NS
    for i in range(1500):
        sim.at(live_at + i, lambda: None)
    dead = [sim.at(i * WHEEL_SLOT_NS, lambda: None) for i in range(1, 1201)]
    for timer in dead:
        timer.cancel()
    assert sim.queue_depth() == 2700
    assert sim.peek() == live_at
    assert sim.pending() == sim.queue_depth() == 1500


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.at(i * MSEC, lambda: None)
    sim.run()
    assert sim.events_executed == 5


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
    assert sim.events_executed == first + second


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
