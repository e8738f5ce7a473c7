"""Deterministic discrete-event simulation kernel.

The kernel dispatches :class:`Timer` callbacks in ``(fire_time_ns,
sequence_number)`` order.  The sequence number makes execution order fully
deterministic when several timers share a timestamp: they fire in
scheduling order.  Timestamps are integer nanoseconds of *true* time --
node-local (drifting) views of time are layered on top by
:class:`repro.sim.clock.DriftingClock` and never enter the kernel.

Storage is one binary heap of ``(when, seq, timer)`` tuples.  ``seq`` is
unique, so heap comparisons never reach the timer and stay on C ints (see
DESIGN.md, "One-heap kernel").

Cancellation is lazy (a flag checked at pop time) but counted, so
:meth:`Simulator.pending` is O(1) and the heap is compacted once cancelled
timers outnumber live ones -- long runs that cancel many timers (24 h
supervision-heavy scenarios) stay bounded in memory.  A site that
reschedules itself every event (a connection's anchor) schedules once with
:meth:`Simulator.recurring`: its callback returns the next time, and the
dispatch loop queues the same timer again.

Handle contract: a recurring timer stays live under the same object until
its callback returns None, or it is cancelled; its owner may keep the
handle, and cancelling it (from inside its own callback too) ends it.
Every other handle keeps naming its own timer: cancelling one that already
fired or was cancelled has no effect.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.trace.record import callback_name
from repro.trace.tracer import TRACE

#: Compaction threshold: never compact below this many cancelled timers.
COMPACT_MIN_CANCELLED: int = 64

#: One heap entry: ``(when, seq, timer)``.
_Entry = Tuple[int, int, "Timer"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class Timer:
    """A handle for one scheduled callback.

    Timers are returned by :meth:`Simulator.at` / :meth:`Simulator.after` /
    :meth:`Simulator.recurring` and can be cancelled before they fire.  A
    cancelled timer stays queued but is skipped by the event loop (lazy
    deletion).
    """

    __slots__ = (
        "when", "seq", "callback", "args", "cancelled", "queued", "recurring",
        "sim",
    )

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Simulator",
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True while the timer sits in the kernel's heap.
        self.queued = True
        #: Queued again at the time its callback returns (see
        #: :meth:`Simulator.recurring`).
        self.recurring = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.when}ns seq={self.seq} {state} {self.callback!r}>"


class Simulator:
    """Event loop over integer-nanosecond true time.

    Typical use::

        sim = Simulator()
        sim.after(1_000_000, lambda: print("one millisecond"))
        sim.run(until=SEC)

    The loop stops when the queue is empty, when the optional horizon is
    reached, or when :meth:`stop` is called from within a callback.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: Heap of ``(when, seq, timer)``, lazily cancelled timers included.
        self._heap: List[_Entry] = []
        #: Cancelled-but-not-yet-popped timers (makes pending() O(1)).
        self._n_cancelled: int = 0
        #: Callbacks that have returned, over every run() call.
        self.events_dispatched: int = 0

    @property
    def now(self) -> int:
        """Current true time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def at(self, when: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute true time ``when`` (ns)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when}ns, already at t={self._now}ns"
            )
        when = int(when)
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(when, seq, callback, args, self)
        heappush(self._heap, (when, seq, timer))
        return timer

    def after(self, delay: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}ns")
        return self.at(self._now + int(delay), callback, *args)

    def recurring(self, when: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at ``when``, and again at each time
        it returns.

        After the callback returns a time (integer ns), the dispatch loop
        queues the same :class:`Timer` at that time, with the next sequence
        number (after every timer the callback scheduled).  Returning None
        ends the timer, and so does cancelling it, even from inside its own
        callback.  A returned time before ``now`` raises
        :class:`SimulationError`, as :meth:`at` does.
        """
        timer = self.at(when, callback, *args)
        timer.recurring = True
        return timer

    def _note_cancel(self) -> None:
        """Bookkeeping for one queued timer turning cancelled."""
        self._n_cancelled += 1
        if (
            self._n_cancelled >= COMPACT_MIN_CANCELLED
            and self._n_cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled timer from the heap.

        The heap is filtered in place so dispatch loops holding a local
        reference keep seeing the live heap.
        """
        heap = self._heap
        live: List[_Entry] = []
        for entry in heap:
            if entry[2].cancelled:
                entry[2].queued = False
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._n_cancelled = 0

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request the running loop to stop after the current callback."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run the event loop.

        :param until: optional horizon in true ns.  Events scheduled at
            exactly ``until`` are *not* executed; on return ``now`` equals
            ``until`` (if given) or the time of the last executed event.
        :returns: the number of callbacks executed during this call.

        The dispatch loop is chosen once per call: the plain loop unless
        tracing is enabled, so an untraced run pays no per-event predicate.
        The tracer is configured and reset between runs; one switched on
        inside a run takes effect at the next call.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            if TRACE.enabled:
                executed = self._loop_instrumented(until)
            else:
                executed = self._loop_plain(until)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed

    def _loop_plain(self, until: Optional[int]) -> int:
        """Dispatch with tracing off (the fast path)."""
        dispatched = self.events_dispatched
        heap = self._heap
        while heap and not self._stopped:
            when, _, timer = heap[0]
            if timer.cancelled:
                heappop(heap)
                self._n_cancelled -= 1
                timer.queued = False
                continue
            if until is not None and when >= until:
                break
            heappop(heap)
            timer.queued = False
            self._now = when
            again = timer.callback(*timer.args)
            self.events_dispatched += 1
            if again is not None and timer.recurring and not timer.cancelled:
                if again < when:
                    raise SimulationError(
                        f"cannot schedule at t={again}ns, already at t={when}ns"
                    )
                timer.when = again
                timer.seq = seq = self._seq
                self._seq = seq + 1
                timer.queued = True
                heappush(heap, (again, seq, timer))
        return self.events_dispatched - dispatched

    def _loop_instrumented(self, until: Optional[int]) -> int:
        """Dispatch with tracing enabled."""
        dispatched = self.events_dispatched
        heap = self._heap
        while heap and not self._stopped:
            when, _, timer = heap[0]
            if timer.cancelled:
                heappop(heap)
                self._n_cancelled -= 1
                timer.queued = False
                continue
            if until is not None and when >= until:
                break
            heappop(heap)
            timer.queued = False
            self._now = when
            if TRACE.enabled:
                TRACE.emit(
                    when,
                    "kernel",
                    "dispatch",
                    timer_seq=timer.seq,
                    callback=callback_name(timer.callback),
                )
            again = timer.callback(*timer.args)
            self.events_dispatched += 1
            if again is not None and timer.recurring and not timer.cancelled:
                if again < when:
                    raise SimulationError(
                        f"cannot schedule at t={again}ns, already at t={when}ns"
                    )
                timer.when = again
                timer.seq = seq = self._seq
                self._seq = seq + 1
                timer.queued = True
                heappush(heap, (again, seq, timer))
        return self.events_dispatched - dispatched

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return len(self._heap) - self._n_cancelled

    def queue_depth(self) -> int:
        """Queued timers including lazily-deleted ones (O(1)).

        The cancelled-inclusive sibling of :meth:`pending`: it bounds
        :meth:`pending` from above and tracks memory pressure.
        """
        return len(self._heap)
