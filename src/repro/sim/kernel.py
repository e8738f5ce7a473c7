"""Deterministic discrete-event simulation kernel.

The kernel dispatches :class:`Timer` callbacks in ``(fire_time_ns,
sequence_number)`` order.  The sequence number makes execution order fully
deterministic when several timers share a timestamp: they fire in
scheduling order.  Timestamps are integer nanoseconds of *true* time --
node-local (drifting) views of time are layered on top by
:class:`repro.sim.clock.DriftingClock` and never enter the kernel.

Storage is a two-level hierarchical timer wheel instead of a single binary
heap, because the dominant timers (connection-event anchors, exchange
follow-ups) live a few milliseconds to a few hundred milliseconds ahead:

* the **current-slot heap** holds timers of the slot being dispatched,
  ordered as ``(when, seq, timer)`` tuples so comparisons stay in C;
* the **wheel** is a ring of :data:`WHEEL_SLOTS` unsorted buckets, each
  :data:`WHEEL_SLOT_NS` wide, giving O(1) schedule for anything within
  ~270 ms; bucket lists are cleared and reused in place (eager slot
  reuse), never reallocated;
* the **overflow heap** takes the long tail (1 s producer ticks, CoAP
  retransmission timers, supervision horizons).

Dispatch order is *identical* to the classic all-heap kernel: a slot's
bucket is heapified on entry, so timers still fire strictly by
``(when, seq)``; the bucketing only changes *where* a timer waits, never
*when* it fires (see DESIGN.md, "Timer-wheel kernel").

Cancellation is lazy (a flag checked at pop time) but counted, so
:meth:`Simulator.pending` is O(1) and the structures are compacted once
cancelled timers outnumber live ones -- long runs that cancel many timers
(24 h supervision-heavy scenarios) stay bounded in memory.  Timer objects
popped in a cancelled state feed a free list that :meth:`Simulator.at`
reuses, and hot reschedule sites reuse their own just-fired timer via
:meth:`Simulator.rearm`; both kill the per-event allocation.

Handle contract: after calling :meth:`Timer.cancel` -- or after the timer
fired, if the scheduling site uses :meth:`Simulator.rearm` -- drop the
handle.  Cancelled timers are recycled; a retained stale handle could
cancel an unrelated, newly issued timer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.registry import METRICS
from repro.trace.record import callback_name
from repro.trace.tracer import TRACE

#: log2 of the wheel slot width: each bucket spans 2**21 ns (~2.1 ms).
WHEEL_SLOT_SHIFT: int = 21
#: Width of one wheel bucket in true nanoseconds.
WHEEL_SLOT_NS: int = 1 << WHEEL_SLOT_SHIFT
#: Number of wheel buckets (a power of two so the ring index is a mask).
WHEEL_SLOTS: int = 128
#: Ring index mask, ``slot & WHEEL_SLOT_MASK``.
WHEEL_SLOT_MASK: int = WHEEL_SLOTS - 1
#: Scheduling horizon the wheel covers; later timers go to the overflow heap.
WHEEL_HORIZON_NS: int = WHEEL_SLOTS * WHEEL_SLOT_NS
#: All-ones occupancy mask (one bit per wheel bucket).
_OCC_ALL: int = (1 << WHEEL_SLOTS) - 1
#: Compaction threshold: never compact below this many cancelled timers.
COMPACT_MIN_CANCELLED: int = 64
#: Upper bound on the Timer free list (memory cap, not a correctness knob).
FREE_LIST_MAX: int = 512

#: One entry of the ordered structures: ``(when, seq, timer)``.
_Entry = Tuple[int, int, "Timer"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class Timer:
    """A handle for one scheduled callback.

    Timers are returned by :meth:`Simulator.at` / :meth:`Simulator.after` and
    can be cancelled before they fire.  A cancelled timer stays queued but is
    skipped by the event loop (lazy deletion) and recycled afterwards -- drop
    the handle once cancelled (see the module docstring's handle contract).
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "queued", "sim")

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True while the timer sits in one of the kernel's structures.
        self.queued = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent on the same duty."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None and self.queued:
                sim._note_cancel()

    def __lt__(self, other: "Timer") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

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
        #: Heap of ``(when, seq, timer)`` for the slot being dispatched --
        #: plus any timer scheduled at or before the cursor slot.
        self._cur: List[_Entry] = []
        #: Absolute slot index (``when >> WHEEL_SLOT_SHIFT``) of ``_cur``.
        self._cur_slot: int = 0
        #: Ring of unsorted near-future buckets.
        self._wheel: List[List[Timer]] = [[] for _ in range(WHEEL_SLOTS)]
        #: Number of timers currently resident in the wheel ring.
        self._wheel_count: int = 0
        #: Occupancy bitmask of the ring (bit i set = bucket i non-empty),
        #: letting the cursor jump to the next occupied bucket instead of
        #: probing the (mostly empty, for >2 ms timers) slots in between.
        self._occ: int = 0
        #: Heap of ``(when, seq, timer)`` beyond the wheel horizon.
        self._overflow: List[_Entry] = []
        #: Timers in all structures, including lazily-cancelled ones.
        self._n_items: int = 0
        #: Cancelled-but-not-yet-popped timers (makes pending() O(1)).
        self._n_cancelled: int = 0
        #: Recycled Timer objects awaiting reuse.
        self._free: List[Timer] = []
        #: Number of callbacks executed so far (cheap progress metric).
        self.events_executed: int = 0

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
        free = self._free
        if free:
            timer = free.pop()
            timer.when = when
            timer.seq = seq
            timer.callback = callback
            timer.args = args
            timer.cancelled = False
        else:
            timer = Timer(when, seq, callback, args, self)
        self._insert(timer)
        return timer

    def after(self, delay: int, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}ns")
        return self.at(self._now + int(delay), callback, *args)

    def rearm(self, timer: Timer, when: int) -> Timer:
        """Reschedule a timer that already fired, reusing its object.

        The eager-reuse fast path for sites that reschedule themselves every
        event (connection anchors, producer ticks): the caller owns the
        handle, knows it just fired, and keeps the same callback and args.
        A timer that is still queued (e.g. cancelled but not yet popped)
        falls back to a fresh :meth:`at` allocation.
        """
        if timer.queued:
            return self.at(when, timer.callback, *timer.args)
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when}ns, already at t={self._now}ns"
            )
        timer.when = int(when)
        timer.seq = self._seq
        self._seq += 1
        timer.cancelled = False
        self._insert(timer)
        return timer

    def _insert(self, timer: Timer) -> None:
        """Place a timer in the structure its horizon calls for."""
        timer.queued = True
        slot = timer.when >> WHEEL_SLOT_SHIFT
        delta = slot - self._cur_slot
        if delta <= 0:
            # Current slot -- or, between runs, a slot the cursor already
            # passed; the cur heap orders either case correctly.
            heappush(self._cur, (timer.when, timer.seq, timer))
        elif delta < WHEEL_SLOTS:
            idx = slot & WHEEL_SLOT_MASK
            self._wheel[idx].append(timer)
            self._wheel_count += 1
            self._occ |= 1 << idx
        else:
            heappush(self._overflow, (timer.when, timer.seq, timer))
        self._n_items += 1

    def _note_cancel(self) -> None:
        """Bookkeeping for one queued timer turning cancelled."""
        self._n_cancelled += 1
        if (
            self._n_cancelled >= COMPACT_MIN_CANCELLED
            and self._n_cancelled * 2 > self._n_items
        ):
            self._compact()

    def _recycle(self, timer: Timer) -> None:
        """Return a popped-while-cancelled timer to the free list."""
        timer.queued = False
        free = self._free
        if len(free) < FREE_LIST_MAX:
            timer.args = ()
            free.append(timer)

    def _compact(self) -> None:
        """Drop every cancelled timer from all structures (in place).

        ``self._cur`` is filtered in place so dispatch loops holding a local
        reference keep seeing the live heap.
        """
        cur = self._cur
        live = [entry for entry in cur if not entry[2].cancelled]
        if len(live) != len(cur):
            for entry in cur:
                if entry[2].cancelled:
                    self._recycle(entry[2])
            cur[:] = live
            heapify(cur)
        for idx, bucket in enumerate(self._wheel):
            if not bucket:
                continue
            kept = [t for t in bucket if not t.cancelled]
            if len(kept) != len(bucket):
                for t in bucket:
                    if t.cancelled:
                        self._recycle(t)
                self._wheel_count -= len(bucket) - len(kept)
                bucket[:] = kept
                if not kept:
                    self._occ &= ~(1 << idx)
        overflow = self._overflow
        live = [entry for entry in overflow if not entry[2].cancelled]
        if len(live) != len(overflow):
            for entry in overflow:
                if entry[2].cancelled:
                    self._recycle(entry[2])
            overflow[:] = live
            heapify(overflow)
        self._n_items -= self._n_cancelled
        self._n_cancelled = 0

    def _advance(self) -> bool:
        """Move the cursor to the next occupied slot and load it into ``_cur``.

        Called with ``_cur`` empty.  Returns False when no timers remain.
        """
        overflow = self._overflow
        of_slot = (overflow[0][0] >> WHEEL_SLOT_SHIFT) if overflow else -1
        if self._wheel_count:
            # Jump straight to the nearest occupied bucket: rotate the
            # occupancy mask so the search start becomes bit 0, then take
            # the lowest set bit.  All resident timers sit within one ring
            # revolution of the cursor, so the offset is unambiguous.
            start = self._cur_slot + 1
            r = start & WHEEL_SLOT_MASK
            occ = self._occ
            rot = ((occ >> r) | (occ << (WHEEL_SLOTS - r))) & _OCC_ALL
            s = start + ((rot & -rot).bit_length() - 1)
            if of_slot < 0 or s <= of_slot:
                idx = s & WHEEL_SLOT_MASK
                bucket = self._wheel[idx]
                self._cur_slot = s
                self._wheel_count -= len(bucket)
                self._occ = occ & ~(1 << idx)
                cur = [(t.when, t.seq, t) for t in bucket]
                bucket.clear()  # eager slot reuse: keep the list object
                while overflow and overflow[0][0] >> WHEEL_SLOT_SHIFT == s:
                    cur.append(heappop(overflow))
                heapify(cur)
                self._cur = cur
                return True
        if overflow:
            self._cur_slot = of_slot
            cur = []
            while overflow and overflow[0][0] >> WHEEL_SLOT_SHIFT == of_slot:
                cur.append(heappop(overflow))
            heapify(cur)
            self._cur = cur
            return True
        return False

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
        tracing or metrics are enabled, so the common uninstrumented run
        pays no per-event predicate.  Hubs are configured and reset between
        runs; one switched on inside a run takes effect at the next call.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            if TRACE.enabled or METRICS.enabled:
                executed = self._loop_instrumented(until)
            else:
                executed = self._loop_plain(until)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        self.events_executed += executed
        return executed

    def _loop_plain(self, until: Optional[int]) -> int:
        """Dispatch with no instrumentation enabled (the fast path)."""
        executed = 0
        cur = self._cur
        while not self._stopped:
            if not cur:
                if not self._advance():
                    break
                cur = self._cur
                continue
            entry = cur[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(cur)
                self._n_items -= 1
                self._n_cancelled -= 1
                self._recycle(timer)
                continue
            when = entry[0]
            if until is not None and when >= until:
                break
            heappop(cur)
            self._n_items -= 1
            timer.queued = False
            self._now = when
            timer.callback(*timer.args)
            executed += 1
        return executed

    def _loop_instrumented(self, until: Optional[int]) -> int:
        """Dispatch with tracing and/or metrics enabled."""
        executed = 0
        cur = self._cur
        while not self._stopped:
            if not cur:
                if not self._advance():
                    break
                cur = self._cur
                continue
            entry = cur[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(cur)
                self._n_items -= 1
                self._n_cancelled -= 1
                self._recycle(timer)
                continue
            when = entry[0]
            if until is not None and when >= until:
                break
            heappop(cur)
            self._n_items -= 1
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
            timer.callback(*timer.args)
            executed += 1
            if METRICS.enabled:
                METRICS.inc("sim", "kernel.events_dispatched")
        return executed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Return the timestamp of the next pending event, or ``None``."""
        while True:
            cur = self._cur
            while cur and cur[0][2].cancelled:
                entry = heappop(cur)
                self._n_items -= 1
                self._n_cancelled -= 1
                self._recycle(entry[2])
            if cur:
                return cur[0][0]
            if not self._advance():
                return None

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._n_items - self._n_cancelled

    def queue_depth(self) -> int:
        """Queued timers including lazily-deleted ones (O(1)).

        The cancelled-inclusive sibling of :meth:`pending`: it bounds
        :meth:`pending` from above and tracks memory pressure.
        """
        return self._n_items
