"""Reusable lockstep-equivalence scaffolding.

Differential suites in this repo all share one shape: drive the *same*
deterministic workload through an optimized implementation and through a
deliberately naive reference, then assert the observable logs never
diverge.  This module holds the pieces two suites already share:

* :class:`ReferenceKernel` / :class:`RefHandle` -- the textbook event
  kernel (one heap, lazy cancellation, nothing counted or reused), the
  dispatch-order reference for :class:`repro.sim.kernel.Simulator`
  (``tests/sim/test_kernel_reference.py``);
* :class:`TimerWorkload` -- the randomized schedule/cancel/recurring
  workload that drives a kernel through same-tick, short and long delays
  and bounded runs;
* :func:`assert_logs_identical` -- byte-equality with a *useful* failure
  message (first divergence index and both sides' entries), used by the
  spatial-medium differential suite (``tests/phy/
  test_medium_differential.py``) where a bare ``assert a == b`` over tens
  of thousands of trace records would be undebuggable.
"""

import random
from heapq import heappop, heappush

#: The workloads' short and long delay scales (~2.1 ms and ~268 ms).  The
#: randomized schedules are drawn from these exact values, so changing
#: them changes every workload.
SHORT_NS = 1 << 21
LONG_NS = 1 << 28


class RefHandle:
    """Cancellation handle of the reference kernel."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "recurring")

    def __init__(self, when, seq, callback, args):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.recurring = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """The classic all-heap kernel: one binary heap, lazy cancellation.

    Implements just enough of the :class:`repro.sim.kernel.Simulator`
    surface for the equivalence workloads: ``now``, ``at``, ``after``,
    ``recurring``, ``run``, ``pending``.
    """

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._heap = []

    @property
    def now(self):
        return self._now

    def at(self, when, callback, *args):
        assert when >= self._now
        handle = RefHandle(int(when), None, callback, args)
        self._push(handle)
        return handle

    def _push(self, handle):
        handle.seq = self._seq
        self._seq += 1
        heappush(self._heap, (handle.when, handle.seq, handle))

    def after(self, delay, callback, *args):
        return self.at(self._now + int(delay), callback, *args)

    def recurring(self, when, callback, *args):
        handle = self.at(when, callback, *args)
        handle.recurring = True
        return handle

    def run(self, until=None):
        executed = 0
        heap = self._heap
        while heap:
            when, _seq, handle = heap[0]
            if handle.cancelled:
                heappop(heap)
                continue
            if until is not None and when >= until:
                break
            heappop(heap)
            self._now = when
            again = handle.callback(*handle.args)
            executed += 1
            # Reference semantics: a recurring timer whose callback returned
            # a time, and did not cancel it, is scheduled again under a
            # fresh sequence number, after everything the callback scheduled.
            if handle.recurring and again is not None and not handle.cancelled:
                assert again >= self._now
                handle.when = int(again)
                self._push(handle)
        if until is not None and self._now < until:
            self._now = until
        return executed

    def pending(self):
        return sum(1 for _, _, h in self._heap if not h.cancelled)


class TimerWorkload:
    """One deterministic schedule/cancel/recurring workload bound to a kernel.

    All decisions come from a private ``random.Random(seed)``: as long as
    both kernels dispatch in the same order, both harnesses draw the same
    random sequence and therefore issue identical operations.  Any ordering
    divergence desynchronizes the logs, which the caller asserts against.
    """

    #: Delays from now: same tick, a few ns, around one short scale and
    #: around one and two long scales.
    OFFSETS = (
        0,
        1,
        1_337,
        SHORT_NS - 1,
        SHORT_NS,
        3 * SHORT_NS + 17,
        LONG_NS - 1,
        LONG_NS,
        2 * LONG_NS + 23,
    )

    def __init__(self, sim, seed, max_items=400):
        self.sim = sim
        self.rng = random.Random(seed)
        self.max_items = max_items
        self.next_id = 0
        self.log = []
        self.live = {}  # id -> handle, scheduled but not fired/cancelled

    def schedule(self, when):
        recurring = self.rng.random() < 0.4
        if self.next_id >= self.max_items:
            return
        item_id = self.next_id
        self.next_id += 1
        if recurring:
            # A recurring timer fires (and logs) again under its item id at
            # each time its callback returns, on both kernels in lockstep.
            self.live[item_id] = self.sim.recurring(when, self.tick, item_id)
        else:
            self.live[item_id] = self.sim.at(when, self.fire, item_id)

    def fire(self, item_id):
        self.log.append((self.sim.now, item_id))
        self.live.pop(item_id)
        rng = self.rng
        for _ in range(rng.randrange(3)):
            self.schedule(self.sim.now + rng.choice(self.OFFSETS))
        if self.live and rng.random() < 0.25:
            victim = rng.choice(sorted(self.live))
            self.live.pop(victim).cancel()

    def tick(self, item_id):
        """A recurring timer's callback: it ends (returns None), is
        cancelled in its own callback while returning a time anyway, or
        returns its next time and stays live (so it may be cancelled from
        outside)."""
        handle = self.live[item_id]
        self.fire(item_id)
        rng = self.rng
        draw = rng.random()
        if draw < 0.3:
            return None
        if draw < 0.4:
            handle.cancel()
        else:
            self.live[item_id] = handle
        return self.sim.now + rng.choice(self.OFFSETS)

    def play(self):
        """Phases of root scheduling and bounded runs, then run to empty."""
        rng = self.rng
        for _ in range(6):
            for _ in range(20):
                self.schedule(self.sim.now + rng.choice(self.OFFSETS))
            self.sim.run(until=self.sim.now + rng.choice(
                (SHORT_NS, LONG_NS // 2, LONG_NS * 3)
            ))
        self.sim.run()
        return self.log


def assert_logs_identical(log_a, log_b, label_a="a", label_b="b"):
    """Assert two observable logs are identical, reporting the first
    divergence (index, both entries, surrounding counts) on failure."""
    if log_a == log_b:
        return
    limit = min(len(log_a), len(log_b))
    for index in range(limit):
        if log_a[index] != log_b[index]:
            raise AssertionError(
                f"logs diverge at entry {index}/{limit}:\n"
                f"  {label_a}: {log_a[index]!r}\n"
                f"  {label_b}: {log_b[index]!r}"
            )
    raise AssertionError(
        f"logs share a {limit}-entry prefix but lengths differ: "
        f"{label_a} has {len(log_a)} entries, {label_b} has {len(log_b)}"
    )
