"""The Trickle algorithm (RFC 6206), exactly as specified.

Trickle governs when RPL routers multicast DIOs: the interval doubles from
``Imin`` up to ``Imin * 2**Imax_doublings`` while the network is consistent,
transmissions are suppressed when at least ``k`` consistent messages were
heard this interval, and any inconsistency resets the interval to ``Imin``.

RFC 6206 §4.2, step by step:

1. start an interval of length I;
2. pick t uniformly from [I/2, I); reset counter c to 0;
3. on a consistent reception, increment c;
4. at time t, transmit if c < k;
5. at the end of the interval, double I (capped) and start over;
6. on an inconsistency (or external event), if I > Imin reset I to Imin and
   start a new interval.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.sim.kernel import Simulator, Timer


class TrickleTimer:
    """One Trickle instance driving a transmission callback.

    :param sim: simulation kernel.
    :param rng: randomness for t.
    :param on_transmit: called when the algorithm decides to transmit.
    :param imin_ns: minimum interval (RFC 6550 default for RPL: 8 ms;
        BLE meshes use larger values, see :class:`repro.rpl.rpl.RplConfig`).
    :param imax_doublings: number of doublings (RFC 6550 default 20).
    :param k: redundancy constant (RFC 6550 default 10).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        on_transmit: Callable[[], None],
        imin_ns: int,
        imax_doublings: int = 20,
        k: int = 10,
    ) -> None:
        if imin_ns <= 0:
            raise ValueError("Imin must be positive")
        if imax_doublings < 0 or k < 1:
            raise ValueError("bad Trickle constants")
        self.sim = sim
        self.rng = rng
        self.on_transmit = on_transmit
        self.imin_ns = imin_ns
        self.imax_ns = imin_ns << imax_doublings
        self.k = k
        self.interval_ns = imin_ns
        self._counter = 0
        self._running = False
        self._t_timer: Optional[Timer] = None
        self._end_timer: Optional[Timer] = None
        # Statistics.
        self.transmissions = 0
        self.suppressions = 0
        self.resets = 0

    # -- control -------------------------------------------------------------

    def start(self) -> None:
        """Begin with the minimum interval (RFC 6206 §4.2 step 1)."""
        if self._running:
            return
        self._running = True
        self.interval_ns = self.imin_ns
        self._begin_interval()

    def stop(self) -> None:
        """Halt the timer (node leaves the DODAG)."""
        self._running = False
        self._cancel()

    def hear_consistent(self) -> None:
        """A consistent message was received (step 3)."""
        self._counter += 1

    def reset(self) -> None:
        """An inconsistency occurred (step 6)."""
        if not self._running:
            return
        self.resets += 1
        if self.interval_ns > self.imin_ns:
            self.interval_ns = self.imin_ns
            self._cancel()
            self._begin_interval()
        # if I == Imin already, RFC 6206 keeps the current interval running

    # -- internals --------------------------------------------------------------

    def _cancel(self) -> None:
        if self._t_timer is not None:
            self._t_timer.cancel()
            self._t_timer = None  # cancelled handles must not be retained
        if self._end_timer is not None:
            self._end_timer.cancel()
            self._end_timer = None

    def _begin_interval(self) -> None:
        self._counter = 0
        half = self.interval_ns // 2
        t = half + self.rng.randrange(0, max(1, self.interval_ns - half))
        self._t_timer = self.sim.after(t, self._fire)
        self._end_timer = self.sim.after(self.interval_ns, self._interval_end)

    def _fire(self) -> None:
        if not self._running:
            return
        if self._counter < self.k:
            self.transmissions += 1
            self.on_transmit()
        else:
            self.suppressions += 1

    def _interval_end(self) -> None:
        if not self._running:
            return
        self.interval_ns = min(self.interval_ns * 2, self.imax_ns)
        self._begin_interval()
