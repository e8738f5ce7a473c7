"""Per-node radio scheduler.

Every node owns exactly one transceiver.  Connection events of different
connections -- plus advertising events -- compete for it.  The scheduler

* tracks the single currently-claimed busy interval (composite connection
  events claim their full computed duration up front),
* answers "when does some *other* activity need the radio next?" so a
  running connection event can bound its packet exchanges (the capacity
  fluctuation of Figure 4), and
* tracks per-activity skip streaks so the :class:`~repro.ble.config.
  SchedulerPolicy` can starve (EARLIEST_WINS) or alternate (ALTERNATE)
  overlapping events -- the two behaviours the paper observes when
  connection shading strikes (§6.1).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from repro.trace.tracer import TRACE

#: The busy-until sentinel of a fail-stopped radio: far beyond any
#: simulated horizon, so every is_free() check denies until resume().
FAIL_STOP_NS: int = 1 << 62


class RadioActivity(Protocol):
    """Anything that periodically needs the node's radio."""

    #: Consecutive times this activity was denied the radio (reset on a
    #: successful grant); the ALTERNATE policy uses it as priority.
    consec_skips: int

    def next_radio_time(self, after_ns: int) -> Optional[int]:
        """Next time (> after_ns, true ns) this activity wants the radio.

        ``None`` if the activity is dormant.
        """
        ...


class RadioScheduler:
    """Single-transceiver arbitration for one node."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._activities: List[RadioActivity] = []
        self._busy_until: int = 0
        #: Total radio-busy nanoseconds (energy accounting input).
        self.busy_ns_total: int = 0
        #: Number of claims granted.
        self.claims: int = 0
        #: Number of times an activity found the radio busy.
        self.denials: int = 0

    def register(self, activity: RadioActivity) -> None:
        """Add an activity to the demand table."""
        if activity not in self._activities:
            self._activities.append(activity)

    def unregister(self, activity: RadioActivity) -> None:
        """Remove an activity (connection closed, advertising stopped)."""
        if activity in self._activities:
            self._activities.remove(activity)

    def is_free(self, at_ns: int) -> bool:
        """Whether the radio is unclaimed at ``at_ns``."""
        return at_ns >= self._busy_until

    @property
    def failed(self) -> bool:
        """Whether the radio is fail-stopped (see :meth:`fail_stop`)."""
        return self._busy_until >= FAIL_STOP_NS

    def fail_stop(self) -> None:
        """Silence the radio mid-whatever: hard fail-stop fault injection.

        The transceiver is marked busy until the far side of the simulated
        universe, so every connection event and advertising event on this
        node is denied from now on -- exactly the observable behaviour of a
        node whose radio died without a disconnect.  Peers discover the
        death the way the spec makes them: supervision timeout.  The claim
        currently in progress (if any) is left accounted; no state other
        than the busy horizon changes, so :meth:`resume` is exact.
        """
        self._busy_until = FAIL_STOP_NS

    def resume(self, now_ns: int) -> None:
        """Revive a fail-stopped radio at ``now_ns`` (idempotent)."""
        if self._busy_until >= FAIL_STOP_NS:
            self._busy_until = now_ns

    def claim(self, owner: RadioActivity, start_ns: int, end_ns: int) -> None:
        """Mark the radio busy for [start, end).

        The caller must have checked :meth:`is_free` -- overlapping claims
        indicate a simulation bug and raise.
        """
        if start_ns < self._busy_until:
            raise RuntimeError(
                f"radio {self.name}: overlapping claim "
                f"[{start_ns}, {end_ns}) while busy until {self._busy_until}"
            )
        if end_ns < start_ns:
            raise RuntimeError(f"radio {self.name}: negative claim duration")
        if TRACE.enabled:
            TRACE.emit(
                start_ns, "ble", "radio_claim",
                node=self.name, start=start_ns, end=end_ns,
            )
        self._busy_until = end_ns
        self.busy_ns_total += end_ns - start_ns
        self.claims += 1
        owner.consec_skips = 0

    def deny(self, activity: RadioActivity) -> None:
        """Record that ``activity`` was denied the radio (skip streak +1)."""
        activity.consec_skips += 1
        self.denials += 1
        if TRACE.enabled:
            TRACE.emit(None, "ble", "radio_deny", node=self.name)

    def next_demand_after(
        self, after_ns: int, exclude: Optional[RadioActivity] = None
    ) -> Tuple[Optional[int], Optional[RadioActivity]]:
        """Earliest future radio demand of any *other* activity.

        :returns: ``(time_ns, activity)`` or ``(None, None)`` when no other
            activity has pending demand.
        """
        activities = self._activities
        # Common fast path: a leaf node whose only activity is the asking
        # connection has, by definition, no competing demand.
        if len(activities) == 1 and activities[0] is exclude:
            return None, None
        best_t: Optional[int] = None
        best_a: Optional[RadioActivity] = None
        for activity in activities:
            if activity is exclude:
                continue
            t = activity.next_radio_time(after_ns)
            if t is not None and (best_t is None or t < best_t):
                best_t = t
                best_a = activity
        return best_t, best_a
