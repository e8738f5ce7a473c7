"""Sim-time metrics snapshotter: registries -> time series.

Counters and gauges are cheap aggregates with no time dimension; the
snapshotter adds one back by sampling the hub at a fixed sim-time cadence.
Each tick appends one row per known instrument (``scope:name`` keys), so a
24-hour run stores one number per instrument per period, never per event.

The live shading gauges ``obs:shading.links_degraded`` and
``obs:shading.onsets_total`` are set by the experiment runner's link
sampler (:class:`repro.exp.links.LinkSampler`), which ticks at the same
instants just before the snapshotter; a row reads them like any gauge.

Determinism: ticks run at exact multiples of the period via ``sim.after``
and values are pure functions of simulation state -- so the resulting
series is byte-stable across worker counts, like everything else in
``metrics.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsHub


class MetricsSnapshotter:
    """Samples a :class:`~repro.obs.registry.MetricsHub` on the sim clock."""

    def __init__(self, sim: Any, hub: MetricsHub, period_ns: int) -> None:
        if period_ns <= 0:
            raise ValueError("snapshot period must be positive")
        self.sim = sim
        self.hub = hub
        self.period_ns = int(period_ns)
        self.times_ns: List[int] = []
        #: "scope:name" -> per-tick values (padded on export; a key first
        #: seen at tick k gets zeros for ticks 0..k-1).
        self._columns: Dict[str, List[float]] = {}
        self._rows = 0

    def start(self) -> None:
        """Schedule the first tick one period from now."""
        self.sim.after(self.period_ns, self._tick)

    def _tick(self) -> None:
        self._collect()
        self.sim.after(self.period_ns, self._tick)

    def finish(self) -> None:
        """Take a final sample at the current sim time if one is missing.

        The kernel stops *before* dispatching events at the horizon, so the
        last periodic tick never coincides with the end of the run; this
        captures the final partial window.
        """
        if not self.times_ns or self.times_ns[-1] != self.sim.now:
            self._collect()

    # -- collection -----------------------------------------------------------

    def _collect(self) -> None:
        self.hub.set_gauge(
            "sim", "kernel.timer_queue_depth", self.sim.queue_depth()
        )
        self.times_ns.append(self.sim.now)
        row = self._rows
        for scope_name, registry in sorted(self.hub.scopes().items()):
            for name, counter in registry.counters.items():
                self._append(f"{scope_name}:{name}", row, counter.value)
            for name, gauge in registry.gauges.items():
                if gauge.updates:
                    self._append(f"{scope_name}:{name}", row, gauge.value)
        self._rows += 1

    def _append(self, key: str, row: int, value: float) -> None:
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = [0] * row
        column.append(value)

    # -- export ---------------------------------------------------------------

    def series(self) -> Optional[dict]:
        """The sampled time series, JSON-safe; ``None`` when no ticks ran."""
        if not self.times_ns:
            return None
        n = len(self.times_ns)
        values = {}
        for key in sorted(self._columns):
            column = self._columns[key]
            if len(column) < n:
                column = column + [column[-1]] * (n - len(column))
            values[key] = column
        return {"times_ns": list(self.times_ns), "values": values}
