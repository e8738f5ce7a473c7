"""Sim-time metrics snapshotter: registries -> time series.

Counters and gauges are cheap aggregates with no time dimension; the
snapshotter adds one back by sampling the hub at a fixed sim-time cadence.
Each tick appends one row per known instrument (``scope:name`` keys), so a
24-hour run stores one number per instrument per period, never per event.

The snapshotter also derives two *live* gauges each tick from the network's
link statistics, using the §6.2 shading detector over windowed link-layer
PDR: ``obs.shading_links_degraded`` (links currently below the PDR
threshold) and ``obs.shading_onsets_total`` (degradation spans seen so
far).  This is the online counterpart of the post-hoc Fig. 12 analysis.

Determinism: ticks run at exact multiples of the period via ``sim.after``,
link iteration follows ``net.nodes`` order, and values are pure functions
of simulation state -- so the resulting series is byte-stable across
worker counts, like everything else in ``metrics.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.shading import detect_degradation_spans
from repro.obs.registry import MetricsHub
from repro.sim.units import SEC


class MetricsSnapshotter:
    """Samples a :class:`~repro.obs.registry.MetricsHub` on the sim clock."""

    def __init__(
        self,
        sim: Any,
        hub: MetricsHub,
        period_ns: int,
        network: Any = None,
        shading_threshold: float = 0.9,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("snapshot period must be positive")
        self.sim = sim
        self.hub = hub
        self.period_ns = int(period_ns)
        self.network = network
        self.shading_threshold = shading_threshold
        self.times_ns: List[int] = []
        #: "scope:name" -> per-tick values (padded on export; a key first
        #: seen at tick k gets zeros for ticks 0..k-1).
        self._columns: Dict[str, List[float]] = {}
        self._rows = 0
        # per-(link, direction) shading bookkeeping
        self._last_link: Dict[Tuple[tuple, str], Tuple[int, int]] = {}
        self._pdr_times: Dict[Tuple[tuple, str], List[float]] = {}
        self._pdr_series: Dict[Tuple[tuple, str], List[float]] = {}

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
        if self.network is not None:
            self._update_shading_gauges()
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

    def _update_shading_gauges(self) -> None:
        nodes = getattr(self.network, "nodes", None)
        if not nodes:
            return
        now_s = self.sim.now / SEC
        for node in nodes:
            controller = getattr(node, "controller", None)
            if controller is None:
                continue
            for conn in getattr(controller, "connections", ()):
                if conn.coord.controller is not controller:
                    continue
                key = (conn.coord.controller.addr, conn.sub.controller.addr)
                for direction, ep in (("up", conn.coord), ("down", conn.sub)):
                    snap = ep.stats.snapshot()
                    attempts, acked = snap[0], snap[1]
                    prev = self._last_link.get((key, direction), (0, 0))
                    self._last_link[(key, direction)] = (attempts, acked)
                    d_attempts = attempts - prev[0]
                    d_acked = acked - prev[1]
                    if d_attempts <= 0:
                        continue  # idle window: no PDR evidence either way
                    self._pdr_times.setdefault((key, direction), []).append(
                        now_s
                    )
                    self._pdr_series.setdefault((key, direction), []).append(
                        d_acked / d_attempts
                    )
        degraded = 0
        onsets = 0
        for link_key, pdrs in self._pdr_series.items():
            spans = detect_degradation_spans(
                self._pdr_times[link_key], pdrs, self.shading_threshold
            )
            onsets += len(spans)
            if pdrs and pdrs[-1] < self.shading_threshold:
                degraded += 1
        self.hub.set_gauge("obs", "shading.links_degraded", degraded)
        self.hub.set_gauge("obs", "shading.onsets_total", onsets)

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
