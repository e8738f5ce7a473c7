"""The link sampler: per-link series, connection losses, shading gauges.

The paper reads connection shading off windowed link-layer PDR (§6,
Fig. 12).  :class:`LinkSampler` is the one place that samples the link
layer's counters (each endpoint's ``stats``).  Every period it walks the
live connections in ``net.nodes`` order and cuts one window per
connection and direction:

* the window's deltas are taken per *connection* (``conn_id``), so a new
  connection's first window counts from zero;
* they add into totals per *link*, keyed by the (coordinator,
  subordinate) identity pair, so a link keeps one continuous
  :class:`LinkSeries` through reconnects and MAC-address rotations (the
  on-air ``addr`` rotates, the identity does not);
* a window with attempts sets or clears its link's "below
  :data:`SHADING_PDR_THRESHOLD`" flag in O(1), counting each new below-run
  as an onset.  ``degraded`` (links whose latest window is below) and
  ``onsets`` (below-runs so far) are the online form of
  :func:`repro.core.shading.detect_degradation_spans`; a metered run's
  snapshotter reads them into the ``obs:shading.*`` gauges.

A close listener on every controller records each end of a connection
lost to a supervision timeout as a :class:`ConnLoss`.

Samples land at exact multiples of the period and every value is a pure
function of simulation state, so the outputs are byte-stable across
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Set, Tuple

from repro.ble.conn import Connection, DisconnectReason, LinkStats
from repro.phy.channels import BLE_NUM_DATA_CHANNELS
from repro.sim.units import SEC

#: A window of link-layer PDR below this marks its link degraded (§6.1:
#: a shaded link falls towards 50 %).
SHADING_PDR_THRESHOLD = 0.9

LinkKey = Tuple[int, int]  # (coordinator identity, subordinate identity)


@dataclass
class LinkSeries:
    """Cumulative per-link statistics over time (one direction)."""

    times_s: List[float] = field(default_factory=list)
    tx_attempts: List[int] = field(default_factory=list)
    tx_acked: List[int] = field(default_factory=list)
    #: Per data channel [attempts, acked], accumulated like the totals.
    channels: List[List[int]] = field(
        default_factory=lambda: [[0, 0] for _ in range(BLE_NUM_DATA_CHANNELS)]
    )

    def binned_pdr(self) -> Tuple[List[float], List[float]]:
        """Per-sample-bin link-layer PDR (acked/attempted deltas)."""
        times, pdrs = [], []
        for i in range(1, len(self.times_s)):
            attempts = self.tx_attempts[i] - self.tx_attempts[i - 1]
            acked = self.tx_acked[i] - self.tx_acked[i - 1]
            if attempts > 0:
                times.append(self.times_s[i])
                pdrs.append(acked / attempts)
        return times, pdrs

    def overall_pdr(self) -> float:
        """Whole-run link-layer PDR."""
        if not self.tx_attempts or self.tx_attempts[-1] == 0:
            return 1.0
        return self.tx_acked[-1] / self.tx_attempts[-1]


@dataclass(frozen=True)
class ConnLoss:
    """One end of a connection lost to a supervision timeout."""

    time_ns: int
    node: int
    #: The peer's identity address.
    peer: int
    #: This end's role on the lost connection (``coordinator`` or
    #: ``subordinate``).
    role: str


#: A connection's counters before its first sample.
_UNSAMPLED = (0, 0, [(0, 0)] * BLE_NUM_DATA_CHANNELS)


class LinkSampler:
    """Samples every connection of a BLE network on the sim clock.

    :param net: the network (``sim`` and ``nodes``, each node with a
        ``controller`` and a ``node_id``).
    :param period_ns: the sampling period.
    """

    def __init__(self, net: Any, period_ns: int) -> None:
        self.net = net
        self.sim = net.sim
        self.period_ns = period_ns
        #: (link, direction) -> cumulative series; ``up`` is coordinator ->
        #: subordinate (towards the consumer), ``down`` the reverse.
        self.series: Dict[Tuple[LinkKey, str], LinkSeries] = {}
        #: Supervision-timeout losses, one record per end, in close order.
        self.losses: List[ConnLoss] = []
        # (conn_id, direction) -> (attempts, acked, per-channel rows) at
        # the connection's last sample
        self._last: Dict[Tuple[int, str], Tuple[int, int, List[Tuple[int, int]]]] = {}
        self.degraded: Set[Tuple[LinkKey, str]] = set()
        self.onsets = 0
        self._sampled_at = -1
        for node in net.nodes:
            node.controller.conn_close_listeners.append(partial(self._on_close, node))

    def start(self) -> None:
        """Schedule the first sample one period from now."""
        self.sim.after(self.period_ns, self._tick)

    def _tick(self) -> None:
        self._sample()
        self.sim.after(self.period_ns, self._tick)

    def finish(self) -> None:
        """Take a closing sample at the current sim time, unless one landed
        there: the kernel stops before the horizon's events, so without it
        the final partial window would be dropped."""
        if self._sampled_at != self.sim.now:
            self._sample()

    def _on_close(
        self, node: Any, conn: Connection, reason: DisconnectReason
    ) -> None:
        if reason is DisconnectReason.SUPERVISION_TIMEOUT:
            controller = node.controller
            self.losses.append(
                ConnLoss(
                    self.sim.now,
                    node.node_id,
                    conn.peer_of(controller).identity,
                    conn.endpoint_of(controller).role.value,
                )
            )

    def _sample(self) -> None:
        self._sampled_at = self.sim.now
        now_s = self.sim.now / SEC
        for node in self.net.nodes:
            controller = node.controller
            for conn in controller.connections:
                if conn.coord.controller is not controller:
                    continue
                link = (controller.identity, conn.sub.controller.identity)
                self._window(now_s, conn.conn_id, (link, "up"), conn.coord.stats)
                self._window(now_s, conn.conn_id, (link, "down"), conn.sub.stats)

    def _window(
        self, now_s: float, conn_id: int, key: Tuple[LinkKey, str], stats: LinkStats
    ) -> None:
        attempts, acked = stats.tx_data_attempts, stats.tx_data_acked
        channels = [(row[0], row[1]) for row in stats.per_channel]
        last_attempts, last_acked, last_channels = self._last.get(
            (conn_id, key[1]), _UNSAMPLED
        )
        self._last[(conn_id, key[1])] = (attempts, acked, channels)
        d_attempts = attempts - last_attempts
        d_acked = acked - last_acked

        series = self.series.get(key)
        if series is None:
            series = self.series[key] = LinkSeries()
            total_attempts = total_acked = 0
        else:
            total_attempts, total_acked = series.tx_attempts[-1], series.tx_acked[-1]
        series.times_s.append(now_s)
        series.tx_attempts.append(total_attempts + d_attempts)
        series.tx_acked.append(total_acked + d_acked)
        for total, now, last in zip(series.channels, channels, last_channels):
            total[0] += now[0] - last[0]
            total[1] += now[1] - last[1]

        if d_attempts > 0:  # an idle window is no PDR evidence either way
            if d_acked / d_attempts < SHADING_PDR_THRESHOLD:
                if key not in self.degraded:
                    self.degraded.add(key)
                    self.onsets += 1
            else:
                self.degraded.discard(key)
