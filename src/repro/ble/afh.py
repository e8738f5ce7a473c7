"""Adaptive frequency hopping (the ADH the standard leaves to implementers).

BT allows connections to restrict their channel maps, but "does not
describe how to implement the ADH algorithms -- it leaves this completely
to implementers of controllers" (paper §2.2).  The paper's testbed worked
around its permanently jammed channel 22 by *static* exclusion, and §7
points at Spörk et al.'s adaptive-hopping results as a promising extension.

:class:`AfhManager` is that extension: the connection coordinator
periodically evaluates the per-channel connection-event abort rates,
blacklists channels whose abort rate crosses a threshold, pushes the
restricted map to the peer via the channel-map-update control procedure,
and periodically paroles one blacklisted channel to re-probe it (so the map
recovers when interference moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.ble.chanmap import ChannelMap
from repro.ble.conn import Connection
from repro.phy.channels import BLE_NUM_DATA_CHANNELS
from repro.sim.units import SEC


@dataclass
class AfhConfig:
    """AFH policy knobs.

    :param eval_interval_ns: how often the channel statistics are judged.
    :param abort_rate_threshold: blacklist a channel whose connection events
        abort more often than this.
    :param min_samples: events needed on a channel before judging it.
    :param min_channels: never restrict the map below this many channels
        (the CSA needs room to hop; Bluetooth requires >= 2, we keep more).
    :param probation_evals: every this-many evaluations, re-admit one
        blacklisted channel to probe whether the interference cleared.
    """

    eval_interval_ns: int = 10 * SEC
    abort_rate_threshold: float = 0.5
    min_samples: int = 8
    min_channels: int = 10
    probation_evals: int = 6


class AfhManager:
    """PER-driven channel-map adaptation for one connection."""

    def __init__(self, conn: Connection, config: Optional[AfhConfig] = None):
        self.conn = conn
        self.config = config or AfhConfig()
        self.blacklist: Set[int] = set()
        self._last_counts: List[List[int]] = [
            [0, 0] for _ in range(BLE_NUM_DATA_CHANNELS)
        ]
        self._evals = 0
        self._running = False
        # Statistics.
        self.map_updates = 0
        self.paroles = 0

    def start(self) -> None:
        """Begin periodic evaluation (coordinator side)."""
        if self._running:
            return
        self._running = True
        self.conn.sim.after(self.config.eval_interval_ns, self._evaluate)

    def stop(self) -> None:
        """Stop adapting (the current map stays in force)."""
        self._running = False

    # -- internals --------------------------------------------------------------

    def _evaluate(self) -> None:
        if not self._running or not self.conn.open:
            return
        self._evals += 1
        stats = self.conn.coord.stats.per_channel_events
        changed = False
        for channel in range(BLE_NUM_DATA_CHANNELS):
            runs, aborts = stats[channel]
            d_runs = runs - self._last_counts[channel][0]
            d_aborts = aborts - self._last_counts[channel][1]
            self._last_counts[channel] = [runs, aborts]
            if channel in self.blacklist:
                continue
            if d_runs >= self.config.min_samples:
                if d_aborts / d_runs > self.config.abort_rate_threshold:
                    if self._usable_count() - 1 >= self.config.min_channels:
                        self.blacklist.add(channel)
                        changed = True
        # probation: periodically re-admit the longest-serving entry
        if (
            self.blacklist
            and self._evals % self.config.probation_evals == 0
        ):
            paroled = min(self.blacklist)
            self.blacklist.discard(paroled)
            self.paroles += 1
            changed = True
        if changed:
            self._push_map()
        self.conn.sim.after(self.config.eval_interval_ns, self._evaluate)

    def _usable_count(self) -> int:
        return BLE_NUM_DATA_CHANNELS - len(self.blacklist)

    def _push_map(self) -> None:
        new_map = ChannelMap.excluding(self.blacklist)
        self.map_updates += 1
        self.conn.request_chan_map_update(new_map)
