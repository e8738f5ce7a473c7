"""Active 802.15.4 medium: carrier sense, collisions, loss.

Unlike the BLE plane (whose composite connection events only need loss
*sampling*), CSMA/CA needs a live view of the channel: clear channel
assessment reads the set of in-flight transmissions, and two overlapping
transmissions on one channel corrupt each other (all nodes are in mutual
range in the paper's single-room deployment, so there are no hidden
terminals and no capture effect is modelled).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.phy.medium import InterferenceModel
from repro.sim.kernel import Simulator


@dataclass
class _AirFrame:
    """One in-flight transmission."""

    channel: int
    start_ns: int
    end_ns: int
    nbytes: int
    sender: object
    on_delivered: Callable[[bool], None]
    corrupted: bool = False


class CsmaMedium:
    """The shared channel for all 802.15.4 nodes of an experiment.

    :param sim: simulation kernel.
    :param rng: loss sampling stream.
    :param interference: PER configuration shared with the BLE medium model.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        interference: Optional[InterferenceModel] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.interference = interference or InterferenceModel()
        self._active: List[_AirFrame] = []
        #: Total frames that suffered a collision (diagnostics).
        self.collisions = 0
        #: Total frames transmitted.
        self.frames_sent = 0
        #: Total air time of the transmitted frames.
        self.airtime_ns = 0

    def channel_busy(self, channel: int) -> bool:
        """Clear channel assessment: any energy on ``channel`` right now?"""
        now = self.sim.now
        return any(
            f.channel == channel and f.start_ns <= now < f.end_ns
            for f in self._active
        )

    def transmit(
        self,
        sender: object,
        channel: int,
        nbytes: int,
        duration_ns: int,
        on_delivered: Callable[[bool], None],
    ) -> None:
        """Put a frame on the air.

        ``on_delivered(ok)`` fires at the end of the transmission with
        ``ok = False`` when the frame collided or was corrupted by noise.
        Delivery fan-out to receivers is the caller's job (the MAC layer
        knows who should listen); the medium only decides survival.
        """
        now = self.sim.now
        frame = _AirFrame(
            channel=channel,
            start_ns=now,
            end_ns=now + duration_ns,
            nbytes=nbytes,
            sender=sender,
            on_delivered=on_delivered,
        )
        self.frames_sent += 1
        self.airtime_ns += duration_ns
        # collision: any concurrent same-channel transmission corrupts both
        for other in self._active:
            if other.channel == channel and other.end_ns > now:
                if not other.corrupted:
                    other.corrupted = True
                    self.collisions += 1
                if not frame.corrupted:
                    frame.corrupted = True
                    self.collisions += 1
        self._active.append(frame)
        self.sim.at(frame.end_ns, self._finish, frame)

    def _finish(self, frame: _AirFrame) -> None:
        self._active.remove(frame)
        ok = not frame.corrupted
        if ok:
            per = self.interference.packet_error_rate(
                frame.channel, frame.nbytes, self.sim.now
            )
            if per > 0 and self.rng.random() < per:
                ok = False
        frame.on_delivered(ok)
