"""Random-waypoint mobility over the run's geometry.

Each mobile node repeats: pick a waypoint uniformly inside the deployment
bounding box, draw a leg speed, walk there in straight-line steps of
``step_s``, pause, repeat.  Every step calls
:meth:`repro.phy.spatial.Geometry.move`, which dirties the uniform-grid
spatial index -- the next advertising delivery rebuilds it, which is
exactly the live-invalidation path the differential suite locks the grid
index against the all-pairs reference on.

Determinism: all draws come from the per-node ``workload-mobility-{i}``
stream (:func:`repro.sim.rng.subseed`); node 0 (the root) never moves; a
*departed* node keeps moving (its radio died, not its legs), so churn
on/off never perturbs mobility draws and vice versa.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.rng import subseed
from repro.sim.units import s_to_ns
from repro.trace.tracer import TRACE
from repro.workload.spec import MobilitySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node
    from repro.phy.spatial import Geometry


class WaypointMobility:
    """The motion process of one node."""

    def __init__(
        self,
        node: "Node",
        geometry: "Geometry",
        spec: MobilitySpec,
        seed: int,
        bounds: Tuple[float, float, float, float],
    ) -> None:
        self.node = node
        self.geometry = geometry
        self.spec = spec
        self.bounds = bounds  # (min_x, min_y, max_x, max_y)
        self.rng = random.Random(subseed(seed, "workload-mobility", node.node_id))
        self.moves = 0
        self._target: Optional[Tuple[float, float]] = None
        self._speed = 0.0
        self._running = False

    def start(self) -> None:
        """Begin moving (first step one cadence from now)."""
        self._running = True
        self.node.sim.after(s_to_ns(self.spec.step_s), self._step)

    def stop(self) -> None:
        """Halt motion (the pending step dies on the flag)."""
        self._running = False

    def _pick_waypoint(self) -> None:
        min_x, min_y, max_x, max_y = self.bounds
        self._target = (
            self.rng.uniform(min_x, max_x),
            self.rng.uniform(min_y, max_y),
        )
        self._speed = self.rng.uniform(
            self.spec.speed_min_mps, self.spec.speed_max_mps
        )

    def _step(self) -> None:
        if not self._running:
            return
        geometry = self.geometry
        addr = self.node.controller.addr  # current on-air key of the position
        x, y = geometry.position_of(addr)
        if self._target is None:
            self._pick_waypoint()
        assert self._target is not None
        tx, ty = self._target
        dx, dy = tx - x, ty - y
        dist = math.hypot(dx, dy)
        stride = self._speed * self.spec.step_s
        if dist <= stride or dist == 0.0:
            nx, ny = tx, ty
            self._target = None  # arrived: next leg after the pause
            delay = s_to_ns(self.spec.pause_s + self.spec.step_s)
        else:
            nx, ny = x + dx / dist * stride, y + dy / dist * stride
            delay = s_to_ns(self.spec.step_s)
        geometry.move(addr, nx, ny)
        self.moves += 1
        if TRACE.enabled:
            TRACE.emit(
                self.node.sim.now, "workload", "move",
                node=self.node.controller.name, x=round(nx, 6), y=round(ny, 6),
            )
        self.node.sim.after(delay, self._step)
