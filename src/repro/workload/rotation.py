"""Periodic resolvable-private-address rotation (see :mod:`repro.ble.rpa`).

Each rotating node adopts a fresh on-air address every jittered period.
The new address comes from a per-node deterministic counter inside a
reserved block far above any node-id, so rotated addresses never collide
with identities or with each other.  Peers re-resolve the identity on the
scan path (one ``ble.rpa_resolve`` record per rotation per observer) and
every table above the air interface keys by identity, so peering survives.

Determinism: jitter draws come from the per-node ``workload-rotation-{i}``
stream.  The draw is *always* made on schedule -- a departed node skips
the rotation action (dead firmware rotates nothing) but not the draw, so
churn on/off never perturbs rotation timing of the other nodes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.sim.rng import subseed
from repro.sim.units import s_to_ns
from repro.trace.tracer import TRACE
from repro.workload.spec import MacRotationSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node

#: Base of the rotated-address space.  Identities are node ids (tiny
#: integers); each node owns a disjoint block of ``ROTATION_BLOCK``
#: addresses starting here, so a rotated address can never collide with an
#: identity or another node's rotations.
ROTATION_ADDR_BASE: int = 1 << 20
ROTATION_BLOCK: int = 1 << 16


class MacRotator:
    """The rotation process of one node."""

    def __init__(
        self,
        node: "Node",
        spec: MacRotationSpec,
        seed: int,
        is_departed: Callable[[], bool],
    ) -> None:
        self.node = node
        self.spec = spec
        self.rng = random.Random(subseed(seed, "workload-rotation", node.node_id))
        self._is_departed = is_departed
        self._counter = 0
        self._running = False

    def start(self) -> None:
        """Schedule the first rotation one jittered period from now."""
        self._running = True
        self.node.sim.after(self._next_gap(), self._rotate)

    def stop(self) -> None:
        """Halt rotation (the pending timer dies on the flag)."""
        self._running = False

    def _next_gap(self) -> int:
        jitter_ns = s_to_ns(self.spec.jitter_s)
        gap = s_to_ns(self.spec.period_s)
        if jitter_ns:
            gap += self.rng.randint(-jitter_ns, jitter_ns)
        return max(gap, 1)

    def _rotate(self) -> None:
        if not self._running:
            return
        gap = self._next_gap()  # drawn unconditionally: streams stay aligned
        if not self._is_departed():
            controller = self.node.controller
            self._counter += 1
            new_addr = (
                ROTATION_ADDR_BASE
                + self.node.node_id * ROTATION_BLOCK
                + self._counter
            )
            old = controller.addr
            controller.rotate_address(new_addr)
            if TRACE.enabled:
                TRACE.emit(
                    self.node.sim.now, "workload", "rotate",
                    node=controller.name, id=controller.identity,
                    old=old, new=new_addr,
                )
        self.node.sim.after(gap, self._rotate)
