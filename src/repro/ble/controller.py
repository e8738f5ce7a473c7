"""Per-node BLE controller facade.

A :class:`BleController` bundles everything one node contributes to the BLE
plane: its drifting sleep clock, its single-transceiver scheduler, its
buffer pool, its live connections, and its advertising / scanning machinery.
It is the simulation counterpart of the NimBLE host+controller pair in the
paper's software architecture (Figure 5); upper layers (L2CAP, the
``nimble_netif`` equivalent) talk only to this facade.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.ble.adv import Advertiser, Scanner
from repro.ble.bufpool import BufferPool
from repro.ble.config import BleConfig, ConnParams
from repro.ble.conn import Connection, DisconnectReason, Role
from repro.ble.rpa import IdentityResolver
from repro.ble.sched import RadioScheduler
from repro.phy.medium import BleMedium
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator

#: Bound once: an enum member read off its class is slow on CPython 3.11.
_COORDINATOR = Role.COORDINATOR


class BleController:
    """One node's BLE stack below L2CAP.

    :param sim: simulation kernel.
    :param medium: the shared radio plane.
    :param addr: link-layer address (any hashable int).
    :param clock: the node's sleep clock (drift source).
    :param config: controller configuration; defaults are the paper's.
    :param rng: random stream for advertising jitter / access addresses.
    :param name: diagnostic label.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: BleMedium,
        addr: int,
        clock: Optional[DriftingClock] = None,
        config: Optional[BleConfig] = None,
        rng: Optional[random.Random] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.medium = medium
        #: The immutable identity address (RFC 7668 IID source; every table
        #: above the air interface keys peers by it).  See :mod:`repro.ble.rpa`.
        self.identity = addr
        #: The *current on-air* address; equals the identity until the first
        #: :meth:`rotate_address`.  Only the medium/geometry plane uses it.
        self.addr = addr
        medium.register_node(addr, self)
        self.name = name or f"ble-{addr}"
        self.resolver = IdentityResolver(self)
        #: Completed address rotations (diagnostics).
        self.rotations = 0
        self.clock = clock or DriftingClock(sim)
        self.config = config or BleConfig()
        self.rng = rng or random.Random(addr)
        self.scheduler = RadioScheduler(self.name)
        self.buffer_pool = BufferPool(self.config.buffer_pool_bytes, f"{self.name}.msys")
        self.connections: List[Connection] = []
        #: Subscribers called with (conn) when a connection opens here.
        self.conn_open_listeners: List[Callable[[Connection], None]] = []
        #: Subscribers called with (conn, reason) when a connection closes.
        self.conn_close_listeners: List[
            Callable[[Connection, DisconnectReason], None]
        ] = []
        # Energy accounting inputs (see repro.energy).
        self.conn_events_coord = 0
        self.conn_events_sub = 0
        self.conn_event_ns = 0
        self.adv_events = 0
        self.adv_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BleController {self.name} conns={len(self.connections)}>"

    # -- connection lifecycle (called by Connection) ----------------------

    def attach_connection(self, conn: Connection, activity) -> None:
        """Register a newly-established connection on this node."""
        self.connections.append(conn)
        self.scheduler.register(activity)
        for listener in list(self.conn_open_listeners):
            listener(conn)

    def detach_connection(self, conn: Connection, activity) -> None:
        """Remove a torn-down connection from this node."""
        if conn in self.connections:
            self.connections.remove(conn)
        self.scheduler.unregister(activity)

    def notify_closed(self, conn: Connection, reason: DisconnectReason) -> None:
        """Fan a connection-closed event out to subscribers."""
        for listener in list(self.conn_close_listeners):
            listener(conn, reason)

    def role_of(self, conn: Connection) -> Role:
        """This node's role on ``conn``."""
        return conn.endpoint_of(self).role

    def connection_to(self, peer_identity: int) -> Optional[Connection]:
        """The live connection to the peer with ``peer_identity``, if any."""
        for conn in self.connections:
            if conn.peer_of(self).identity == peer_identity:
                return conn
        return None

    def rotate_address(self, new_addr: int) -> None:
        """Adopt a fresh on-air address (RPA rotation; identity unchanged).

        The medium re-keys its node registry, any registered scanners, and
        the geometry position (invalidating the spatial index live); live
        connections are untouched -- they were established object-to-object
        and every upper-layer table keys by :attr:`identity`.
        """
        old = self.addr
        if new_addr == old:
            return
        self.medium.rotate_node(old, new_addr)
        self.addr = new_addr
        self.rotations += 1

    def used_intervals_ns(self) -> List[int]:
        """Connection intervals currently active on this node (§6.3 checks)."""
        return [conn.params.interval_ns for conn in self.connections]

    # -- energy accounting hooks ------------------------------------------

    def note_conn_event(self, role: Role, duration_ns: int) -> None:
        """Record one participated connection event (energy input, §5.4)."""
        if role is _COORDINATOR:
            self.conn_events_coord += 1
        else:
            self.conn_events_sub += 1
        self.conn_event_ns += max(0, duration_ns)

    def note_adv_event(self, duration_ns: int) -> None:
        """Record one transmitted advertising event (energy input, §5.4)."""
        self.adv_events += 1
        self.adv_ns += duration_ns

    # -- GAP-level operations ----------------------------------------------

    def advertise(
        self,
        payload_len: int = 0,
        on_connected: Optional[Callable[[Connection], None]] = None,
    ) -> Advertiser:
        """Start connectable advertising; returns the running advertiser."""
        adv = Advertiser(self, self.rng, payload_len, on_connected)
        adv.start()
        return adv

    def initiate(
        self,
        target_addr: Optional[int],
        params_factory: Callable[[], ConnParams],
        on_connected: Optional[Callable[[Connection], None]] = None,
        accept: Optional[Callable[[int], bool]] = None,
    ) -> Scanner:
        """Scan and connect; returns the running scanner.

        ``target_addr=None`` scans for *any* advertiser (optionally filtered
        by ``accept``) -- the dynamic connection manager's discovery mode.
        """
        scanner = Scanner(
            self, self.rng, target_addr, params_factory, on_connected, accept
        )
        scanner.start()
        return scanner
