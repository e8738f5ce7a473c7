"""statconn: static BLE connection management (paper §3, extended per §6.3).

Each node receives a static link configuration: for every configured link it
is either the **subordinate** (it advertises and waits) or the
**coordinator** (it scans for the peer's advertisements and initiates).
statconn monitors link health; whenever a configured connection drops, the
node falls back into advertising/scanning mode until the link is
re-established -- the quick-reconnect behaviour behind the paper's small
loss numbers in §5.1.

The §6.3 extensions are both here:

* the coordinator draws the connection interval from its
  :class:`~repro.core.intervals.IntervalPolicy`, regenerating until unique
  among its own connections (policy-side), and
* the subordinate *closes* any fresh connection whose interval collides
  with one of its existing connections, forcing the coordinator to retry
  with a new draw (``reject_interval_collisions``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.ble.adv import Advertiser, Scanner
from repro.ble.conn import Connection, DisconnectReason, Role
from repro.core.intervals import IntervalPolicy, StaticIntervalPolicy
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node


@dataclass
class LinkSpec:
    """One configured link from this node's point of view.

    ``peer_addr`` is the peer's *identity* address (stable across RPA
    rotation, see :mod:`repro.ble.rpa`).
    """

    peer_addr: int
    role: Role

    def __post_init__(self) -> None:
        if not isinstance(self.role, Role):
            raise TypeError("role must be a repro.ble.conn.Role")


@dataclass
class StatconnConfig:
    """statconn behaviour knobs.

    :param interval_policy: how coordinators choose connection intervals.
    :param reject_interval_collisions: §6.3 subordinate-side enforcement.
    :param collision_action: what the subordinate does about a collision
        (only with ``reject_interval_collisions``):

        * ``"reject"`` -- the paper's choice: close the fresh connection and
          let the coordinator redraw (works on any Bluetooth 4.2 stack);
        * ``"update"`` -- the §6.3 *design space* alternative: keep the
          connection and negotiate a new interval via the connection
          parameter update procedure (requires the Bluetooth 5.0
          negotiation, which the paper notes black-box controllers do not
          expose -- the simulation can run the counterfactual).
    :param adv_payload_len: AdvData bytes carried while advertising.
    """

    interval_policy: IntervalPolicy = field(
        default_factory=lambda: StaticIntervalPolicy(75 * MSEC)
    )
    reject_interval_collisions: bool = False
    collision_action: str = "reject"
    adv_payload_len: int = 20

    def __post_init__(self) -> None:
        if self.collision_action not in ("reject", "update"):
            raise ValueError(f"unknown collision action {self.collision_action!r}")


@dataclass
class LossRecord:
    """One observed connection loss (for the Fig. 13/14 census)."""

    time_ns: int
    peer_addr: int
    role: Role
    reason: DisconnectReason


class Statconn:
    """The connection manager instance of one node."""

    def __init__(self, node: "Node", config: Optional[StatconnConfig] = None):
        self.node = node
        self.config = config or StatconnConfig()
        self._links: Dict[int, LinkSpec] = {}
        self._scanners: Dict[int, Scanner] = {}
        self._advertiser: Optional[Advertiser] = None
        #: Losses observed on configured links (supervision timeouts etc.).
        self.losses: List[LossRecord] = []
        #: Collisions rejected by this node as subordinate (§6.3 retries).
        self.collision_rejects = 0
        #: Reconnect delays (ns) measured from loss to re-establishment.
        self.reconnect_delays_ns: List[int] = []
        self._loss_time: Dict[int, int] = {}
        controller = node.controller
        controller.conn_open_listeners.append(self._on_conn_open)
        controller.conn_close_listeners.append(self._on_conn_close)

    # -- configuration -------------------------------------------------------

    def add_link(self, peer_addr: int, role: Role) -> None:
        """Configure a link and start establishing it."""
        if peer_addr in self._links:
            raise ValueError(f"link to {peer_addr} already configured")
        self._links[peer_addr] = LinkSpec(peer_addr, role)
        self._kick(peer_addr)

    def links(self) -> List[LinkSpec]:
        """The configured links."""
        return list(self._links.values())

    def link_up(self, peer_addr: int) -> bool:
        """Whether the configured link to ``peer_addr`` is established."""
        conn = self.node.controller.connection_to(peer_addr)
        return conn is not None and conn.open

    def all_links_up(self) -> bool:
        """Whether every configured link is established."""
        return all(self.link_up(peer) for peer in self._links)

    # -- establishment machinery ----------------------------------------------

    def _kick(self, peer_addr: int) -> None:
        """(Re)start advertising / scanning for one down link."""
        spec = self._links[peer_addr]
        if spec.role is Role.SUBORDINATE:
            self._ensure_advertising()
        else:
            self._ensure_scanning(peer_addr)

    def _ensure_advertising(self) -> None:
        if self._advertiser is not None and self._advertiser.active:
            return
        self._advertiser = self.node.controller.advertise(
            payload_len=self.config.adv_payload_len
        )

    def _reevaluate_advertising(self) -> None:
        """Advertise exactly while at least one subordinate link is down.

        The controller stops advertising on CONNECT_IND, so after every
        establishment we must restart it if more subordinate links wait.
        """
        any_down = any(
            spec.role is Role.SUBORDINATE and not self.link_up(p)
            for p, spec in self._links.items()
        )
        if any_down:
            self._ensure_advertising()
        elif self._advertiser is not None and self._advertiser.active:
            self._advertiser.stop()

    def _ensure_scanning(self, peer_addr: int) -> None:
        scanner = self._scanners.get(peer_addr)
        if scanner is not None and scanner.active:
            return
        self._scanners[peer_addr] = self.node.controller.initiate(
            target_addr=peer_addr,
            params_factory=self._make_params,
        )

    def _make_params(self):
        """Interval policy hook: draw params unique among our connections."""
        return self.config.interval_policy.make_params(
            self.node.controller.used_intervals_ns()
        )

    # -- health monitoring -----------------------------------------------------

    def _on_conn_open(self, conn: Connection) -> None:
        peer = conn.peer_of(self.node.controller).identity
        spec = self._links.get(peer)
        if spec is None:
            return  # not one of ours
        my_end = conn.endpoint_of(self.node.controller)
        # §6.3 subordinate-side enforcement: reject colliding intervals
        if (
            self.config.reject_interval_collisions
            and my_end.role is Role.SUBORDINATE
            and self._interval_collides(conn)
        ):
            self.collision_rejects += 1
            if self.config.collision_action == "update":
                self._negotiate_interval(conn)
            else:
                conn.close(DisconnectReason.INTERVAL_COLLISION)
                return
        loss_t = self._loss_time.pop(peer, None)
        if loss_t is not None:
            self.reconnect_delays_ns.append(self.node.sim.now - loss_t)
        if my_end.role is Role.SUBORDINATE:
            self._reevaluate_advertising()
        else:
            scanner = self._scanners.pop(peer, None)
            if scanner is not None and scanner.active:
                scanner.stop()

    def _interval_collides(self, conn: Connection) -> bool:
        interval = conn.params.interval_ns
        return any(
            other is not conn and other.params.interval_ns == interval
            for other in self.node.controller.connections
        )

    def _negotiate_interval(self, conn: Connection) -> None:
        """BT 5.0 path: move the interval via a parameter update, then
        verify after it applied (a concurrent setup may collide again)."""
        conn.request_param_update(self._make_params())
        # the update applies at an event boundary after the control PDU is
        # acknowledged; re-check two (old) intervals later
        self.node.sim.after(2 * conn.params.interval_ns, self._verify_update, conn)

    def _verify_update(self, conn: Connection) -> None:
        if not conn.open:
            return
        if self._interval_collides(conn):
            self.collision_rejects += 1
            self._negotiate_interval(conn)

    def _on_conn_close(self, conn: Connection, reason: DisconnectReason) -> None:
        peer = conn.peer_of(self.node.controller).identity
        spec = self._links.get(peer)
        if spec is None:
            return
        if reason is not DisconnectReason.LOCAL_CLOSE:
            # collision rejects are bookkept separately; only record true
            # losses (supervision timeouts) in the census
            if reason is DisconnectReason.SUPERVISION_TIMEOUT:
                self.losses.append(
                    LossRecord(self.node.sim.now, peer, spec.role, reason)
                )
            if peer not in self._loss_time:
                self._loss_time[peer] = self.node.sim.now
        self._kick(peer)
