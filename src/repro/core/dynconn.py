"""dynconn: dynamic BLE topology formation (the paper's future work, §9).

statconn (§3) needs a pre-configured link list; the paper names "the
management of BLE topologies, the coupling of BLE topologies with IP
routing, and the adaptability ... to dynamic environments" as open
questions.  dynconn is that coupling, in the spirit of the RPL-over-BLE
architecture of Lee et al. [29] which the paper cites:

* **orphans advertise** (they have no uplink),
* **joined routers scan** and adopt orphan advertisers as children (up to
  ``max_children``, respecting the constrained-node limits of §4.3),
* the fresh BLE link carries RPL DIOs at once, the child joins the DODAG
  and starts adopting its own children -- the mesh grows from the root out,
* on uplink loss the RPL layer detaches (poisoning its sub-DODAG) and
  dynconn falls back to advertising; surviving BLE links let descendants
  re-join without re-forming connections,
* a detached node that keeps an uplink but fails to rejoin within
  ``orphan_timeout_ns`` closes that uplink and re-advertises.  Without
  this, churn can strand a *connection cycle*: every node in the ring
  holds a subordinate-role link to another detached ring member, so none
  advertises (it "has an uplink") and none scans (it is not joined) --
  a deadlock no DIO can ever break, since the ring carries no root.

Role note: under dynconn the *adopting* (upstream) node is the connection
coordinator -- inverted with respect to statconn's convention -- because
discovery must radiate outward from the joined part of the network.  Interior
nodes still hold one subordinate-role uplink plus coordinator-role child
links, so connection shading applies unchanged, and the randomized-interval
policy (§6.3) is dynconn's default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.ble.conn import Connection, DisconnectReason, Role
from repro.core.intervals import IntervalPolicy, RandomWindowIntervalPolicy
from repro.gatt.ipss import check_ip_support
from repro.net.netif import coc_of
from repro.sim.units import MSEC, SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node
    from repro.rpl.rpl import RplInstance


def _default_policy() -> IntervalPolicy:
    import random

    return RandomWindowIntervalPolicy(65 * MSEC, 85 * MSEC, random.Random(0))


@dataclass
class DynconnConfig:
    """dynconn behaviour knobs.

    :param interval_policy: connection-interval policy for adopted links
        (defaults to the paper's §6.3 randomized window).
    :param max_children: adoption capacity per router (the paper limits
        simultaneous connections for radio/memory reasons, §4.3).
    :param reject_interval_collisions: §6.3 subordinate-side enforcement.
    :param verify_ipss: after adopting a node, check via GATT that it
        exposes the Internet Protocol Support Service; peers without it are
        disconnected and never re-adopted (the §3 capability check).
    :param adv_payload_len: AdvData bytes carried while advertising.
    :param orphan_timeout_ns: how long a detached node keeps waiting for a
        DIO over a surviving uplink before giving that uplink up (closing
        it and re-advertising).  Healthy rejoins finish within seconds (a
        detached node's DIS solicits reset the parent's Trickle timer), so
        the timeout only fires for uplinks that can never deliver a route
        to the root -- most notably connection cycles among detached
        nodes, which are otherwise a permanent formation deadlock.
    """

    interval_policy: IntervalPolicy = field(default_factory=_default_policy)
    max_children: int = 3
    reject_interval_collisions: bool = True
    verify_ipss: bool = False
    adv_payload_len: int = 20
    orphan_timeout_ns: int = 20 * SEC


class Dynconn:
    """The dynamic connection manager instance of one node."""

    def __init__(
        self,
        node: "Node",
        rpl: "RplInstance",
        config: Optional[DynconnConfig] = None,
    ) -> None:
        self.node = node
        self.rpl = rpl
        self.config = config or DynconnConfig()
        self._advertiser = None
        self._scanner = None
        self._running = False
        self._orphan_timer = None
        #: Peers that failed the IPSS capability check (never re-adopted).
        self.non_ip_peers: set = set()
        #: Adoption events (diagnostics).
        self.adoptions = 0
        self.orphanings = 0
        self.ipss_rejections = 0
        #: Uplinks abandoned because rejoining timed out (cycle breaks).
        self.orphan_timeouts = 0
        node.controller.conn_open_listeners.append(self._on_conn_open)
        node.controller.conn_close_listeners.append(self._on_conn_close)
        rpl.on_parent_change = self._on_parent_change

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Begin topology formation (roots scan, everyone else advertises)."""
        self._running = True
        self.rpl.start()
        self._update_state()

    def stop(self) -> None:
        """Halt formation (existing links stay up)."""
        self._running = False
        self._stop_advertising()
        self._stop_scanning()
        self._cancel_orphan_timer()

    # -- state machine -----------------------------------------------------------

    def child_count(self) -> int:
        """Live connections in which this node is the coordinator."""
        controller = self.node.controller
        return sum(
            1
            for conn in controller.connections
            if controller.role_of(conn) is Role.COORDINATOR
        )

    def has_uplink(self) -> bool:
        """Whether a subordinate-role (uplink) connection is live."""
        controller = self.node.controller
        return any(
            controller.role_of(conn) is Role.SUBORDINATE
            for conn in controller.connections
        ) or self.rpl.is_root

    def _update_state(self) -> None:
        if not self._running:
            return
        if self.rpl.joined:
            self._cancel_orphan_timer()
            self._stop_advertising()
            if self.child_count() < self.config.max_children:
                self._ensure_scanning()
            else:
                self._stop_scanning()
        else:
            self._stop_scanning()
            if self.has_uplink():
                # wait for a DIO over the surviving uplink -- but not
                # forever: see the orphan_timeout_ns rationale
                self._ensure_orphan_timer()
            else:
                self._cancel_orphan_timer()
                self._ensure_advertising()

    def _ensure_orphan_timer(self) -> None:
        if self._orphan_timer is not None:
            return
        self._orphan_timer = self.node.sim.after(
            self.config.orphan_timeout_ns, self._on_orphan_timeout
        )

    def _cancel_orphan_timer(self) -> None:
        if self._orphan_timer is not None:
            self._orphan_timer.cancel()
            self._orphan_timer = None

    def _on_orphan_timeout(self) -> None:
        self._orphan_timer = None
        if not self._running or self.rpl.joined:
            return
        controller = self.node.controller
        uplinks = [
            conn
            for conn in list(controller.connections)
            if controller.role_of(conn) is Role.SUBORDINATE
        ]
        if not uplinks:
            self._update_state()
            return
        self.orphan_timeouts += 1
        for conn in uplinks:
            conn.close(DisconnectReason.LOCAL_CLOSE)
        # _on_conn_close already re-evaluated; advertising resumes there

    def _ensure_advertising(self) -> None:
        if self._advertiser is not None and self._advertiser.active:
            return
        self._advertiser = self.node.controller.advertise(
            payload_len=self.config.adv_payload_len
        )

    def _stop_advertising(self) -> None:
        if self._advertiser is not None and self._advertiser.active:
            self._advertiser.stop()

    def _ensure_scanning(self) -> None:
        if self._scanner is not None and self._scanner.active:
            return
        self._scanner = self.node.controller.initiate(
            target_addr=None,  # adopt any orphan in range
            params_factory=self._make_params,
            accept=lambda addr: addr not in self.non_ip_peers,
        )

    def _stop_scanning(self) -> None:
        if self._scanner is not None and self._scanner.active:
            self._scanner.stop()

    def _make_params(self):
        return self.config.interval_policy.make_params(
            self.node.controller.used_intervals_ns()
        )

    # -- events ---------------------------------------------------------------------

    def _on_conn_open(self, conn: Connection) -> None:
        if not self._running:
            return
        my_role = self.node.controller.role_of(conn)
        if my_role is Role.SUBORDINATE:
            # §6.3 enforcement on the adopted side
            if self.config.reject_interval_collisions and self._collides(conn):
                conn.close(DisconnectReason.INTERVAL_COLLISION)
                return
        else:
            self.adoptions += 1
            if self.config.verify_ipss:
                self._verify_ip_support(conn)
        self._update_state()

    def _verify_ip_support(self, conn: Connection) -> None:
        """§3's capability check: GATT-discover the adopted peer's IPSS."""
        peer = conn.peer_of(self.node.controller).identity

        def verdict(supported: bool) -> None:
            if supported or not conn.open:
                return
            self.ipss_rejections += 1
            self.non_ip_peers.add(peer)
            conn.close(DisconnectReason.LOCAL_CLOSE)

        check_ip_support(coc_of(conn), self.node.controller, verdict)

    def _collides(self, conn: Connection) -> bool:
        interval = conn.params.interval_ns
        return any(
            other is not conn and other.params.interval_ns == interval
            for other in self.node.controller.connections
        )

    def _on_conn_close(self, conn: Connection, reason: DisconnectReason) -> None:
        if not self._running:
            return
        if (
            self.node.controller.role_of(conn) is Role.SUBORDINATE
            and reason is not DisconnectReason.INTERVAL_COLLISION
        ):
            self.orphanings += 1
        self._update_state()

    def _on_parent_change(self, parent) -> None:
        self._update_state()
