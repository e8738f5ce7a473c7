"""Full-stack node composition (the paper's Figure 5 as one object).

A :class:`Node` is one simulated firmware image: BLE controller (NimBLE
equivalent), the netif bridge, GNRC-style packet buffer + IPv6 + UDP, and
statconn on top.  CoAP endpoints attach via :mod:`repro.coap`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.ble.config import BleConfig
from repro.ble.controller import BleController
from repro.core.statconn import Statconn, StatconnConfig
from repro.gatt import GattServer, add_ipss
from repro.gatt.att import AttServer
from repro.l2cap import CocConfig
from repro.net.icmpv6 import Icmpv6Stack
from repro.net.ip import Ipv6Stack
from repro.net.netif import BleNetif, coc_of
from repro.net.pktbuf import PacketBuffer
from repro.net.udp import UdpStack
from repro.phy.medium import BleMedium
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator
from repro.sixlowpan.ipv6 import Ipv6Address


class Node:
    """One IPv6-over-BLE node.

    :param sim: simulation kernel.
    :param medium: shared radio plane.
    :param node_id: identity; doubles as the BLE device address and derives
        both IPv6 addresses.
    :param ppm: sleep-clock frequency error (drives connection shading).
    :param ble_config: controller configuration (paper defaults if omitted).
    :param statconn_config: connection manager configuration.
    :param pktbuf_capacity: GNRC packet buffer bytes (paper: 6144).
    :param coc_config: L2CAP channel parameters.
    :param rng: node-local random stream (advertising jitter etc.).
    :param nib_entries: neighbour cache size (paper: 32).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: BleMedium,
        node_id: int,
        ppm: float = 0.0,
        ble_config: Optional[BleConfig] = None,
        statconn_config: Optional[StatconnConfig] = None,
        pktbuf_capacity: int = 6144,
        coc_config: Optional[CocConfig] = None,
        rng: Optional[random.Random] = None,
        nib_entries: int = 32,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.clock = DriftingClock(sim, ppm=ppm)
        self.controller = BleController(
            sim,
            medium,
            addr=node_id,
            clock=self.clock,
            config=ble_config,
            rng=rng,
            name=f"node{node_id}",
        )
        self.pktbuf = PacketBuffer(pktbuf_capacity, name=f"node{node_id}.pktbuf")
        self.netif = BleNetif(self.controller, self.pktbuf, coc_config)
        self.ip = Ipv6Stack(node_id, nib_entries)
        self.ip.add_netif(self.netif)
        self.udp = UdpStack(self.ip)
        self.icmp = Icmpv6Stack(self.ip, sim)
        # GATT database with the Internet Protocol Support Service (Fig. 2);
        # every connection gets an ATT server so peers can verify IP support
        self.gatt = GattServer()
        add_ipss(self.gatt)

        def _attach_att(conn, node=self):
            AttServer(coc_of(conn), node.controller, node.gatt)

        self.controller.conn_open_listeners.append(_attach_att)
        self.statconn = Statconn(self, statconn_config)

    @property
    def link_local(self) -> Ipv6Address:
        """This node's link-local address."""
        return self.ip.link_local

    @property
    def mesh_local(self) -> Ipv6Address:
        """This node's routable mesh address."""
        return self.ip.mesh_local

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"
