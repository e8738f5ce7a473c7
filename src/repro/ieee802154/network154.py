"""802.15.4 fleet construction mirroring :class:`BleNetwork`.

Thanks to the stack's abstraction layers (the same argument the paper makes
in §5.3), the identical CoAP producer/consumer workload runs over either
link layer: a :class:`Node154` exposes the same ``ip`` / ``udp`` /
``mesh_local`` surface as :class:`repro.core.node.Node`, and
:class:`CsmaNetwork` accepts the same edge lists and installs the same
static routes.

802.15.4 needs no statconn: there are no connections, only neighbour
entries, which are installed directly from the configured edges.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ieee802154.mac import Mac154, MacConfig
from repro.ieee802154.medium154 import CsmaMedium
from repro.ieee802154.netif154 import Netif154
from repro.net.fib import install_tree_routes
from repro.net.ip import Ipv6Stack
from repro.net.pktbuf import PacketBuffer
from repro.net.udp import UdpStack
from repro.phy.medium import InterferenceModel
from repro.sim import RngRegistry, Simulator
from repro.sixlowpan.ipv6 import Ipv6Address


class Node154:
    """One IPv6-over-802.15.4 node (the m3 equivalent)."""

    def __init__(
        self,
        sim: Simulator,
        medium: CsmaMedium,
        node_id: int,
        rng: random.Random,
        mac_config: Optional[MacConfig] = None,
        pktbuf_capacity: int = 6144,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.mac = Mac154(sim, medium, node_id, rng, mac_config)
        self.pktbuf = PacketBuffer(pktbuf_capacity, name=f"m3-{node_id}.pktbuf")
        self.netif = Netif154(self.mac, self.pktbuf)
        self.ip = Ipv6Stack(node_id)
        self.ip.add_netif(self.netif)
        self.udp = UdpStack(self.ip)

    @property
    def mesh_local(self) -> Ipv6Address:
        """This node's routable mesh address."""
        return self.ip.mesh_local

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node154 {self.node_id}>"


class CsmaNetwork:
    """A simulator + CSMA medium + full-stack 802.15.4 nodes."""

    def __init__(
        self,
        n_nodes: int,
        seed: int = 1,
        mac_config_factory=None,
        interference: Optional[InterferenceModel] = None,
        pktbuf_capacity: int = 6144,
    ) -> None:
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.medium = CsmaMedium(
            self.sim, self.rngs.stream("medium154"), interference
        )
        self.nodes: List[Node154] = []
        for node_id in range(n_nodes):
            mac_config = (
                mac_config_factory(node_id) if mac_config_factory else MacConfig()
            )
            self.nodes.append(
                Node154(
                    self.sim,
                    self.medium,
                    node_id,
                    rng=self.rngs.stream(f"m3-{node_id}"),
                    mac_config=mac_config,
                    pktbuf_capacity=pktbuf_capacity,
                )
            )
        self._parent_of: Dict[int, int] = {}

    def apply_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Install neighbour entries and static routes for the edge list.

        No connections exist on 802.15.4; both edge endpoints immediately
        become each other's neighbours.
        """
        edges = list(edges)
        for parent, child in edges:
            self._parent_of[child] = parent
            self.nodes[parent].ip.neighbor_up(child, self.nodes[parent].netif)
            self.nodes[child].ip.neighbor_up(parent, self.nodes[child].netif)
        install_tree_routes(
            [node.ip.fib for node in self.nodes], self._parent_of, edges
        )

    def run(self, until_ns: int) -> None:
        """Advance the simulation to ``until_ns``."""
        self.sim.run(until=until_ns)
