"""Network construction and the paper's topologies (Figure 6).

The paper deploys two statically configured layouts on 15 nodes:

* a **tree** rooted at the consumer with a maximum hop count of 3 and an
  average producer hop count of 2.14 (the root holds three connections in
  the subordinate role, cf. Fig. 12);
* a **line** of 15 nodes (14 hops end-to-end, average producer distance
  7.5 hops).

Link roles follow statconn: for every edge the node *closer to the
consumer* is the subordinate (it advertises) and the child initiates as
coordinator.  This reproduces the property the paper's Fig. 12 relies on:
the consumer maintains all of its connections in the subordinate role.

Routes are installed statically (§4.3): every node's default route points
at its parent, and each node holds host routes for all nodes in its own
subtree so responses travel back down.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ble.config import BleConfig
from repro.ble.conn import Role
from repro.core.node import Node
from repro.core.statconn import StatconnConfig
from repro.l2cap import CocConfig
from repro.net.fib import install_tree_routes
from repro.phy.medium import BleMedium, InterferenceModel
from repro.phy.spatial import Geometry
from repro.sim import RngRegistry, Simulator

#: (parent, child) edges of the paper-like tree; node 0 is the consumer.
#: Hop counts: 3 producers at 1 hop, 6 at 2, 5 at 3 -> mean 30/14 = 2.14,
#: matching §5.1, with the root holding 3 subordinate-role connections.
_TREE_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 4),
    (1, 5),
    (2, 6),
    (2, 7),
    (3, 8),
    (3, 9),
    (4, 10),
    (4, 11),
    (5, 12),
    (6, 13),
    (7, 14),
)


def tree_topology_edges(n_nodes: int = 15) -> List[Tuple[int, int]]:
    """(parent, child) edges of the paper-like tree (consumer = node 0)."""
    if n_nodes != 15:
        raise ValueError("the paper tree is defined for exactly 15 nodes")
    return list(_TREE_EDGES)


def line_topology_edges(n_nodes: int = 15) -> List[Tuple[int, int]]:
    """(parent, child) edges of a line; consumer = node 0 at one end."""
    if n_nodes < 2:
        raise ValueError("a line needs at least 2 nodes")
    return [(i, i + 1) for i in range(n_nodes - 1)]


def star_topology_edges(n_nodes: int = 15) -> List[Tuple[int, int]]:
    """(parent, child) edges of an RFC 7668-style star around node 0."""
    if n_nodes < 2:
        raise ValueError("a star needs at least 2 nodes")
    return [(0, i) for i in range(1, n_nodes)]


#: The statically configured layouts by topology name.  Each builder is the
#: one place its fleet-size rule lives: it raises ValueError for a node
#: count it is not defined for, which config validation relies on.
LAYOUTS: Dict[str, Callable[[int], List[Tuple[int, int]]]] = {
    "tree": tree_topology_edges,
    "line": line_topology_edges,
    "star": star_topology_edges,
}


class BleNetwork:
    """A simulator + medium + a set of full-stack nodes.

    :param n_nodes: fleet size.
    :param seed: master seed; every stochastic stream derives from it.
    :param ppms: per-node sleep-clock errors; defaults to a uniform draw in
        ±3 ppm (the paper measured at most ~6 us/s relative drift between
        boards, §6.2).
    :param ble_config_factory: per-node controller configuration.
    :param statconn_config_factory: per-node statconn configuration.
    :param interference: medium loss model (e.g. the jammed channel 22).
    :param pktbuf_capacity: GNRC packet buffer size (paper: 6144).
    :param geometry: node positions + radio range for the spatial medium
        (``None`` keeps the paper's all-in-mutual-range plane).
    """

    def __init__(
        self,
        n_nodes: int,
        seed: int = 1,
        ppms: Optional[Sequence[float]] = None,
        ble_config_factory=None,
        statconn_config_factory=None,
        interference: Optional[InterferenceModel] = None,
        pktbuf_capacity: int = 6144,
        coc_config: Optional[CocConfig] = None,
        geometry: Optional[Geometry] = None,
    ) -> None:
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.medium = BleMedium(
            self.sim, self.rngs.stream("medium"), interference, geometry
        )
        if ppms is None:
            drift_rng = self.rngs.stream("clock-drift")
            ppms = [drift_rng.uniform(-3.0, 3.0) for _ in range(n_nodes)]
        if len(ppms) != n_nodes:
            raise ValueError("one ppm value per node required")
        self.nodes: List[Node] = []
        for node_id in range(n_nodes):
            ble_config = (
                ble_config_factory(node_id) if ble_config_factory else BleConfig()
            )
            statconn_config = (
                statconn_config_factory(node_id)
                if statconn_config_factory
                else StatconnConfig()
            )
            self.nodes.append(
                Node(
                    self.sim,
                    self.medium,
                    node_id,
                    ppm=ppms[node_id],
                    ble_config=ble_config,
                    statconn_config=statconn_config,
                    pktbuf_capacity=pktbuf_capacity,
                    coc_config=coc_config,
                    rng=self.rngs.stream(f"node{node_id}"),
                )
            )
        self._parent_of: Dict[int, int] = {}

    # -- wiring ----------------------------------------------------------------

    def apply_edges(
        self, edges: Iterable[Tuple[int, int]], install_routes: bool = True
    ) -> None:
        """Configure statconn links and static routes for (parent, child)
        edges; parents advertise (subordinate), children initiate
        (coordinator).

        :param install_routes: set False to leave the FIBs empty (e.g. when
            RPL provides the routes, see :mod:`repro.rpl`).
        """
        edges = list(edges)
        for parent, child in edges:
            self._parent_of[child] = parent
            self.nodes[parent].statconn.add_link(child, Role.SUBORDINATE)
            self.nodes[child].statconn.add_link(parent, Role.COORDINATOR)
        if install_routes:
            install_tree_routes(
                [node.ip.fib for node in self.nodes], self._parent_of, edges
            )

    # -- convenience -------------------------------------------------------------

    def parent_of(self, node_id: int) -> Optional[int]:
        """The configured parent of ``node_id`` (None for the root)."""
        return self._parent_of.get(node_id)

    def hop_count(self, node_id: int, root: int = 0) -> int:
        """Configured hops from ``node_id`` up to ``root``."""
        hops = 0
        current = node_id
        while current != root:
            nxt = self._parent_of.get(current)
            if nxt is None:
                raise ValueError(f"node {node_id} is not connected to {root}")
            current = nxt
            hops += 1
        return hops

    def all_links_up(self) -> bool:
        """Whether every configured statconn link is established."""
        return all(node.statconn.all_links_up() for node in self.nodes)

    def run(self, until_ns: int) -> None:
        """Advance the simulation to ``until_ns`` (absolute true time)."""
        self.sim.run(until=until_ns)

    def total_connection_losses(self) -> int:
        """Supervision-timeout losses across the fleet (each loss is seen by
        both ends; statconn records it on both, so divide by two)."""
        return sum(len(node.statconn.losses) for node in self.nodes) // 2
