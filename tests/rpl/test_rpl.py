"""Tests for the RPL-lite router over static BLE links.

BLE links come from statconn (so the link layer is known-good); routes come
exclusively from RPL -- DIOs downward, DAOs upward, storing-mode host
routes.  The resulting forwarding state must match what the paper
configures statically (§4.3).
"""

from repro.rpl import INFINITE_RANK, RplConfig, RplInstance
from repro.sim.units import SEC
from repro.sixlowpan.ipv6 import Ipv6Address
from repro.testbed.topology import BleNetwork, line_topology_edges, tree_topology_edges


def rpl_network(edges, n, seed=71, config=None):
    net = BleNetwork(n, seed=seed, ppms=[0.0] * n)
    net.apply_edges(edges, install_routes=False)
    rpls = [
        RplInstance(node, is_root=(node.node_id == 0), config=config or RplConfig())
        for node in net.nodes
    ]
    for rpl in rpls:
        rpl.start()
    return net, rpls


class TestJoin:
    def test_line_converges(self):
        net, rpls = rpl_network(line_topology_edges(4), 4)
        net.run(30 * SEC)
        for node_id, rpl in enumerate(rpls):
            assert rpl.joined, f"node {node_id} never joined"
            assert rpl.hops_to_root() == node_id

    def test_tree_converges_with_paper_depths(self):
        net, rpls = rpl_network(tree_topology_edges(), 15)
        net.run(60 * SEC)
        for node_id, rpl in enumerate(rpls):
            assert rpl.joined, f"node {node_id} never joined"
            assert rpl.hops_to_root() == net.hop_count(node_id), (
                f"node {node_id}: RPL depth != link depth"
            )

    def test_parents_follow_links(self):
        net, rpls = rpl_network(line_topology_edges(4), 4)
        net.run(30 * SEC)
        for node_id in range(1, 4):
            assert rpls[node_id].parent == Ipv6Address.mesh_local(node_id - 1)

    def test_root_never_reparents(self):
        net, rpls = rpl_network(line_topology_edges(3), 3)
        net.run(30 * SEC)
        assert rpls[0].parent is None
        assert rpls[0].rank == rpls[0].config.min_hop_rank_increase


class TestRoutes:
    def test_default_routes_point_to_parent(self):
        net, rpls = rpl_network(line_topology_edges(4), 4)
        net.run(30 * SEC)
        for node_id in range(1, 4):
            assert net.nodes[node_id].ip.fib.lookup(
                Ipv6Address.mesh_local(0)
            ) == Ipv6Address.mesh_local(node_id - 1)

    def test_dao_routes_reach_down_the_tree(self):
        net, rpls = rpl_network(tree_topology_edges(), 15)
        net.run(60 * SEC)
        # the root must know a downstream route to every node; interior
        # nodes to every descendant (the paper's manual configuration)
        for target in range(1, 15):
            hop = net.nodes[0].ip.fib.lookup(Ipv6Address.mesh_local(target))
            assert hop is not None, f"root lacks a route to {target}"
        # node 1's subtree: 4, 5, 10, 11, 12
        for target in (4, 5, 10, 11, 12):
            assert net.nodes[1].ip.fib.lookup(
                Ipv6Address.mesh_local(target)
            ) is not None

    def test_end_to_end_traffic_over_rpl_routes(self):
        from repro.testbed.traffic import Consumer, Producer

        net, rpls = rpl_network(tree_topology_edges(), 15)
        net.run(60 * SEC)
        consumer = Consumer(net.nodes[0])
        producer = Producer(net.nodes[10], net.nodes[0].mesh_local)
        producer.start()
        net.run(80 * SEC)
        assert producer.acks_received > 0
        assert consumer.total_requests >= producer.acks_received
        assert producer.pdr > 0.9


class TestRepair:
    def test_parent_loss_detaches_and_poisons_subtree(self):
        from repro.ble.conn import DisconnectReason

        net, rpls = rpl_network(line_topology_edges(4), 4)
        net.run(30 * SEC)
        # cut the 0-1 link: 1 loses its parent; 2 and 3 hear the poison
        conn = net.nodes[1].controller.connection_to(0)
        conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
        # the BLE link is back within ~100 ms (statconn), but the re-join
        # waits for the root's next Trickle-paced DIO (interval has grown
        # to tens of seconds by now)
        net.run(90 * SEC)
        for node_id, rpl in enumerate(rpls):
            assert rpl.joined, f"node {node_id} did not recover"
        assert rpls[1].detaches >= 1

    def test_child_loss_withdraws_dao_routes(self):
        from repro.ble.conn import DisconnectReason

        net, rpls = rpl_network(line_topology_edges(3), 3)
        net.run(30 * SEC)
        assert net.nodes[1].ip.fib.lookup(
            Ipv6Address.mesh_local(2)
        ) == Ipv6Address.mesh_local(2)
        conn = net.nodes[2].controller.connection_to(1)
        conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
        # immediately after the loss the *host* route is gone: lookups now
        # fall through to the default route (towards the root)
        assert net.nodes[1].ip.fib.lookup(
            Ipv6Address.mesh_local(2)
        ) == Ipv6Address.mesh_local(0)
        net.run(120 * SEC)
        # and it comes back after statconn + RPL heal
        assert net.nodes[1].ip.fib.lookup(
            Ipv6Address.mesh_local(2)
        ) is not None


class TestProtocolDetails:
    def test_trickle_slows_down_when_consistent(self):
        net, rpls = rpl_network(line_topology_edges(3), 3)
        net.run(120 * SEC)
        for rpl in rpls:
            assert rpl.trickle.interval_ns > rpl.config.trickle_imin_ns

    def test_infinite_rank_constant(self):
        assert INFINITE_RANK == 0xFFFF

    def test_foreign_instance_ignored(self):
        net, rpls = rpl_network(line_topology_edges(2), 2,
                                config=RplConfig(instance_id=1))
        # node 1 runs instance 7 instead
        rpls[1].config = RplConfig(instance_id=7)
        net.run(20 * SEC)
        assert not rpls[1].joined


class TestSolicitation:
    def test_unjoined_nodes_send_dis(self):
        """Detached routers poll with DIS instead of waiting for Trickle."""
        net, rpls = rpl_network(line_topology_edges(3), 3)
        net.run(30 * SEC)
        # everyone joined quickly, but the non-roots solicited at least once
        assert all(r.dis_sent >= 1 for r in rpls[1:])
        assert rpls[0].dis_sent == 0  # the root never solicits

    def test_dis_makes_healing_fast(self):
        """Re-joining after a loss beats the grown Trickle interval."""
        from repro.ble.conn import DisconnectReason

        net, rpls = rpl_network(line_topology_edges(3), 3)
        net.run(60 * SEC)  # trickle intervals have grown well past Imin
        assert rpls[1].trickle.interval_ns > 10 * SEC
        conn = net.nodes[1].controller.connection_to(0)
        conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
        cut_at = net.sim.now
        while not all(r.joined for r in rpls) and net.sim.now < cut_at + 120 * SEC:
            net.run(net.sim.now + 1 * SEC)
        healing_s = (net.sim.now - cut_at) / SEC
        assert all(r.joined for r in rpls)
        # DIS-triggered Trickle resets keep healing near the DIS cadence,
        # far below the ~30-60 s a silent wait would have cost
        assert healing_s <= 15, f"healing took {healing_s:.0f}s"
