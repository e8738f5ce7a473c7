"""Tests for dynamic topology formation (dynconn + RPL)."""

from repro.ble.conn import DisconnectReason, Role
from repro.sim.units import SEC
from repro.testbed.dynamic import DynamicBleNetwork


def formed(n_nodes=8, seed=5, run_s=60, **kwargs):
    net = DynamicBleNetwork(n_nodes, seed=seed, **kwargs)
    net.start()
    net.run(run_s * SEC)
    return net


def test_mesh_forms_from_nothing():
    net = formed()
    assert net.fully_joined()
    links = sum(len(n.controller.connections) for n in net.nodes) // 2
    assert links == 7  # a spanning tree


def test_child_cap_respected():
    net = formed(n_nodes=10, max_children=2, seed=6, run_s=120)
    assert net.fully_joined()
    for node, dynconn in zip(net.nodes, net.dynconns):
        assert dynconn.child_count() <= 2, f"node {node.node_id} over cap"


def test_depths_consistent_with_links():
    net = formed()
    for node, rpl in zip(net.nodes, net.rpls):
        if rpl.is_root:
            assert rpl.hops_to_root() == 0
            continue
        parent_id = rpl.parent.node_id()
        parent_rpl = net.rpls[parent_id]
        assert rpl.hops_to_root() == parent_rpl.hops_to_root() + 1
        # the RPL parent is an actual BLE neighbour
        assert node.controller.connection_to(parent_id) is not None


def test_interval_uniqueness_holds_in_dynamic_mesh():
    """dynconn defaults to the §6.3 policy: no node reuses an interval."""
    net = formed(n_nodes=10, seed=7, run_s=120)
    for node in net.nodes:
        intervals = node.controller.used_intervals_ns()
        assert len(set(intervals)) == len(intervals)


def test_traffic_flows_over_formed_mesh():
    from repro.testbed.traffic import Consumer, Producer

    net = formed(seed=8)
    Consumer(net.nodes[0])
    producer = Producer(net.nodes[7], net.nodes[0].mesh_local)
    producer.start()
    net.run(90 * SEC)
    assert producer.acks_received > 0
    assert producer.pdr > 0.9


def test_router_failure_heals():
    """Killing a router's uplink re-attaches its whole subtree."""
    net = formed(n_nodes=8, seed=5, run_s=60)
    # pick a router with children
    router = next(
        d for d in net.dynconns if d.child_count() > 0 and not d.rpl.is_root
    )
    node = router.node
    uplink = next(
        conn
        for conn in node.controller.connections
        if node.controller.role_of(conn) is Role.SUBORDINATE
    )
    uplink.close(DisconnectReason.SUPERVISION_TIMEOUT)
    assert not router.rpl.joined  # detached immediately
    net.run(net.sim.now + 120 * SEC)
    assert net.fully_joined(), "the subtree must re-join"


def test_orphan_advertises_and_joined_scan():
    net = DynamicBleNetwork(3, seed=9)
    net.start()
    # before anything happens: root scans, orphans advertise
    root_dyn, orphan_dyn = net.dynconns[0], net.dynconns[1]
    assert root_dyn._scanner is not None and root_dyn._scanner.active
    assert orphan_dyn._advertiser is not None and orphan_dyn._advertiser.active
    net.run(60 * SEC)
    assert net.fully_joined()
    # fully formed: nobody advertises anymore
    for dynconn in net.dynconns:
        adv = dynconn._advertiser
        assert adv is None or not adv.active


def test_formation_deterministic_per_seed():
    a = formed(seed=11)
    b = formed(seed=11)
    assert a.formation_depths() == b.formation_depths()


def test_verify_ipss_accepts_capable_fleet():
    """With every node exposing IPSS, verification never rejects anyone."""
    net = DynamicBleNetwork(6, seed=14)
    for dynconn in net.dynconns:
        dynconn.config.verify_ipss = True
    net.start()
    net.run(90 * SEC)
    assert net.fully_joined()
    assert sum(d.ipss_rejections for d in net.dynconns) == 0
