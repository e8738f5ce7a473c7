"""Failure-injection / churn properties of the self-healing stack."""

from hypothesis import given, settings, strategies as st

from repro.ble.conn import DisconnectReason, Role
from repro.sim.units import SEC
from repro.testbed.dynamic import DynamicBleNetwork
from repro.testbed.topology import BleNetwork, tree_topology_edges


@given(
    seed=st.integers(0, 50),
    kills=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_dynamic_mesh_always_heals_after_random_kills(seed, kills):
    """Property: whatever uplinks die, the mesh re-forms completely."""
    net = DynamicBleNetwork(8, seed=seed)
    net.start()
    net.run(60 * SEC)
    assert net.fully_joined()
    for kill in kills:
        conns = [
            conn
            for node in net.nodes
            for conn in node.controller.connections
            if conn.coord.controller is node.controller
        ]
        victim = conns[kill % len(conns)]
        victim.close(DisconnectReason.SUPERVISION_TIMEOUT)
        net.run(net.sim.now + 60 * SEC)
    deadline = net.sim.now + 300 * SEC
    while not net.fully_joined() and net.sim.now < deadline:
        net.run(net.sim.now + 5 * SEC)
    assert net.fully_joined(), "mesh failed to heal after churn"
    # structural invariants after healing
    for node, dynconn, rpl in zip(net.nodes, net.dynconns, net.rpls):
        intervals = node.controller.used_intervals_ns()
        assert len(set(intervals)) == len(intervals), "interval collision"
        assert dynconn.child_count() <= dynconn.config.max_children
        if not rpl.is_root:
            assert rpl.parent is not None


@given(seed=st.integers(0, 30), kill_index=st.integers(0, 13))
@settings(max_examples=8, deadline=None)
def test_statconn_always_restores_the_configured_tree(seed, kill_index):
    """Property: statconn re-establishes any killed configured link."""
    net = BleNetwork(15, seed=seed, ppms=[0.0] * 15)
    edges = tree_topology_edges()
    net.apply_edges(edges)
    net.run(5 * SEC)
    assert net.all_links_up()
    parent, child = edges[kill_index]
    conn = net.nodes[child].controller.connection_to(parent)
    conn.close(DisconnectReason.SUPERVISION_TIMEOUT)
    net.run(net.sim.now + 3 * SEC)
    assert net.all_links_up()
    new_conn = net.nodes[child].controller.connection_to(parent)
    assert new_conn is not None and new_conn is not conn
    assert net.nodes[child].controller.role_of(new_conn) is Role.COORDINATOR
