"""Tests for ATT/GATT and the IPSS capability check."""

import pytest

from repro.gatt import GattClient, GattServer, IPSS_UUID, add_ipss, check_ip_support
from repro.gatt.att import (
    AttClient,
    AttServer,
    DEFAULT_ATT_MTU,
    OP_ERROR,
    OP_MTU_REQ,
    OP_MTU_RSP,
    OP_READ_RSP,
    parse_read_by_group_response,
)
from repro.l2cap import L2capCoc
from repro.sim.units import MSEC, SEC

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from ble.conftest import BlePlane  # noqa: E402


def att_pair(services=((IPSS_UUID, []),)):
    """A connection with a GATT server on node 1 and a client on node 0."""
    plane = BlePlane()
    conn = plane.connect(0, 1, anchor0=MSEC)
    coc = L2capCoc(conn)
    database = GattServer()
    for uuid, values in services:
        database.add_service(uuid, list(values))
    AttServer(coc, plane.nodes[1], database)
    return plane, coc, database


class TestDatabase:
    def test_handles_allocated_sequentially(self):
        db = GattServer()
        a = db.add_service(0x1820)
        b = db.add_service(0x180F, [b"\x64"])
        assert a.start == 1 and a.end == 1
        assert b.start == 2 and b.end == 3
        assert db.read(b.end) == b"\x64"

    def test_service_declaration_reads_uuid(self):
        db = GattServer()
        service = db.add_service(0x1820)
        assert db.read(service.start) == (0x1820).to_bytes(2, "little")

    def test_missing_handle_reads_none(self):
        assert GattServer().read(42) is None

    def test_range_query(self):
        db = GattServer()
        db.add_service(0x1800)
        db.add_service(0x1820)
        assert len(db.services_in_range(1, 0xFFFF)) == 2
        assert len(db.services_in_range(2, 0xFFFF)) == 1

    def test_add_ipss_idempotent(self):
        db = GattServer()
        add_ipss(db)
        add_ipss(db)
        assert sum(1 for s in db.services if s.uuid == IPSS_UUID) == 1


class TestAtt:
    def test_mtu_exchange(self):
        plane, coc, _ = att_pair()
        client = AttClient(coc, plane.nodes[0])
        responses = []
        client.request(bytes([OP_MTU_REQ, 0x40, 0x00]), responses.append)
        plane.sim.run(until=500 * MSEC)
        assert responses and responses[0][0] == OP_MTU_RSP
        assert int.from_bytes(responses[0][1:3], "little") == DEFAULT_ATT_MTU

    def test_read_by_group_lists_services(self):
        plane, coc, _ = att_pair(services=((0x1800, []), (IPSS_UUID, [])))
        client = AttClient(coc, plane.nodes[0])
        responses = []
        client.read_by_group_type(1, 0xFFFF, responses.append)
        plane.sim.run(until=500 * MSEC)
        groups = parse_read_by_group_response(responses[0])
        assert [u for _, _, u in groups] == [0x1800, IPSS_UUID]

    def test_read_attribute_value(self):
        plane, coc, db = att_pair(services=((0x180F, [b"\x55"]),))
        client = AttClient(coc, plane.nodes[0])
        responses = []
        client.read(2, responses.append)
        plane.sim.run(until=500 * MSEC)
        assert responses[0] == bytes([OP_READ_RSP]) + b"\x55"

    def test_error_response_for_bad_handle(self):
        plane, coc, _ = att_pair()
        client = AttClient(coc, plane.nodes[0])
        responses = []
        client.read(0x99, responses.append)
        plane.sim.run(until=500 * MSEC)
        assert responses[0][0] == OP_ERROR

    def test_single_outstanding_request_enforced(self):
        plane, coc, _ = att_pair()
        client = AttClient(coc, plane.nodes[0])
        client.read(1, lambda body: None)
        with pytest.raises(RuntimeError):
            client.read(2, lambda body: None)


class TestDiscovery:
    def test_discover_all_services(self):
        plane, coc, _ = att_pair(
            services=((0x1800, []), (0x180F, [b"\x64"]), (IPSS_UUID, []))
        )
        client = GattClient(coc, plane.nodes[0])
        done = []
        client.discover_primary_services(done.append)
        plane.sim.run(until=2 * SEC)
        assert len(done) == 1
        assert [u for _, _, u in done[0]] == [0x1800, 0x180F, IPSS_UUID]

    def test_check_ip_support_positive(self):
        plane, coc, _ = att_pair()
        verdicts = []
        check_ip_support(coc, plane.nodes[0], verdicts.append)
        plane.sim.run(until=2 * SEC)
        assert verdicts == [True]

    def test_check_ip_support_negative(self):
        plane, coc, _ = att_pair(services=((0x1800, []),))
        verdicts = []
        check_ip_support(coc, plane.nodes[0], verdicts.append)
        plane.sim.run(until=2 * SEC)
        assert verdicts == [False]

    def test_empty_database_reports_no_support(self):
        plane, coc, _ = att_pair(services=())
        verdicts = []
        check_ip_support(coc, plane.nodes[0], verdicts.append)
        plane.sim.run(until=2 * SEC)
        assert verdicts == [False]


class TestFullStackIntegration:
    def test_every_node_serves_ipss(self):
        """Node composition registers IPSS; peers can verify it live."""
        from repro.testbed.topology import BleNetwork

        net = BleNetwork(2, seed=81, ppms=[0.0, 0.0])
        net.apply_edges([(0, 1)])
        net.run(2 * SEC)
        conn = net.nodes[1].controller.connection_to(0)
        verdicts = []
        check_ip_support(conn._ipsp_coc, net.nodes[1].controller, verdicts.append)
        net.run(5 * SEC)
        assert verdicts == [True]

    def test_dynconn_rejects_non_ip_peer(self):
        """A peer without IPSS is disconnected and never re-adopted."""
        from repro.testbed.dynamic import DynamicBleNetwork

        net = DynamicBleNetwork(3, seed=82)
        for dynconn in net.dynconns:
            dynconn.config.verify_ipss = True
        # strip node 2's IP support
        net.nodes[2].gatt.services.clear()
        net.start()
        net.run(60 * SEC)
        assert net.rpls[1].joined
        assert not net.rpls[2].joined  # rejected, stays orphan
        rejections = sum(d.ipss_rejections for d in net.dynconns)
        assert rejections >= 1
        adopters = [d for d in net.dynconns if 2 in d.non_ip_peers]
        assert adopters, "the rejecting adopter must remember the peer"
