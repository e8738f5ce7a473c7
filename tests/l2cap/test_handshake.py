"""Tests for the LE credit-based connection handshake (RFC 7668 / IPSP)."""

from repro.l2cap import L2capCoc
from repro.l2cap.coc import IPSP_PSM
from repro.sim.units import MSEC, SEC

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from ble.conftest import BlePlane  # noqa: E402


def handshake_coc(accept=True, open_from=0):
    plane = BlePlane()
    conn = plane.connect(0, 1, anchor0=MSEC)
    coc = L2capCoc(conn, handshake=True)
    if accept:
        coc.accept_psm(IPSP_PSM)
    results = []
    coc.open_listeners.append(lambda c, ok: results.append(ok))
    coc.open_channel(plane.nodes[open_from], IPSP_PSM)
    return plane, conn, coc, results


def test_handshake_opens_channel():
    plane, conn, coc, results = handshake_coc()
    assert coc.state == "requested"
    plane.sim.run(until=500 * MSEC)
    assert coc.state == "open"
    assert results == [True]


def test_unknown_psm_refused():
    plane, conn, coc, results = handshake_coc(accept=False)
    plane.sim.run(until=500 * MSEC)
    assert coc.state == "refused"
    assert results == [False]
    assert not coc.is_open


def test_data_queued_before_open_flows_after():
    plane, conn, coc, results = handshake_coc()
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    coc.send(plane.nodes[0], b"early-bird")  # queued while 'requested'
    assert got == []
    plane.sim.run(until=1 * SEC)
    assert got == [b"early-bird"]


def test_data_never_flows_on_refused_channel():
    plane, conn, coc, results = handshake_coc(accept=False)
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    coc.send(plane.nodes[0], b"never")
    plane.sim.run(until=2 * SEC)
    assert got == []


def test_legacy_mode_is_born_open():
    plane = BlePlane()
    conn = plane.connect(0, 1, anchor0=MSEC)
    coc = L2capCoc(conn)  # no handshake
    assert coc.is_open


def test_netif_path_performs_handshake():
    """The full stack opens the IPSP channel from the coordinator side."""
    from repro.sim.units import SEC as _SEC
    from repro.testbed.topology import BleNetwork

    net = BleNetwork(2, seed=77, ppms=[0.0, 0.0])
    net.apply_edges([(0, 1)])
    net.run(3 * _SEC)
    conn = net.nodes[1].controller.connection_to(0)
    coc = conn._ipsp_coc
    assert coc.state == "open"
    assert IPSP_PSM in coc.accepted_psms


def test_credits_come_from_handshake():
    from repro.l2cap import CocConfig

    plane = BlePlane()
    conn = plane.connect(0, 1, anchor0=MSEC)
    coc = L2capCoc(conn, CocConfig(initial_credits=4), handshake=True)
    coc.accept_psm(IPSP_PSM)
    coc.open_channel(plane.nodes[0])
    plane.sim.run(until=1 * SEC)
    assert coc.end_of(plane.nodes[0]).credits == 4
    assert coc.end_of(plane.nodes[1]).credits == 4
