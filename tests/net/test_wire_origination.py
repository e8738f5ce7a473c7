"""Origination on the wire: ``UdpStack.sendto`` against the object path.

A UDP datagram between two routable addresses leaves as the bytes
``iphc.compress_udp`` builds, through ``Ipv6Stack.send_wire`` (DESIGN §12);
with the builder declined it is built as a packet and goes through
``Ipv6Stack.send``.  For each way a send can end -- delivered to the node
itself, dropped for no route, no neighbour, a link that is down or a full
packet buffer, and over 802.15.4 in one frame or in fragments -- both must
give the same return value, counters, trace records and bytes handed to
the link.  A port, hop limit or length out of range is
refused before anything is counted, on either path.
"""

import pytest

from repro.ieee802154.mac import Mac154
from repro.ieee802154.network154 import CsmaNetwork
from repro.l2cap.coc import _CocEnd
from repro.net.ip import Ipv6Stack
from repro.sim.units import SEC
from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import Ipv6Address
from repro.testbed.topology import BleNetwork
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE
from tests.integration.test_wire_path_differential import counters
from tests.sixlowpan.test_wire_path import spy

#: The paper's request data (§4.3), and one that 802.15.4 fragments.
PAPER = bytes(range(39))
LARGE = bytes(500)


def ble_pair():
    """Nodes 0 - 1 over BLE with the link up; 0 is the root."""
    net = BleNetwork(2, seed=21, ppms=[0.0, 0.0])
    net.apply_edges([(0, 1)])
    net.run(2 * SEC)
    assert net.all_links_up()
    return net


def csma_pair():
    """Nodes 0 - 1 over 802.15.4; 0 is the root."""
    net = CsmaNetwork(2, seed=21)
    net.apply_edges([(0, 1)])
    return net


def to_root(net):
    return net.nodes[1], net.nodes[0].mesh_local


def loopback(net):
    node = net.nodes[1]
    return node, node.mesh_local


def no_route(net):
    """The root routes its subtree only."""
    return net.nodes[0], Ipv6Address.mesh_local(9)


def no_neighbor(net):
    root = net.nodes[0]
    root.ip.fib.set_default_route(Ipv6Address.mesh_local(7))
    return root, Ipv6Address.mesh_local(9)


def link_down(net):
    """A neighbour entry with no connection behind it."""
    node = net.nodes[1]
    node.ip.neighbor_up(5, node.netif)
    return node, Ipv6Address.mesh_local(5)


def pktbuf_full(net):
    node, dst = to_root(net)
    assert node.pktbuf.try_alloc(node.pktbuf.capacity - node.pktbuf.used)
    return node, dst


CASES = {
    "ble-sent": (ble_pair, to_root, PAPER),
    "ble-loopback": (ble_pair, loopback, PAPER),
    "ble-no-route": (ble_pair, no_route, PAPER),
    "ble-no-neighbor": (ble_pair, no_neighbor, PAPER),
    "ble-link-down": (ble_pair, link_down, PAPER),
    "ble-pktbuf-full": (ble_pair, pktbuf_full, PAPER),
    "154-one-frame": (csma_pair, to_root, PAPER),
    "154-fragmented": (csma_pair, to_root, LARGE),
    "154-pktbuf-full": (csma_pair, pktbuf_full, PAPER),
}


def send_once(monkeypatch, case, decline):
    """Build the case's network, send one datagram, and return what the
    send did and how many datagrams went through ``send_wire``."""
    make, setup, payload = CASES[case]
    with monkeypatch.context() as patch:
        if decline:
            patch.setattr(iphc, "compress_udp", lambda *fields: None)
        net = make()
        node, dst = setup(net)
        received = []
        node.udp.bind(5683, lambda *call: received.append(call))
        on_wire = spy(patch, Ipv6Stack, "send_wire")
        sdus, frames = spy(patch, _CocEnd, "send_sdu"), spy(patch, Mac154, "send")
        ring = RingBufferSink()
        TRACE.configure(sinks=[ring])
        try:
            sent = node.udp.sendto(payload, dst, 5683, 5683)
        finally:
            TRACE.reset()
        seen = {
            "sent": sent,
            "counters": [
                counters(obj)
                for obj in (node.ip, node.netif, node.pktbuf, node.udp)
            ],
            "records": [(r.layer, r.kind, r.fields) for r in ring.records()],
            "link": [args for _, args in sdus + frames],
            "received": received,
        }
    return seen, len(on_wire)


@pytest.mark.parametrize("case", sorted(CASES))
def test_wire_origination_matches_the_object_path(case, monkeypatch):
    wire, on_wire = send_once(monkeypatch, case, decline=False)
    objects, declined = send_once(monkeypatch, case, decline=True)
    assert (on_wire, declined) == (1, 0)
    assert wire == objects
    assert wire["records"][0][:2] == ("ip", "originate")


def test_the_cases_end_as_named(monkeypatch):
    """Each case reaches the outcome it is named for."""
    ends = {}
    for case in CASES:
        seen, _ = send_once(monkeypatch, case, decline=False)
        ip, netif, _, udp = seen["counters"]
        ends[case] = (
            seen["sent"], len(seen["received"]),
            ip["drops_no_route"], ip["drops_no_neighbor"], ip["drops_link"],
            netif.get("drops_no_link"), netif["drops_pktbuf"],
            len(seen["link"]), udp["tx_datagrams"],
        )
    assert ends == {
        "ble-sent": (True, 0, 0, 0, 0, 0, 0, 1, 1),
        "ble-loopback": (True, 1, 0, 0, 0, 0, 0, 0, 1),
        "ble-no-route": (False, 0, 1, 0, 0, 0, 0, 0, 1),
        "ble-no-neighbor": (False, 0, 0, 1, 0, 0, 0, 0, 1),
        "ble-link-down": (False, 0, 0, 0, 1, 1, 0, 0, 1),
        "ble-pktbuf-full": (False, 0, 0, 0, 1, 0, 1, 0, 1),
        "154-one-frame": (True, 0, 0, 0, 0, None, 0, 1, 1),
        "154-fragmented": (True, 0, 0, 0, 0, None, 0, 6, 1),
        "154-pktbuf-full": (False, 0, 0, 0, 1, None, 1, 0, 1),
    }


@pytest.mark.parametrize("to_self", [True, False], ids=["to-self", "to-root"])
@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param(dict(hop_limit=300), "hop limit out of range: 300", id="hop-limit-300"),
        pytest.param(dict(hop_limit=256), "hop limit out of range: 256", id="hop-limit-256"),
        pytest.param(dict(hop_limit=-1), "hop limit out of range: -1", id="hop-limit--1"),
        pytest.param(dict(src_port=0x10000), "port out of range: 65536", id="src-port"),
        pytest.param(dict(dst_port=-1), "port out of range: -1", id="dst-port"),
        pytest.param(
            dict(payload=bytes(0xFFFF - 7)), "UDP data too long: 65528 bytes", id="length"
        ),
    ],
)
@pytest.mark.parametrize("decline", [False, True], ids=["wire", "objects"])
def test_out_of_range_fields_are_refused_before_counting(
    to_self, fields, message, decline, monkeypatch
):
    if decline:
        monkeypatch.setattr(iphc, "compress_udp", lambda *fields: None)
    net = ble_pair()
    node = net.nodes[1]
    received = []
    node.udp.bind(5683, lambda *call: received.append(call))
    dst = node.mesh_local if to_self else net.nodes[0].mesh_local
    stack = (node.ip, node.netif, node.udp)
    before = [counters(obj) for obj in stack]
    args = dict(payload=PAPER, dst=dst, dst_port=5683, src_port=5683, hop_limit=64)
    with pytest.raises(ValueError, match=message):
        node.udp.sendto(**{**args, **fields})
    assert [counters(obj) for obj in stack] == before
    assert received == []
