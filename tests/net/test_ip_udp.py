"""Tests for the IPv6 stack and UDP layer using a fake in-memory netif."""

import pytest

from repro.net.ip import Ipv6Stack
from repro.net.udp import UdpStack
from repro.sixlowpan.iphc import decompress
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, PROTO_UDP


class FakeNetif:
    """Loopback-ish interface recording whatever IP hands it."""

    def __init__(self, up=True):
        self.sent = []
        self.up = up
        self.ip = None
        self.iid = Ipv6Address.iid_from_node_id(1)

    def send(self, wire, ip_len, next_hop_ll):
        if not self.up:
            return False
        self.sent.append((decompress(wire, self.iid, Ipv6Address.iid_from_node_id(next_hop_ll)),
                          next_hop_ll))
        return True


def make_stack(node_id=1):
    ip = Ipv6Stack(node_id)
    netif = FakeNetif()
    ip.add_netif(netif)
    return ip, netif


class TestIpForwarding:
    def test_local_delivery(self):
        ip, _ = make_stack(1)
        got = []
        ip.register_protocol(PROTO_UDP, got.append)
        pkt = Ipv6Packet(src=Ipv6Address.mesh_local(2), dst=ip.mesh_local)
        ip.receive(pkt)
        assert got == [pkt]
        assert ip.delivered == 1

    def test_forwarding_decrements_hop_limit(self):
        ip, netif = make_stack(1)
        ip.neighbor_up(3, netif)
        ip.fib.set_default_route(Ipv6Address.mesh_local(3))
        pkt = Ipv6Packet(
            src=Ipv6Address.mesh_local(2),
            dst=Ipv6Address.mesh_local(9),
            hop_limit=10,
        )
        ip.receive(pkt)
        assert ip.forwarded == 1
        sent_pkt, ll = netif.sent[0]
        assert ll == 3
        assert sent_pkt.hop_limit == 9

    def test_hop_limit_exhaustion_drops(self):
        ip, netif = make_stack(1)
        ip.neighbor_up(3, netif)
        ip.fib.set_default_route(Ipv6Address.mesh_local(3))
        pkt = Ipv6Packet(
            src=Ipv6Address.mesh_local(2),
            dst=Ipv6Address.mesh_local(9),
            hop_limit=1,
        )
        ip.receive(pkt)
        assert ip.drops_hop_limit == 1
        assert netif.sent == []

    def test_direct_neighbor_beats_routes(self):
        ip, netif = make_stack(1)
        ip.neighbor_up(9, netif)
        ip.fib.set_default_route(Ipv6Address.mesh_local(3))
        pkt = Ipv6Packet(
            src=ip.mesh_local, dst=Ipv6Address.mesh_local(9), hop_limit=64
        )
        ip.send(pkt)
        assert netif.sent[0][1] == 9

    def test_no_route_drop(self):
        ip, _ = make_stack(1)
        pkt = Ipv6Packet(src=ip.mesh_local, dst=Ipv6Address.mesh_local(9))
        assert not ip.send(pkt)
        assert ip.drops_no_route == 1

    def test_route_without_neighbor_drop(self):
        ip, _ = make_stack(1)
        ip.fib.set_default_route(Ipv6Address.mesh_local(3))
        pkt = Ipv6Packet(src=ip.mesh_local, dst=Ipv6Address.mesh_local(9))
        assert not ip.send(pkt)
        assert ip.drops_no_neighbor == 1

    def test_link_send_failure_counted(self):
        ip, netif = make_stack(1)
        netif.up = False
        ip.neighbor_up(3, netif)
        pkt = Ipv6Packet(src=ip.mesh_local, dst=Ipv6Address.mesh_local(3))
        assert not ip.send(pkt)
        assert ip.drops_link == 1

    def test_send_to_self_delivers_locally(self):
        ip, _ = make_stack(1)
        got = []
        ip.register_protocol(PROTO_UDP, got.append)
        pkt = Ipv6Packet(src=ip.mesh_local, dst=ip.link_local)
        assert ip.send(pkt)
        assert len(got) == 1

    def test_neighbor_down_withdraws(self):
        ip, netif = make_stack(1)
        ip.neighbor_up(3, netif)
        ip.neighbor_down(3)
        assert ip.nib.resolve(Ipv6Address.mesh_local(3)) is None

    def test_unknown_protocol_dropped(self):
        ip, _ = make_stack(1)
        pkt = Ipv6Packet(
            src=Ipv6Address.mesh_local(2), dst=ip.mesh_local, next_header=58
        )
        ip.receive(pkt)
        assert ip.drops_no_handler == 1


class TestUdp:
    def make(self):
        ip, netif = make_stack(1)
        udp = UdpStack(ip)
        return ip, netif, udp

    def test_local_udp_roundtrip(self):
        ip, _, udp = self.make()
        got = []
        udp.bind(7777, lambda payload, src, sport: got.append((payload, sport)))
        udp.sendto(b"ping", ip.mesh_local, 7777, 1234)
        assert got == [(b"ping", 1234)]
        assert udp.rx_datagrams == 1

    def test_unbound_port_counted(self):
        ip, _, udp = self.make()
        udp.sendto(b"x", ip.mesh_local, 9999, 1)
        assert udp.rx_no_port == 1

    def test_double_bind_rejected(self):
        _, _, udp = self.make()
        udp.bind(5683, lambda *a: None)
        with pytest.raises(ValueError):
            udp.bind(5683, lambda *a: None)

    def test_unbind_idempotent(self):
        _, _, udp = self.make()
        udp.bind(5683, lambda *a: None)
        udp.unbind(5683)
        udp.unbind(5683)

    def test_checksum_error_counted(self):
        ip, _, udp = self.make()
        udp.bind(5, lambda *a: None)
        from repro.sixlowpan.ipv6 import UdpDatagram

        src = Ipv6Address.mesh_local(2)
        raw = bytearray(UdpDatagram(1, 5, b"data").encode(src, ip.mesh_local))
        raw[-1] ^= 0xFF
        pkt = Ipv6Packet(src=src, dst=ip.mesh_local, payload=bytes(raw))
        ip.receive(pkt)
        assert udp.rx_checksum_errors == 1
