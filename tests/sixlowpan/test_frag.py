"""Tests for RFC 4944 fragmentation and reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.sim.units import SEC
from repro.sixlowpan import frag
from tests.support import send_packet


class TestFragmenting:
    def test_headers_and_offsets(self):
        data = bytes(range(256)) * 2  # 512 bytes
        pieces = frag.fragment(data, tag=7, max_fragment_payload=116)
        assert len(pieces) > 1
        size, tag, offset, payload = frag.parse_fragment(pieces[0])
        assert (size, tag, offset) == (512, 7, 0)
        total = 0
        for piece in pieces:
            size, tag, offset, payload = frag.parse_fragment(piece)
            assert size == 512 and tag == 7
            assert offset == total
            assert offset % 8 == 0
            total += len(payload)
        assert total == 512

    def test_fragments_respect_budget(self):
        data = bytes(900)
        for piece in frag.fragment(data, tag=1, max_fragment_payload=116):
            assert len(piece) <= 116

    def test_oversize_rejected(self):
        with pytest.raises(frag.FragmentError):
            frag.fragment(bytes(2100), tag=1, max_fragment_payload=116)

    def test_tiny_budget_rejected(self):
        with pytest.raises(frag.FragmentError):
            frag.fragment(bytes(100), tag=1, max_fragment_payload=10)

    def test_is_fragment_detection(self):
        pieces = frag.fragment(bytes(300), tag=3, max_fragment_payload=116)
        for piece in pieces:
            assert frag.is_fragment(piece)
        assert not frag.is_fragment(b"\x41\x60\x00")  # uncompressed IPv6
        assert not frag.is_fragment(b"")

    def test_parse_errors(self):
        with pytest.raises(frag.FragmentError):
            frag.parse_fragment(b"\xc0")
        with pytest.raises(frag.FragmentError):
            frag.parse_fragment(b"\x41\x00\x00\x00")


def reassemble_pieces(pieces, sender=5, sim=None, reorder=False):
    sim = sim or Simulator()
    done = []
    reassembler = frag.Reassembler(sim, lambda d, s: done.append((d, s)))
    ordered = list(reversed(pieces)) if reorder else pieces
    for piece in ordered:
        reassembler.accept(piece, sender)
    return sim, reassembler, done


class TestReassembly:
    def test_roundtrip_in_order(self):
        data = bytes(range(250)) * 3
        pieces = frag.fragment(data, tag=9, max_fragment_payload=116)
        _, reassembler, done = reassemble_pieces(pieces)
        assert done == [(data, 5)]
        assert reassembler.pending() == 0

    def test_roundtrip_out_of_order(self):
        data = bytes(600)
        pieces = frag.fragment(data, tag=9, max_fragment_payload=116)
        _, _, done = reassemble_pieces(pieces, reorder=True)
        assert done and done[0][0] == data

    def test_interleaved_senders(self):
        sim = Simulator()
        done = []
        reassembler = frag.Reassembler(sim, lambda d, s: done.append((d, s)))
        a = frag.fragment(b"A" * 300, tag=1, max_fragment_payload=116)
        b = frag.fragment(b"B" * 300, tag=1, max_fragment_payload=116)
        for pa, pb in zip(a, b):
            reassembler.accept(pa, sender=10)
            reassembler.accept(pb, sender=11)
        assert sorted(done) == [(b"A" * 300, 10), (b"B" * 300, 11)]

    def test_missing_fragment_times_out(self):
        sim = Simulator()
        done = []
        reassembler = frag.Reassembler(sim, lambda d, s: done.append(d))
        pieces = frag.fragment(bytes(500), tag=2, max_fragment_payload=116)
        for piece in pieces[:-1]:  # drop the last fragment
            reassembler.accept(piece, sender=1)
        sim.run(until=10 * SEC)
        assert done == []
        assert reassembler.timeouts == 1
        assert reassembler.pending() == 0

    def test_garbage_counted(self):
        sim = Simulator()
        reassembler = frag.Reassembler(sim, lambda d, s: None)
        reassembler.accept(b"\xc0", sender=1)
        assert reassembler.parse_errors == 1

    @given(size=st.integers(min_value=120, max_value=1280),
           budget=st.integers(min_value=40, max_value=116))
    @settings(max_examples=100)
    def test_roundtrip_property(self, size, budget):
        data = bytes(i & 0xFF for i in range(size))
        pieces = frag.fragment(data, tag=size & 0xFFFF, max_fragment_payload=budget)
        _, _, done = reassemble_pieces(pieces)
        assert done and done[0][0] == data


class TestNetifIntegration:
    def make_net(self, **kwargs):
        from repro.ieee802154 import CsmaNetwork

        net = CsmaNetwork(2, seed=95, **kwargs)
        net.apply_edges([(0, 1)])
        return net

    def make_big_packet(self, payload_len=400):
        from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram

        src = Ipv6Address.mesh_local(1)
        dst = Ipv6Address.mesh_local(0)
        dgram = UdpDatagram(5683, 5683, bytes(payload_len))
        return Ipv6Packet(src=src, dst=dst, payload=dgram.encode(src, dst))

    def test_large_datagram_fragments_and_arrives(self):
        net = self.make_net()
        got = []
        net.nodes[0].udp.bind(5683, lambda p, src, sport: got.append(len(p)))
        assert send_packet(net.nodes[1].netif, self.make_big_packet(400), 0)
        net.run(5 * SEC)
        assert got == [400]
        assert net.nodes[1].netif.tx_fragmented_datagrams == 1
        assert net.nodes[0].netif.reassembler.datagrams_reassembled == 1

    def test_pktbuf_freed_after_fragmented_send(self):
        net = self.make_net()
        send_packet(net.nodes[1].netif, self.make_big_packet(400), 0)
        net.run(5 * SEC)
        assert net.nodes[1].pktbuf.used == 0

    def test_beyond_mtu_still_refused(self):
        net = self.make_net()
        huge = self.make_big_packet(1260)  # 1308-byte IPv6 datagram
        assert not send_packet(net.nodes[1].netif, huge, 0)
        assert net.nodes[1].netif.drops_too_big == 1
