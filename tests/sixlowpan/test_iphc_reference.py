"""Differential suite: the IPHC codec and checksum against the reference.

``tests/support/iphc_reference.py`` keeps the cursor-based codec the
straight-line one replaced.  The two must agree byte for byte on every
packet the stack can emit, and on malformed input they must fail the same
way: the same exception type with the same message, which pins which
field's error comes first.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import PROTO_UDP, _checksum
from tests.sixlowpan.test_iphc import IID1, IID2, arbitrary_packets
from tests.sixlowpan.test_property_roundtrip import _packet
from tests.support import iphc_reference as reference

N_PACKETS = 200


def outcome(fn, *args):
    """What ``fn`` makes of ``args``: its value or its error."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the error itself is what gets compared
        return ("error", type(exc), str(exc))


def assert_decoders_agree(data, src_iid, dst_iid):
    want = outcome(reference.decompress, data, src_iid, dst_iid)
    assert outcome(iphc.decompress, data, src_iid, dst_iid) == want, data.hex()
    return want


def header_len(packet, wire):
    """Bytes of ``wire`` before the carried payload (UDP data after NHC)."""
    nhc = packet.next_header == PROTO_UDP and len(packet.payload) >= 8
    return len(wire) - (len(packet.payload) - 8 if nhc else len(packet.payload))


def valid_datagrams(seed, n=N_PACKETS):
    """Compressed packets over the round-trip suite's space, and the IIDs
    that decode them."""
    rng = random.Random(seed)
    for _ in range(n):
        packet, src_iid, dst_iid = _packet(rng)
        yield packet, reference.compress(packet, src_iid, dst_iid), src_iid, dst_iid


# -- compress -------------------------------------------------------------------


def test_compress_matches_reference_over_the_round_trip_space():
    rng = random.Random(0x1F4C)
    for i in range(N_PACKETS):
        packet, src_iid, dst_iid = _packet(rng)
        for iids in ((src_iid, dst_iid), (None, None)):
            assert iphc.compress(packet, *iids) == reference.compress(packet, *iids), i


@given(pkt=arbitrary_packets(), with_iids=st.booleans())
@settings(max_examples=300, deadline=None)
def test_compress_matches_reference_on_arbitrary_packets(pkt, with_iids):
    iids = (IID1, IID2) if with_iids else (None, None)
    assert iphc.compress(pkt, *iids) == reference.compress(pkt, *iids)


def test_compress_rejects_hop_limits_like_the_reference():
    packet, _, _ = _packet(random.Random(3))
    for hop_limit in (-1, 256):
        packet.hop_limit = hop_limit
        want = outcome(reference.compress, packet)
        assert want[0] == "error"
        assert outcome(iphc.compress, packet) == want


# -- decompress -----------------------------------------------------------------


def test_decompress_matches_reference_on_every_truncation():
    for packet, wire, src_iid, dst_iid in valid_datagrams(0x7A11):
        for cut in range(len(wire) + 1):
            assert_decoders_agree(wire[:cut], src_iid, dst_iid)


def test_decompress_matches_reference_on_header_bit_flips():
    """Every single-bit flip of the compressed header: the two base bytes,
    the inline fields and, on NHC-UDP packets, the NHC byte and ports."""
    for packet, wire, src_iid, dst_iid in valid_datagrams(0xB17F):
        for pos in range(header_len(packet, wire)):
            for bit in range(8):
                flipped = bytearray(wire)
                flipped[pos] ^= 1 << bit
                for iids in ((src_iid, dst_iid), (None, None)):
                    assert_decoders_agree(bytes(flipped), *iids)


def test_decompress_matches_reference_on_random_bytes():
    rng = random.Random(0x5EED)
    for _ in range(3000):
        data = bytearray(rng.randbytes(rng.randrange(0, 64)))
        if data and rng.random() < 0.9:
            data[0] = 0x60 | (data[0] & 0x1F)  # the IPHC dispatch range
        if len(data) > 1 and rng.random() < 0.7:
            data[1] &= 0b0011_1011  # no context bits
        iids = rng.choice([(IID1, IID2), (None, None), (IID1, None)])
        assert_decoders_agree(bytes(data), *iids)


def test_decompress_matches_reference_on_elided_udp_checksums():
    """C = 1 never comes out of ``compress``: set it by hand, so the
    checksum rebuilt over the pseudo header is compared too."""
    for packet, wire, src_iid, dst_iid in valid_datagrams(0xC5, n=100):
        if packet.next_header != PROTO_UDP or len(packet.payload) < 8:
            continue
        nhc_part = reference._compress_udp(packet.payload)
        nhc = len(wire) - len(nhc_part)
        ports = len(nhc_part) - 3 - (len(packet.payload) - 8)
        elided = (
            wire[:nhc] + bytes([nhc_part[0] | 0b100]) + nhc_part[1 : 1 + ports]
            + nhc_part[3 + ports :]
        )
        assert assert_decoders_agree(elided, src_iid, dst_iid)[0] == "value"


# -- checksum -------------------------------------------------------------------


def words_summing_to_zero(rng, odd):
    """Nonzero data whose 16-bit word sum is ≡ 0 (mod 0xFFFF)."""
    data = rng.randbytes(2 * rng.randrange(0, 30))
    tail = b"\xff" if odd else b""
    total = int.from_bytes(data + tail + (b"\x00" if odd else b""), "big") % 0xFFFF
    fix = (-total) % 0xFFFF or 0xFFFF
    return data + fix.to_bytes(2, "big") + tail


def test_checksum_matches_reference():
    rng = random.Random(0xC4EC)
    cases = [b"", b"\x00", b"\x01", b"\xff", b"\xff\xff", b"\x80\x00\x7f\xff"]
    cases += [bytes(n) for n in range(1, 70)]  # all zero, odd and even
    cases += [b"\xff\xff" * n for n in range(1, 20)]
    cases += [words_summing_to_zero(rng, odd=n % 2 == 1) for n in range(200)]
    cases += [rng.randbytes(rng.randrange(0, 300)) for _ in range(2000)]
    for data in cases:
        assert _checksum(data) == reference._checksum(data), data.hex()
    assert _checksum(bytes(7)) == 0xFFFF
    assert _checksum(b"\x80\x00\x7f\xff") == 0
