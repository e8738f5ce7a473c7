"""Differential suite: the UDP and CoAP codecs against the reference.

``tests/support/codec_reference.py`` keeps ``UdpDatagram.encode``/
``decode`` and ``CoapMessage.encode``/``decode`` as they were before UDP
summed its datagrams as carried and CoAP read its type and code from
tables.  Encoders must give the same bytes (or fail the same way), and
decoders the same result or the same exception type and message.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.coap.message import CoapCode, CoapMessage, CoapType
from repro.sixlowpan.ipv6 import Ipv6Address, UdpDatagram
from tests.support import codec_reference as reference

addresses = st.binary(min_size=16, max_size=16).map(Ipv6Address)
ports = st.integers(0, 0xFFFF)
#: 0-300 B, odd and even lengths alike.
payloads = st.binary(min_size=0, max_size=300)


def outcome(fn, *args):
    """What ``fn`` makes of ``args``: its value or its error."""
    try:
        value = fn(*args)
    except Exception as exc:  # the error itself is what gets compared
        return ("error", type(exc), str(exc))
    if isinstance(value, UdpDatagram):  # the checksum does not compare
        return ("value", value, value.checksum)
    if isinstance(value, CoapMessage):  # nor do enum members by type
        return ("value", value, type(value.mtype), type(value.code))
    return ("value", value)


# -- UDP ------------------------------------------------------------------------


def encode_both(src_port, dst_port, payload, src, dst):
    """Production and reference encodings, with the checksum each stored."""
    ours = UdpDatagram(src_port, dst_port, payload)
    theirs = UdpDatagram(src_port, dst_port, payload)
    got = outcome(ours.encode, src, dst)
    want = outcome(reference.udp_encode, theirs, src, dst)
    return got + (ours.checksum,), want + (theirs.checksum,)


def assert_udp_decoders_agree(data, src, dst, verify=True):
    want = outcome(reference.udp_decode, data, src, dst, verify)
    assert outcome(UdpDatagram.decode, data, src, dst, verify) == want, data.hex()
    return want


def with_checksum(data, checksum):
    return data[:6] + checksum.to_bytes(2, "big") + data[8:]


@given(src=addresses, dst=addresses, sport=ports, dport=ports, payload=payloads)
@settings(max_examples=500, deadline=None)
def test_udp_encode_matches_reference(src, dst, sport, dport, payload):
    got, want = encode_both(sport, dport, payload, src, dst)
    assert got == want
    assert got[0] == "value"


def test_udp_encode_rejects_ports_like_the_reference():
    src, dst = Ipv6Address.mesh_local(1), Ipv6Address.mesh_local(2)
    for sport in (-1, 0x10000, 0):
        for dport in (-1, 0x10000, 7):
            got, want = encode_both(sport, dport, b"x", src, dst)
            assert got == want


@given(
    src=addresses, dst=addresses, sport=ports, dport=ports, payload=payloads,
    edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), min_size=1, max_size=2),
)
@settings(max_examples=500, deadline=None)
def test_udp_decode_matches_reference_on_corruptions(src, dst, sport, dport, payload, edits):
    """One or two bytes anywhere, the header's included, set to any value."""
    wire = bytearray(UdpDatagram(sport, dport, payload).encode(src, dst))
    assert assert_udp_decoders_agree(bytes(wire), src, dst)[0] == "value"
    for pos, value in edits:
        wire[pos % len(wire)] = value
    assert_udp_decoders_agree(bytes(wire), src, dst)
    assert_udp_decoders_agree(bytes(wire), None, dst)
    assert_udp_decoders_agree(bytes(wire), src, dst, False)


@given(src=addresses, dst=addresses, sport=ports, dport=ports, payload=payloads)
@settings(max_examples=300, deadline=None)
def test_udp_decode_matches_reference_on_carried_checksums_0_and_ffff(
    src, dst, sport, dport, payload
):
    wire = UdpDatagram(sport, dport, payload).encode(src, dst)
    for checksum in (0, 0xFFFF):
        assert_udp_decoders_agree(with_checksum(wire, checksum), src, dst)


def datagram_with_checksum_ffff(rng, odd):
    """A datagram whose checksum is 0xFFFF: its sum is ≡ 0 (mod 0xFFFF)."""
    src, dst = Ipv6Address(rng.randbytes(16)), Ipv6Address(rng.randbytes(16))
    head = rng.randbytes(2 * rng.randrange(0, 100))
    tail = rng.randbytes(1) if odd else b""
    probe = UdpDatagram(rng.randrange(0x10000), rng.randrange(0x10000), head + b"\0\0" + tail)
    reference.udp_encode(probe, src, dst)
    # the checksum is 0xFFFF - residue, so a free word equal to it (mod
    # 0xFFFF) moves the residue to 0
    fix = probe.checksum % 0xFFFF
    probe.payload = head + fix.to_bytes(2, "big") + tail
    return probe, src, dst


def test_udp_checksum_ffff_matches_reference():
    rng = random.Random(0xFFFF)
    for n in range(400):
        dgram, src, dst = datagram_with_checksum_ffff(rng, odd=n % 2 == 1)
        got, want = encode_both(dgram.src_port, dgram.dst_port, dgram.payload, src, dst)
        assert got == want and got[-1] == 0xFFFF
        wire = got[1]
        assert assert_udp_decoders_agree(wire, src, dst)[0] == "value"
        for checksum in (0, 0xFFFE, 1):
            assert_udp_decoders_agree(with_checksum(wire, checksum), src, dst)


@given(data=st.binary(max_size=320), src=addresses, dst=addresses)
@settings(max_examples=500, deadline=None)
def test_udp_decode_matches_reference_on_random_bytes(data, src, dst):
    assert_udp_decoders_agree(data, src, dst)


# -- CoAP -----------------------------------------------------------------------

#: Option numbers whose deltas land on both sides of 13 and 269.
EDGE_DELTAS = (0, 1, 12, 13, 14, 268, 269, 270, 1000)
#: Option value lengths on both sides of 13 and 269.
EDGE_LENGTHS = (0, 1, 12, 13, 14, 268, 269, 270)

options = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 70000), st.sampled_from(EDGE_DELTAS)),
        st.one_of(st.binary(max_size=20), st.sampled_from(EDGE_LENGTHS).map(bytes)),
    ),
    max_size=5,
)
messages = st.builds(
    CoapMessage,
    mtype=st.sampled_from(list(CoapType)),
    code=st.sampled_from(list(CoapCode)),
    mid=st.integers(0, 0xFFFF),
    token=st.binary(max_size=8),
    options=options,
    payload=payloads,
)


def assert_coap_decoders_agree(data):
    want = outcome(reference.coap_decode, data)
    assert outcome(CoapMessage.decode, data) == want, data.hex()
    return want


@given(message=messages)
@settings(max_examples=500, deadline=None)
def test_coap_encode_matches_reference(message):
    assert outcome(message.encode) == outcome(reference.coap_encode, message)


def test_coap_encode_keeps_the_stable_sort_by_number():
    message = CoapMessage(
        CoapType.CON, CoapCode.GET, 1,
        options=[(11, b"b"), (3, b"x"), (11, b"a"), (3, b"w"), (300, b"")],
    )
    assert message.encode() == reference.coap_encode(message)
    assert CoapMessage.decode(message.encode()).options == [
        (3, b"x"), (3, b"w"), (11, b"b"), (11, b"a"), (300, b""),
    ]


def test_coap_decode_matches_reference_on_every_first_and_code_byte():
    rng = random.Random(0xC0A9)
    request = CoapMessage.request("a/bc", b"payload", mid=7, token=b"tk").encode()
    tails = [b"", b"\x12\x34", request[2:], rng.randbytes(30)]
    for first in range(256):
        for code in range(256):
            for tail in tails:
                assert_coap_decoders_agree(bytes((first, code)) + tail)


def test_coap_decode_matches_reference_on_edge_deltas_and_lengths():
    for delta in EDGE_DELTAS:
        for length in EDGE_LENGTHS:
            message = CoapMessage(
                CoapType.NON, CoapCode.POST, 9, token=b"\x01",
                options=[(delta, bytes(length)), (delta + 13, b"v")], payload=b"p",
            )
            wire = message.encode()
            assert assert_coap_decoders_agree(wire) == (
                "value", message, CoapType, CoapCode,
            )
            for cut in range(len(wire)):
                assert_coap_decoders_agree(wire[:cut])


@given(
    message=messages,
    edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), min_size=1, max_size=2),
)
@settings(max_examples=500, deadline=None)
def test_coap_decode_matches_reference_on_corruptions(message, edits):
    try:
        wire = bytearray(message.encode())
    except ValueError:  # a delta over 65804 has no encoding
        return
    assert assert_coap_decoders_agree(bytes(wire))[0] == "value"
    for pos, value in edits:
        wire[pos % len(wire)] = value
    assert_coap_decoders_agree(bytes(wire))


@given(data=st.binary(max_size=64))
@settings(max_examples=1000, deadline=None)
def test_coap_decode_matches_reference_on_random_bytes(data):
    assert_coap_decoders_agree(data)
