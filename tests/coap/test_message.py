"""Tests for the CoAP codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coap.message import (
    CoapCode,
    CoapDecodeError,
    CoapMessage,
    CoapOption,
    CoapType,
    empty_ack_bytes,
    request_bytes,
    uri_path_options,
)


def test_request_builder_and_roundtrip():
    msg = CoapMessage.request("sense", b"x" * 39, mid=0x1234, token=b"\xAA\xBB")
    assert msg.mtype is CoapType.NON
    assert msg.uri_path() == "sense"
    back = CoapMessage.decode(msg.encode())
    assert back == msg


def test_paper_framing_size():
    """§4.3 arithmetic: 4 header + 2 token + 6 Uri-Path("sense") + 1 marker
    = 13 bytes of CoAP framing around the 39-byte payload."""
    msg = CoapMessage.request("sense", bytes(39), mid=1, token=b"\x00\x01")
    assert len(msg.encode()) == 52
    assert len(msg.encode()) - len(msg.payload) == 13


def test_empty_ack_is_four_bytes():
    req = CoapMessage.request("sense", b"p", mid=77, token=b"\x01\x02")
    ack = req.make_ack()
    assert ack.mtype is CoapType.ACK
    assert ack.mid == 77
    assert len(ack.encode()) == 4


def test_piggybacked_ack_carries_token():
    req = CoapMessage.request("sense", b"p", mid=77, token=b"\x01\x02")
    ack = req.make_ack(CoapCode.CONTENT, b"reply")
    back = CoapMessage.decode(ack.encode())
    assert back.token == b"\x01\x02"
    assert back.payload == b"reply"
    assert back.code is CoapCode.CONTENT


def test_multi_segment_path():
    msg = CoapMessage.request("a/b/c", mid=1)
    assert CoapMessage.decode(msg.encode()).uri_path() == "a/b/c"


def test_options_sorted_on_encode():
    msg = CoapMessage(
        mtype=CoapType.NON,
        code=CoapCode.GET,
        mid=1,
        options=[(CoapOption.CONTENT_FORMAT, b"\x00"), (CoapOption.URI_PATH, b"x")],
    )
    back = CoapMessage.decode(msg.encode())
    assert [n for n, _ in back.options] == [11, 12]


def test_extended_option_encoding():
    # option number 300 needs the 14-nibble extended delta form
    msg = CoapMessage(
        mtype=CoapType.NON,
        code=CoapCode.GET,
        mid=5,
        options=[(300, b"v" * 20), (65000, b"w" * 300)],
    )
    back = CoapMessage.decode(msg.encode())
    assert back.options == msg.options


def test_code_dotted_form():
    assert CoapCode.CONTENT.dotted == "2.05"
    assert CoapCode.GET.dotted == "0.01"
    assert CoapCode.NOT_FOUND.dotted == "4.04"


class TestValidation:
    def test_mid_range(self):
        with pytest.raises(ValueError):
            CoapMessage(CoapType.NON, CoapCode.GET, mid=70000)

    def test_token_length(self):
        with pytest.raises(ValueError):
            CoapMessage(CoapType.NON, CoapCode.GET, mid=1, token=b"x" * 9)

    def test_decode_short(self):
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(b"\x40\x01")

    def test_decode_bad_version(self):
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(b"\x80\x01\x00\x01")

    def test_decode_bad_token_length(self):
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(b"\x4F\x01\x00\x01" + b"\x00" * 15)

    def test_decode_marker_without_payload(self):
        msg = CoapMessage.request("p", b"x", mid=1)
        wire = msg.encode()[:-1]  # chop the payload, keep the marker
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(wire)

    def test_decode_truncated_option(self):
        msg = CoapMessage.request("sensor", mid=1)
        with pytest.raises(CoapDecodeError):
            CoapMessage.decode(msg.encode()[:-3])


@given(
    mtype=st.sampled_from(list(CoapType)),
    code=st.sampled_from(list(CoapCode)),
    mid=st.integers(0, 0xFFFF),
    token=st.binary(max_size=8),
    payload=st.binary(min_size=1, max_size=100),
    options=st.lists(
        st.tuples(st.integers(1, 2000), st.binary(max_size=50)),
        max_size=5,
        unique_by=lambda kv: kv[0],
    ),
)
@settings(max_examples=200)
def test_roundtrip_property(mtype, code, mid, token, payload, options):
    msg = CoapMessage(
        mtype=mtype,
        code=code,
        mid=mid,
        token=token,
        options=sorted(options),
        payload=payload,
    )
    assert CoapMessage.decode(msg.encode()) == msg


# -- request and empty-ACK bytes against the message codec ----------------------

#: Uri-Path segments of 0-300 bytes, pinned on both sides of the extended
#: lengths 13 and 269, in ASCII and in multi-byte UTF-8 (an empty segment,
#: as from a doubled or trailing slash, is no option).
SEGMENTS = st.one_of(
    st.sampled_from([0, 1, 12, 13, 14, 268, 269, 270]).map(lambda n: "s" * n),
    st.integers(0, 300).map(lambda n: "\u00e9" * (n // 2) + "x" * (n % 2)),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/")),
)
PATHS = st.lists(SEGMENTS, max_size=4).map("/".join)


@given(
    path=PATHS,
    payload=st.binary(max_size=300),
    mid=st.integers(0, 0xFFFF),
    token=st.binary(max_size=8),
    confirmable=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_request_bytes_are_the_encoded_request(path, payload, mid, token, confirmable):
    expected = CoapMessage.request(path, payload, mid, token, confirmable).encode()
    assert request_bytes(uri_path_options(path), payload, mid, token, confirmable) == expected


def test_request_and_empty_ack_bytes_over_every_mid():
    options = uri_path_options("sense")
    for mid in range(0x10000):
        for confirmable in (False, True):
            request = CoapMessage.request("sense", b"x", mid, b"\x01\x02", confirmable)
            assert request_bytes(options, b"x", mid, b"\x01\x02", confirmable) == (
                request.encode()
            )
        assert empty_ack_bytes(mid) == request.make_ack().encode()
