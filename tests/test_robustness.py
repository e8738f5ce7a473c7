"""Cross-cutting robustness properties: no codec crashes on garbage.

Every parser in the stack sits behind a radio; whatever bytes arrive, the
node must either decode them or reject them with the parser's documented
error -- never die with an unrelated exception.  These fuzz tests feed
arbitrary byte strings into every decoder.
"""

from hypothesis import given, settings, strategies as st

from repro.coap.message import CoapDecodeError, CoapMessage
from repro.gatt.att import parse_read_by_group_response
from repro.net.icmpv6 import Icmpv6Message
from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram

GARBAGE = st.binary(max_size=300)


@given(data=GARBAGE)
@settings(max_examples=300)
def test_iphc_decompress_never_crashes(data):
    try:
        packet = iphc.decompress(
            data,
            Ipv6Address.iid_from_node_id(1),
            Ipv6Address.iid_from_node_id(2),
        )
        assert isinstance(packet, Ipv6Packet)
    except ValueError:
        pass  # IphcError and address errors are the documented rejections


@given(data=GARBAGE)
@settings(max_examples=300)
def test_coap_decode_never_crashes(data):
    try:
        message = CoapMessage.decode(data)
        assert isinstance(message, CoapMessage)
    except CoapDecodeError:
        pass


@given(data=GARBAGE)
@settings(max_examples=200)
def test_ipv6_decode_never_crashes(data):
    try:
        Ipv6Packet.decode(data)
    except ValueError:
        pass


@given(data=GARBAGE)
@settings(max_examples=200)
def test_udp_decode_never_crashes(data):
    try:
        UdpDatagram.decode(data, verify=False)
    except ValueError:
        pass


@given(data=GARBAGE)
@settings(max_examples=200)
def test_icmpv6_decode_never_crashes(data):
    try:
        Icmpv6Message.decode(data, verify=False)
    except ValueError:
        pass


@given(data=GARBAGE)
@settings(max_examples=200)
def test_att_group_response_parse_never_crashes(data):
    result = parse_read_by_group_response(data)
    assert result is None or isinstance(result, list)


@given(data=GARBAGE)
@settings(max_examples=100, deadline=None)
def test_l2cap_rx_never_crashes(data):
    """Arbitrary LL payloads into a CoC end must be absorbed silently."""
    import sys, os

    sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
    from ble.conftest import BlePlane
    from repro.ble.pdu import DataPdu, Llid
    from repro.l2cap import L2capCoc

    plane = BlePlane()
    conn = plane.connect(0, 1, anchor0=1_000_000)
    coc = L2capCoc(conn)
    got = []
    coc.set_rx_handler(plane.nodes[1], got.append)
    end = coc.end_of(plane.nodes[1])
    end._on_ll_rx(DataPdu(payload=data, llid=Llid.DATA_START))
    # any delivered SDU must have come from a well-formed K-frame
    for sdu in got:
        assert isinstance(sdu, bytes)


@given(data=GARBAGE)
@settings(max_examples=100, deadline=None)
def test_rpl_control_never_crashes(data):
    """Arbitrary RPL control bodies (DIO/DAO/DIS) must be absorbed."""
    from repro.net.icmpv6 import RPL_CONTROL
    from repro.rpl import RplInstance
    from repro.testbed.topology import BleNetwork

    net = BleNetwork(2, seed=1, ppms=[0.0, 0.0])
    rpl = RplInstance(net.nodes[0], is_root=False)
    rpl.start()
    for code in (0x00, 0x01, 0x02):
        rpl._on_rpl(
            Icmpv6Message(RPL_CONTROL, code, data), Ipv6Address.mesh_local(1)
        )
