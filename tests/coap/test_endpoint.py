"""Tests for the gcoap-equivalent endpoint (client + server)."""

from repro.sim.units import MSEC, SEC
from repro.testbed.topology import BleNetwork
from repro.coap import CoapEndpoint
from repro.coap.message import CoapCode, CoapMessage, CoapType


def linked_pair(seed=21, with_server=True):
    net = BleNetwork(2, seed=seed, ppms=[0.0, 0.0])
    net.apply_edges([(0, 1)])
    server = CoapEndpoint(net.nodes[0]) if with_server else None
    client = CoapEndpoint(net.nodes[1])
    # let statconn establish the link before anyone sends
    net.run(2 * SEC)
    assert net.all_links_up()
    return net, server, client


def test_request_response_roundtrip():
    net, server, client = linked_pair()
    server.add_resource("temp", lambda payload, src: b"23C")
    got = []
    client.request(
        net.nodes[0].mesh_local,
        "temp",
        b"?",
        on_response=lambda msg, rtt: got.append((msg.payload, rtt)),
    )
    net.run(5 * SEC)
    assert len(got) == 1
    payload, rtt = got[0]
    assert payload == b"23C"
    assert rtt > 0
    assert server.requests_served == 1
    assert client.responses_received == 1


def test_empty_ack_for_none_handler():
    """The paper's consumer replies with a plain (empty) CoAP ACK."""
    net, server, client = linked_pair()
    server.add_resource("sense", lambda payload, src: None)
    got = []
    client.request(
        net.nodes[0].mesh_local, "sense", b"x" * 39,
        on_response=lambda msg, rtt: got.append(msg),
    )
    net.run(5 * SEC)
    assert len(got) == 1
    assert got[0].code is CoapCode.EMPTY
    assert got[0].mtype is CoapType.ACK


def test_unknown_resource_gets_404():
    net, server, client = linked_pair()
    got = []
    client.request(
        net.nodes[0].mesh_local, "nope", b"",
        on_response=lambda msg, rtt: got.append(msg.code),
    )
    net.run(5 * SEC)
    assert got == [CoapCode.NOT_FOUND]


def test_con_retransmission_when_peer_is_deaf():
    """CON requests retransmit on the RFC 7252 timers, then give up."""
    # no server endpoint on the peer: datagrams arrive at an unbound port
    net, server, client = linked_pair(with_server=False)
    timeouts = []
    client.request(
        net.nodes[0].mesh_local,
        "sense",
        b"x",
        confirmable=True,
        on_timeout=lambda: timeouts.append(net.sim.now),
    )
    # MAX_RETRANSMIT=4, base timeout 2-3 s doubling: give it plenty
    net.run(130 * SEC)
    assert timeouts, "the CON request must eventually give up"
    assert client.timeouts == 1
    assert client.retransmissions == 4


def test_con_success_cancels_timers():
    net, server, client = linked_pair()
    server.add_resource("sense", lambda payload, src: None)
    got = []
    client.request(
        net.nodes[0].mesh_local, "sense", b"x",
        confirmable=True,
        on_response=lambda msg, rtt: got.append(msg),
    )
    net.run(30 * SEC)
    assert len(got) == 1
    assert client.retransmissions == 0
    assert client.timeouts == 0


def test_mid_and_token_advance_per_request():
    net, server, client = linked_pair()
    server.add_resource("sense", lambda payload, src: None)
    count = [0]
    for _ in range(5):
        client.request(
            net.nodes[0].mesh_local, "sense", b"x",
            on_response=lambda msg, rtt: count.__setitem__(0, count[0] + 1),
        )
    net.run(5 * SEC)
    assert count[0] == 5  # all five matched despite identical paths


def test_decode_error_counted():
    net, server, client = linked_pair()
    net.run(2 * SEC)
    # deliver garbage straight to the server's UDP port
    net.nodes[1].udp.sendto(b"\xff\xff", net.nodes[0].mesh_local, 5683, 5683)
    net.run(6 * SEC)
    assert server.decode_errors == 1


def test_stale_response_ignored():
    net, server, client = linked_pair()
    net.run(2 * SEC)
    # a response nobody asked for
    stray = CoapMessage(CoapType.ACK, CoapCode.EMPTY, mid=0x7777)
    net.nodes[0].udp.sendto(stray.encode(), net.nodes[1].mesh_local, 5683, 5683)
    net.run(6 * SEC)
    assert client.responses_received == 0


# -- matching among requests that were never answered ---------------------


def deaf_client(n_dead):
    """A client whose ``n_dead`` NON requests to a deaf peer stay pending
    for good (a lost NON request has no timeout), in sending order."""
    net, _, client = linked_pair(with_server=False)
    answered = []
    for i in range(n_dead):
        assert client.request(
            net.nodes[0].mesh_local, "sense", b"x",
            on_response=lambda msg, rtt, i=i: answered.append((i, msg.code)),
        )
        net.run(net.sim.now + 50 * MSEC)
    net.run(net.sim.now + 5 * SEC)
    assert len(client._pending) == n_dead
    return net, client, list(client._pending), answered


def answer(net, client, message):
    """Deliver ``message`` from the peer to the client, through the stack."""
    net.nodes[0].udp.sendto(message.encode(), net.nodes[1].mesh_local, 5683, 5683)
    net.run(net.sim.now + 2 * SEC)


def test_empty_ack_matches_by_mid_among_dead_requests():
    net, client, keys, answered = deaf_client(60)
    token, mid = keys[41]
    ack = CoapMessage(CoapType.ACK, CoapCode.EMPTY, mid=mid)
    answer(net, client, ack)
    assert answered == [(41, CoapCode.EMPTY)]
    assert (token, mid) not in client._pending
    assert mid not in client._key_by_mid and token not in client._key_by_token
    answer(net, client, ack)  # a duplicate finds nothing
    assert answered == [(41, CoapCode.EMPTY)]
    assert client.responses_received == 1 and len(client._pending) == 59


def test_response_matches_by_token_among_dead_requests():
    net, client, keys, answered = deaf_client(60)
    token, _ = keys[17]
    # the MID names another pending request: a non-empty ACK goes by token
    other_mid = keys[3][1]
    answer(net, client, CoapMessage(
        CoapType.ACK, CoapCode.CONTENT, mid=other_mid, token=token, payload=b"23C",
    ))
    assert answered == [(17, CoapCode.CONTENT)]
    assert keys[3] in client._pending and keys[17] not in client._pending
    assert len(client._pending) == len(client._key_by_mid) == 59


def test_con_give_up_leaves_the_indexes():
    net, client, keys, answered = deaf_client(20)
    timeouts = []
    assert client.request(
        net.nodes[0].mesh_local, "sense", b"x", confirmable=True,
        on_response=lambda msg, rtt: answered.append(("con", msg.code)),
        on_timeout=lambda: timeouts.append(net.sim.now),
    )
    token, mid = list(client._pending)[-1]
    net.run(net.sim.now + 130 * SEC)
    assert len(timeouts) == 1 and client.timeouts == 1
    assert (token, mid) not in client._pending
    assert mid not in client._key_by_mid and token not in client._key_by_token
    assert list(client._pending) == keys
    assert len(client._key_by_mid) == len(client._key_by_token) == 20
    answer(net, client, CoapMessage(CoapType.ACK, CoapCode.EMPTY, mid=mid))
    assert answered == []  # a late ACK matches nothing
