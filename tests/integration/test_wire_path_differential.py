"""Whole runs: the wire path changes nothing a run does or records.

A router relays a datagram whose compressed form does not depend on the
link as it came, rewriting only its hop limit, a UDP datagram for the node
itself reaches its port as it came, and a UDP datagram between routable
addresses leaves as the bytes ``compress`` would emit (the wire path,
DESIGN §12); the decode path decompresses every datagram first and builds
every origination as a packet.  Each run here goes twice: as is, and with
the wire predicate ``iphc.wire_fields`` and the builder
``iphc.compress_udp`` patched to decline every datagram, so every forward,
delivery and origination takes the decode path.  These patches are test
seams; the stack has no switch for them.  Both must give the same result,
the same counters at every node (IP stack, netif, packet buffer, UDP, CoAP
endpoints) and, with every channel on, the same trace records, span trees
and metrics.  The unpatched runs must have originated every UDP datagram
on the wire and, over either link, relayed every forwarded datagram and
delivered every local UDP datagram on the wire; the declined runs, none.
The one exception is a datagram 802.15.4 fragments: it is reassembled
uncompressed, so it is forwarded and delivered decoded, and the 500 B
line pins that split.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.coap.endpoint import CoapEndpoint
from repro.exp.config import ExperimentConfig
from repro.exp.runner import ExperimentRunner
from repro.net.ip import Ipv6Stack
from repro.net.udp import UdpStack
from repro.sixlowpan import iphc
from tests.integration.test_observation_neutral import WORKLOADS
from tests.support import LINE4
from tests.trace.test_golden import CHURN_25

RUNS = {
    f"{workload}-seed{seed}": ExperimentConfig(
        name=workload, seed=seed, **WORKLOADS[workload]
    )
    for workload in sorted(WORKLOADS)
    for seed in (1, 7)
}
RUNS["churn25"] = dataclasses.replace(CHURN_25, trace=False, trace_layers="")
LINE4_CONFIG = ExperimentConfig.from_yaml(Path(LINE4).read_text())
#: The 3-hop line with confirmable requests over a lossy channel: CoAP
#: retransmits (64 times at seed 3) and RTTs reach seconds, so the
#: consumer receives copies of one request and producers late ACKs.
RUNS["line4-con-lossy"] = dataclasses.replace(
    LINE4_CONFIG, confirmable=True, base_ber=1e-3, duration_s=30.0
)
#: The line over 802.15.4: originations leave on the wire, one frame each
#: at 39 B; at 500 B the requests are fragmented, and CON retransmits them.
RUNS["line4-154"] = dataclasses.replace(LINE4_CONFIG, link_layer="802154")
RUNS["line4-154-500-con"] = dataclasses.replace(
    LINE4_CONFIG, link_layer="802154", payload_len=500, confirmable=True, duration_s=30.0
)
#: Its census: the ACKs fit a frame and are relayed and delivered on the
#: wire; the fragmented requests are forwarded and delivered decoded.
SPLIT_154_500_CON = dict(forwarded=193, relayed=92, on_wire=91, decoded=94)

#: Every channel on; the layers whose records a forward makes.
OBSERVED = dict(trace=True, trace_layers="l2cap,sixlo,ip,coap", spans=True, metrics=True)


def counters(obj):
    return {
        name: value
        for name, value in vars(obj).items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def run(config, monkeypatch, decline):
    """The run's observable outputs, and its census: forwards and those
    relayed on the wire, local UDP datagrams delivered on the wire and
    decoded, and UDP datagrams sent and those originated on the wire."""
    census = dict(relayed=0, on_wire=0, decoded=0, originated_on_wire=0)
    endpoints = []
    with monkeypatch.context() as patch:
        if decline:
            patch.setattr(iphc, "wire_fields", lambda data: None)
            patch.setattr(iphc, "compress_udp", lambda *fields: None)
        relay = Ipv6Stack.relay

        def counted(self, *args):
            before = self.forwarded
            relay(self, *args)
            census["relayed"] += self.forwarded - before

        def tally(method, key):
            def tallied(self, *args):
                census[key] += 1
                return method(self, *args)

            return tallied

        init = CoapEndpoint.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            endpoints.append(self)

        patch.setattr(Ipv6Stack, "relay", counted)
        patch.setattr(
            Ipv6Stack, "send_wire", tally(Ipv6Stack.send_wire, "originated_on_wire")
        )
        patch.setattr(UdpStack, "_on_wire", tally(UdpStack._on_wire, "on_wire"))
        patch.setattr(UdpStack, "_on_packet", tally(UdpStack._on_packet, "decoded"))
        patch.setattr(CoapEndpoint, "__init__", recorded)
        runner = ExperimentRunner(config)
        result = runner.run()
    nodes = runner.network.nodes
    seen = {
        "result": result,
        "counters": [
            [
                counters(obj)
                for obj in (node.ip, node.netif, node.pktbuf, node.udp)
            ]
            for node in nodes
        ],
        "endpoints": [(ep.node.node_id, counters(ep)) for ep in endpoints],
    }
    census["forwarded"] = sum(node.ip.forwarded for node in nodes)
    census["udp_sent"] = sum(node.udp.tx_datagrams for node in nodes)
    census["retransmissions"] = sum(ep.retransmissions for ep in endpoints)
    return seen, census


@pytest.mark.parametrize("name", sorted(RUNS))
def test_wire_path_matches_the_decode_path(name, monkeypatch):
    for channels in ({}, OBSERVED):
        config = dataclasses.replace(RUNS[name], **channels)
        wire, census = run(config, monkeypatch, decline=False)
        decoded, declined = run(config, monkeypatch, decline=True)
        assert census["udp_sent"] > 0
        assert census["originated_on_wire"] == census["udp_sent"]
        assert declined["originated_on_wire"] == 0
        assert declined["udp_sent"] == census["udp_sent"]
        assert census["forwarded"] > 0 and declined["forwarded"] == census["forwarded"]
        if name == "line4-154-500-con":
            assert {key: census[key] for key in SPLIT_154_500_CON} == SPLIT_154_500_CON
        else:
            assert census["relayed"] == census["forwarded"]
            assert census["on_wire"] > 0 and census["decoded"] == 0
        assert declined["on_wire"] == 0
        assert declined["decoded"] == census["on_wire"] + census["decoded"]
        assert declined["relayed"] == 0
        assert (census["retransmissions"] > 0) == config.confirmable
        assert wire["counters"] == decoded["counters"]
        assert wire["endpoints"] == decoded["endpoints"]
        for field in dataclasses.fields(wire["result"]):
            assert getattr(wire["result"], field.name) == getattr(
                decoded["result"], field.name
            ), f"{field.name} differs with {channels or 'no channel'} on"
        if channels:
            assert wire["result"].trace_records
