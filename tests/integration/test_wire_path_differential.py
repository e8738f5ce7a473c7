"""Whole runs: relaying on the wire changes nothing a run does or records.

A router relays a datagram whose compressed form does not depend on the
link as it came, rewriting only its hop limit (the wire path, DESIGN §12);
the decode path decompresses it, decrements the hop limit and compresses
it again.  Each run here goes twice: as is, and with the wire predicate
``iphc.wire_fields`` patched to decline every datagram, so every forward
takes the decode path.  This patch is a test seam; the stack has no switch
for it.  Both must give the same result, the same counters at every node
(IP stack, netif, adaptation, packet buffer) and, with every channel on,
the same trace records, span trees and metrics.  The unpatched runs must
have relayed every forwarded datagram on the wire.
"""

import dataclasses

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import ExperimentRunner
from repro.net.netif import BleNetif
from repro.sixlowpan import iphc
from tests.integration.test_observation_neutral import WORKLOADS
from tests.trace.test_golden import CHURN_25

RUNS = {
    f"{workload}-seed{seed}": ExperimentConfig(
        name=workload, seed=seed, **WORKLOADS[workload]
    )
    for workload in sorted(WORKLOADS)
    for seed in (1, 7)
}
RUNS["churn25"] = dataclasses.replace(CHURN_25, trace=False, trace_layers="")

#: Every channel on; the layers whose records a forward makes.
OBSERVED = dict(trace=True, trace_layers="l2cap,sixlo,ip,coap", spans=True, metrics=True)


def counters(obj):
    return {
        name: value
        for name, value in vars(obj).items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def run(config, monkeypatch, decline):
    """The run's observable outputs, and its wire relays and forwards."""
    relayed = 0
    with monkeypatch.context() as patch:
        if decline:
            patch.setattr(iphc, "wire_fields", lambda data: None)
        send_wire = BleNetif.send_wire

        def counted(self, *args):
            nonlocal relayed
            sent = send_wire(self, *args)
            relayed += sent
            return sent

        patch.setattr(BleNetif, "send_wire", counted)
        runner = ExperimentRunner(config)
        result = runner.run()
    nodes = runner.network.nodes
    seen = {
        "result": result,
        "counters": [
            [counters(obj) for obj in (node.ip, node.netif, node.netif.adaptation, node.pktbuf)]
            for node in nodes
        ],
    }
    return seen, relayed, sum(node.ip.forwarded for node in nodes)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_wire_path_matches_the_decode_path(name, monkeypatch):
    for channels in ({}, OBSERVED):
        config = dataclasses.replace(RUNS[name], **channels)
        wire, relayed, forwarded = run(config, monkeypatch, decline=False)
        decoded, relayed_declined, forwarded_declined = run(config, monkeypatch, decline=True)
        assert forwarded > 0 and relayed == forwarded
        assert relayed_declined == 0 and forwarded_declined == forwarded
        assert wire["counters"] == decoded["counters"]
        for field in dataclasses.fields(wire["result"]):
            assert getattr(wire["result"], field.name) == getattr(
                decoded["result"], field.name
            ), f"{field.name} differs with {channels or 'no channel'} on"
        if channels:
            assert wire["result"].trace_records
