"""Coarse 802.15.4 hops close when the MAC gives up on any fragment.

A confirmable request too large for one frame rides in RFC 4944
fragments.  When the MAC gives up on one of them, the datagram is lost on
that hop, and its hop must close then: a CoAP retransmission of the same
request may still deliver the journey, and the span checker judges the
journey as it closes.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment

from tests.support import LINE4

RUNS = {
    "500B": dict(payload_len=500),
    "120B-noisy": dict(payload_len=120, base_ber=1e-3),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_hop_closes_by_its_journey_end(run):
    config = dataclasses.replace(
        ExperimentConfig.from_yaml(Path(LINE4).read_text()),
        link_layer="802154", confirmable=True, duration_s=30.0, spans=True,
        **RUNS[run],
    )
    result = run_experiment(config)
    journeys = result.spans["journeys"]
    # the scenario: fragments given up, journeys delivered by a later attempt
    assert sum(node.mac_drops for node in result.nodes) > 0
    assert any(
        journey["outcome"] == "ok" and len(journey["attempts"]) > 1
        for journey in journeys
    )
    assert result.spans["violations"] == []
    for journey in journeys:
        for attempt in journey["attempts"]:
            for hop in attempt["hops"]:
                assert hop["end_ns"] is not None
                assert hop["end_ns"] <= journey["end_ns"]
