"""``spans.*`` metrics equal a fold over the run's own journeys.

The snapshotter writes the ``spans.*`` families from the journeys the span
hub closed.  Recounting them per node from the exported journeys must give
the same numbers, on BLE (hops timed fragment by fragment) and on 802.15.4
(coarse hops, RFC 4944 fragments and confirmable retransmissions).
"""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment

from tests.support import LINE4

RUNS = {
    "ble-tree": lambda: ExperimentConfig(
        name="tree", topology="tree", n_nodes=15, duration_s=8.0,
        warmup_s=2.0, drain_s=1.0, seed=2, spans=True, metrics=True,
    ),
    "line802154": lambda: dataclasses.replace(
        ExperimentConfig.from_yaml(Path(LINE4).read_text()),
        link_layer="802154", payload_len=500, confirmable=True,
        duration_s=30.0, spans=True, metrics=True,
    ),
}


def _fold(journeys):
    """Per node: journey outcomes, ok journeys, hops, retransmissions and
    phases by name, recounted from the journey trees."""
    outcomes, ok, hops, retx, phases = Counter(), Counter(), Counter(), Counter(), Counter()
    for journey in journeys:
        outcomes[journey["src"], journey["outcome"]] += 1
        ok[journey["src"]] += journey["outcome"] == "ok"
        for attempt in journey["attempts"]:
            for hop in attempt["hops"]:
                hops[hop["src"]] += 1
                retx[hop["src"]] += hop["retx"]
                for phase in hop["phases"]:
                    phases[hop["src"], phase["name"]] += 1
    return outcomes, ok, hops, retx, phases


@pytest.mark.parametrize("run", sorted(RUNS))
def test_spans_metrics_fold_the_journeys(run):
    result = run_experiment(RUNS[run]())
    outcomes, ok, hops, retx, phases = _fold(result.spans["journeys"])
    assert sum(hops.values()) > 0
    scopes = result.metrics["scopes"]
    nodes = {src for src, _ in outcomes} | set(hops)
    assert nodes <= set(scopes)
    for scope in sorted(nodes):
        registry = scopes[scope]
        counters, histograms = registry["counters"], registry["histograms"]
        vector = registry["vectors"].get("spans.journey_outcomes", {"values": {}})
        assert vector["values"] == {
            outcome: n for (src, outcome), n in sorted(outcomes.items()) if src == scope
        }
        assert counters.get("spans.hops", 0) == hops[scope]
        assert counters.get("spans.hop_retx", 0) == retx[scope]
        seconds = histograms.get("spans.journey_seconds", {"count": 0})
        assert seconds["count"] == ok[scope]
        assert {
            name: hist["count"] for name, hist in histograms.items()
            if name.startswith("spans.phase_")
        } == {
            f"spans.phase_{name}_seconds": n
            for (src, name), n in phases.items() if src == scope
        }
