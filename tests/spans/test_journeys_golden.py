"""Golden journey tree and cross-configuration byte-identity.

The span payload of the pinned 3-hop line scenario is committed under
``tests/spans/golden/``; any byte of difference means either the
simulator's observable timing changed or the span instrumentation drifted
-- both must be deliberate (regenerate with ``REPRO_REGEN_GOLDEN=1
pytest tests/spans/test_journeys_golden.py``).

The same payload doubles as the determinism proof the issue demands:
byte-identical whether the run happened inline (``max_workers=1``) or in
spawned workers (``max_workers=4``), and -- on the spatial tier --
whether delivery was gated by the grid index or the all-pairs reference.
"""

import json
import os
from pathlib import Path

import pytest

from repro.exp.artifacts import dumps_journeys
from repro.exp.config import ExperimentConfig
from repro.exp.parallel import ParallelEngine
from repro.exp.runner import run_experiment
from repro.obs.export import build_metrics_document, dumps_metrics_document

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = "journeys_line3.json"

#: The golden scenario: the 3-hop line at the paper's 75 ms interval.
LINE3 = ExperimentConfig(
    name="journeys",
    topology="line",
    n_nodes=4,
    duration_s=10.0,
    warmup_s=2.0,
    drain_s=1.0,
    producer_interval_s=1.0,
    seed=3,
    spans=True,
)


def _payload_via_engine(workers: int) -> str:
    outcomes = ParallelEngine(max_workers=workers).run([LINE3])
    assert outcomes[0].ok, outcomes[0].error
    result = outcomes[0].result
    assert result.spans is not None
    return dumps_journeys(result.spans)


@pytest.fixture(scope="module")
def inline_payload() -> str:
    return _payload_via_engine(1)


class TestGoldenJourneyTree:
    def test_matches_golden(self, inline_payload):
        path = GOLDEN_DIR / GOLDEN_FILE
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(inline_payload)
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"golden journeys {path} missing; regenerate with "
            f"REPRO_REGEN_GOLDEN=1"
        )
        assert inline_payload == path.read_text(), (
            "journey tree of the 3-hop line diverged from the golden; "
            "if deliberate, regenerate with REPRO_REGEN_GOLDEN=1"
        )

    def test_worker_count_does_not_change_a_byte(self, inline_payload):
        assert _payload_via_engine(4) == inline_payload

    def test_payload_is_conformant(self, inline_payload):
        payload = json.loads(inline_payload)
        assert payload["violations"] == []
        assert payload["summary"]["journeys"] > 0
        # every journey closed with an outcome, every hop tiled by phases
        for journey in payload["journeys"]:
            assert journey["end_ns"] is not None
            assert journey["outcome"] is not None
            for attempt in journey["attempts"]:
                for hop in attempt["hops"]:
                    assert hop["phases"], "hop with no phase tiling"

    def test_multi_hop_phases_dominated_by_anchor_wait(self, inline_payload):
        # the paper's Fig. 8 narrative: on a multi-hop line at the default
        # interval, per-hop anchor wait is where the latency goes.
        payload = json.loads(inline_payload)
        totals = {}
        for journey in payload["journeys"]:
            for attempt in journey["attempts"]:
                for hop in attempt["hops"]:
                    for phase in hop["phases"]:
                        dur = phase["end_ns"] - phase["begin_ns"]
                        totals[phase["name"]] = totals.get(phase["name"], 0) + dur
        assert totals["anchor_wait"] == max(totals.values())


#: The spatial determinism cell: a small self-forming mesh on a seeded
#: random-geometric layout.  The differential suite proves grid and
#: all-pairs delivery decisions are byte-identical; spans ride on those
#: decisions, so the journey trees must match byte for byte too.
def _spatial_config(spatial_index: str) -> ExperimentConfig:
    return ExperimentConfig(
        name="journeys-spatial",
        topology="dynamic",
        geometry="rgg",
        spatial_index=spatial_index,
        n_nodes=12,
        duration_s=6.0,
        warmup_s=20.0,
        drain_s=2.0,
        seed=5,
        spans=True,
    )


class TestSpatialIndexByteIdentity:
    def test_grid_and_allpairs_produce_identical_journeys(self):
        grid = run_experiment(_spatial_config("grid"))
        allpairs = run_experiment(_spatial_config("allpairs"))
        assert grid.spans is not None and allpairs.spans is not None
        assert dumps_journeys(grid.spans) == dumps_journeys(allpairs.spans)


#: Attribution histograms (the ``spans.*`` instruments) must merge into
#: the same document whatever worker count produced the per-run payloads.
def _metrics_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="journeys-metrics",
        topology="line",
        n_nodes=4,
        duration_s=6.0,
        warmup_s=2.0,
        drain_s=1.0,
        producer_interval_s=1.0,
        seed=seed,
        metrics=True,
        spans=True,
    )


class TestAttributionMergeStability:
    def test_merged_document_identical_across_worker_counts(self):
        configs = [_metrics_config(seed) for seed in (3, 5, 7)]
        docs = {}
        for workers in (1, 4):
            outcomes = ParallelEngine(max_workers=workers).run(configs)
            payloads = []
            for outcome in outcomes:
                assert outcome.ok, outcome.error
                assert outcome.result.metrics is not None
                payloads.append(outcome.result.metrics)
            docs[workers] = dumps_metrics_document(
                build_metrics_document("journeys-metrics", payloads,
                                       seeds=(3, 5, 7))
            )
        assert docs[1] == docs[4]
        merged = json.loads(docs[1])
        phase_instruments = [
            name
            for scope in merged["scopes"].values()
            for name in scope["histograms"]
            if name.startswith("spans.phase_")
        ]
        assert phase_instruments, "no spans.* attribution histograms emitted"
