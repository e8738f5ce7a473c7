"""Golden metrics documents.

The ``metrics.json`` of five short metered runs is committed under
``tests/obs/golden/``.  Together they produce every metric family the
stack exports except the two L2CAP stall counters, which no short run
reaches (``tests/l2cap/test_coc.py`` drives those counters directly):

* ``line4_drift80`` -- the 3-hop line with ±80 ppm clocks, sampled every
  second for 120 s: supervision losses, reconnects and shading gauges;
* ``tree_alternate`` -- the Fig. 9a tree (100 ms producers) under the
  ALTERNATE policy with spans on: policy skips, IP drops, ``spans.*``;
* ``line802154`` -- an 802.15.4 line with 500 B confirmable payloads on a
  noisy channel: fragmentation, reassembly timeouts, collisions, CoAP
  retransmissions and timeouts;
* ``line4_drift400`` -- ±400 ppm clocks: missed receive windows;
* ``churn`` -- the churn, mobility and MAC-rotation scenario of
  ``tests/workload/test_differential.py``: ``workload.*``.

Any byte of difference means a counter, its scope or the sampled series
changed; regenerate with ``REPRO_REGEN_GOLDEN=1 pytest
tests/obs/test_golden_metrics.py`` only for a deliberate change.
"""

import os
from pathlib import Path

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.obs.export import build_metrics_document, dumps_metrics_document

GOLDEN_DIR = Path(__file__).parent / "golden"

_LINE4 = dict(
    name="line4",
    topology="line",
    n_nodes=4,
    duration_s=10.0,
    warmup_s=2.0,
    drain_s=1.0,
    producer_interval_s=1.0,
    metrics=True,
)

SCENARIOS = {
    "metrics_line4_drift80.json": ExperimentConfig(
        **{**_LINE4, "duration_s": 120.0},
        seed=8,
        drift_ppm_span=80.0,
        sample_period_s=1.0,
    ),
    "metrics_tree_alternate.json": ExperimentConfig(
        name="fig9a-alternate",
        topology="tree",
        n_nodes=15,
        duration_s=10.0,
        warmup_s=2.0,
        drain_s=1.0,
        producer_interval_s=0.1,
        seed=10,
        scheduler_policy="alternate",
        spans=True,
        metrics=True,
    ),
    "metrics_line802154.json": ExperimentConfig(
        **{**_LINE4, "duration_s": 70.0},
        seed=3,
        link_layer="802154",
        payload_len=500,
        confirmable=True,
        base_ber=1e-3,
    ),
    "metrics_line4_drift400.json": ExperimentConfig(
        **_LINE4, seed=3, drift_ppm_span=400.0
    ),
    "metrics_churn.json": ExperimentConfig(
        name="workload-differential",
        topology="dynamic",
        n_nodes=10,
        conn_interval="[65:85]",
        warmup_s=20.0,
        duration_s=12.0,
        drain_s=8.0,
        seed=5,
        geometry="rgg",
        spatial_index="grid",
        churn={"mean_up_s": 14.0, "mean_down_s": 5.0},
        mobility={"step_s": 1.0},
        mac_rotation={"period_s": 12.0, "jitter_s": 3.0},
        metrics=True,
    ),
}


def _document(config: ExperimentConfig) -> str:
    result = run_experiment(config)
    doc = build_metrics_document(config.name, [result.metrics], seeds=[config.seed])
    return dumps_metrics_document(doc)


@pytest.mark.parametrize("filename", sorted(SCENARIOS))
def test_metrics_document_matches_golden(filename):
    document = _document(SCENARIOS[filename])
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(document)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden metrics {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert document == path.read_text(), (
        f"metrics of {filename} diverged from the golden; if the change is "
        f"intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )
