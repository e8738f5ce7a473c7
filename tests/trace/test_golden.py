"""Golden cross-layer traces.

The serialized JSONL trace of two pinned scenarios is committed under
``tests/trace/golden/``; any byte of difference means the simulator's
observable behaviour changed -- timer order, channel hopping, ack timing,
forwarding -- and must be a deliberate decision (regenerate with
``REPRO_REGEN_GOLDEN=1 pytest tests/trace/test_golden.py``).

The same scenarios double as the worker-determinism proof: the trace a
config produces must be byte-identical whether the run happened inline
(``max_workers=1``), in forked workers (``max_workers=4``), or in this
warm test process after hundreds of other simulations (the tracer's
conn-id normalization is what makes that hold).
"""

import os
from pathlib import Path

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.parallel import ParallelEngine
from repro.exp.runner import run_experiment
from repro.trace.sinks import records_to_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Layers pinned in the goldens.  kernel/phy are deliberately excluded:
#: their records are an order of magnitude bulkier and every behavioural
#: change in them surfaces in the BLE/L2CAP records anyway.
TWO_NODE = ExperimentConfig(
    name="golden-2node",
    topology="line",
    n_nodes=2,
    duration_s=2.0,
    warmup_s=1.0,
    drain_s=0.5,
    producer_interval_s=0.5,
    seed=7,
    drift_ppms=(0.0, 0.5),
    trace=True,
    trace_layers="ble,l2cap,sixlo,ip,coap",
)

THREE_HOP = ExperimentConfig(
    name="golden-3hop",
    topology="line",
    n_nodes=4,
    duration_s=2.0,
    warmup_s=1.0,
    drain_s=0.5,
    producer_interval_s=0.5,
    seed=11,
    drift_ppms=(0.0, 1.5, -2.0, 0.5),
    trace=True,
    trace_layers="sixlo,ip,coap",
)

#: The scale tier's pinned fixture: 100 nodes on a seeded random-geometric
#: layout, statconn links along the BFS tree of the radio graph, delivery
#: gated by the spatial grid index.  Traced at ip/coap only -- the layer
#: pair that witnesses end-to-end multi-hop forwarding -- to keep the
#: fixture well under 500 KB.
SCALE_100 = ExperimentConfig(
    name="golden-scale100",
    topology="rgg",
    n_nodes=100,
    duration_s=2.0,
    warmup_s=5.0,
    drain_s=0.5,
    producer_interval_s=1.0,
    seed=13,
    trace=True,
    trace_layers="ip,coap",
)

#: The workload tier's pinned fixture: a 25-node dynamic mesh on a seeded
#: random-geometric layout under Poisson churn (graceful + fail-stop mix),
#: random-waypoint mobility, and compressed MAC rotation.  Traced at
#: ip/coap (end-to-end forwarding witness) plus the workload layer itself
#: (departures, arrivals, re-attaches, rotations, moves), so any drift in
#: scenario dynamics -- schedule draws, mobility steps, rotation timing --
#: is a byte-level diff here.
CHURN_25 = ExperimentConfig(
    name="golden-churn25",
    topology="dynamic",
    n_nodes=25,
    conn_interval="[65:85]",
    duration_s=10.0,
    warmup_s=30.0,
    drain_s=5.0,
    producer_interval_s=1.0,
    seed=17,
    geometry="rgg",
    trace=True,
    trace_layers="ip,coap,workload",
    churn={"mean_up_s": 20.0, "mean_down_s": 6.0},
    mobility={"step_s": 1.0},
    mac_rotation={"period_s": 15.0, "jitter_s": 3.0},
)

SCENARIOS = {
    "trace_2node.jsonl": TWO_NODE,
    "trace_3hop.jsonl": THREE_HOP,
    "trace_scale100.jsonl": SCALE_100,
    "trace_churn.jsonl": CHURN_25,
}


def _trace_jsonl(config: ExperimentConfig) -> str:
    result = run_experiment(config)
    assert result.trace_records, "trace-enabled run produced no records"
    return records_to_jsonl(result.trace_records)


@pytest.mark.parametrize("filename", sorted(SCENARIOS))
def test_trace_matches_golden(filename):
    config = SCENARIOS[filename]
    document = _trace_jsonl(config)
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(document)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden trace {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = path.read_text()
    assert document == golden, (
        f"trace of {config.name!r} diverged from {filename}; if the "
        f"behaviour change is intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_trace_is_stable_across_repeated_runs():
    """Same config, same process, twice: byte-identical traces."""
    assert _trace_jsonl(TWO_NODE) == _trace_jsonl(TWO_NODE)


@pytest.mark.parametrize("filename", sorted(SCENARIOS))
def test_trace_survives_worker_shipping_byte_identical(filename):
    """The result carries the trace through the worker pipe unchanged:
    max_workers=1 executes inline in this process, max_workers=4 forks --
    the serialized traces must match each other and the golden."""
    config = SCENARIOS[filename]
    inline = ParallelEngine(max_workers=1).run([config])
    forked = ParallelEngine(max_workers=4).run([config])
    assert inline[0].ok and forked[0].ok
    doc_inline = records_to_jsonl(inline[0].result.trace_records)
    doc_forked = records_to_jsonl(forked[0].result.trace_records)
    assert doc_inline == doc_forked
    path = GOLDEN_DIR / filename
    if path.exists() and not os.environ.get("REPRO_REGEN_GOLDEN"):
        assert doc_inline == path.read_text()


def test_golden_traces_have_layer_coverage():
    """The pinned 2-node scenario exercises every layer it claims to."""
    result = run_experiment(TWO_NODE)
    layers = {r.layer for r in result.trace_records}
    assert layers == {"ble", "l2cap", "sixlo", "ip", "coap"}


def test_trace_records_pickle_through_portable():
    import pickle

    result = run_experiment(TWO_NODE)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.trace_records == result.trace_records
    assert records_to_jsonl(clone.trace_records) == records_to_jsonl(
        result.trace_records
    )
