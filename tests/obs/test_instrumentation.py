"""End-to-end metrics collection: determinism, accuracy, disabled-path.

The acceptance bars of the observability issue:

* ``metrics.json`` for the golden 2-node and 3-hop scenarios is
  byte-identical whether the repetitions ran in-process or sharded across
  worker processes.
* The streaming CoAP RTT histogram's p50/p99 agree with an exact
  percentile over the raw RTT samples to within one bucket width.
* With metrics disabled (the default), runs carry no payload; a metered
  run writes into a hub of its own, so nothing it counted outlives it.
"""

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.metrics import percentile
from repro.exp.parallel import ParallelEngine
from repro.exp.repeat import repetition_configs
from repro.exp.runner import run_experiment
from repro.obs.export import build_metrics_document, dumps_metrics_document
from repro.obs.registry import RTT_BUCKETS_S, Histogram

TWO_NODE = dict(
    topology="line", n_nodes=2,
    duration_s=10.0, warmup_s=2.0, drain_s=1.0, sample_period_s=5.0,
)
THREE_HOP = dict(
    topology="line", n_nodes=4,
    duration_s=10.0, warmup_s=3.0, drain_s=2.0, sample_period_s=5.0,
)


def _document_bytes(scenario: dict, max_workers: int) -> str:
    cfg = ExperimentConfig(name="g", seed=5, metrics=True, **scenario)
    configs = repetition_configs(cfg, 2)
    engine = ParallelEngine(max_workers=max_workers)
    outcomes = engine.run(configs)
    assert all(o.ok for o in outcomes)
    doc = build_metrics_document(
        cfg.name,
        [o.result.metrics for o in outcomes],
        seeds=[c.seed for c in configs],
    )
    return dumps_metrics_document(doc)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", [TWO_NODE, THREE_HOP],
                             ids=["2-node", "3-hop"])
    def test_document_bytes_identical_across_worker_counts(self, scenario):
        assert _document_bytes(scenario, 1) == _document_bytes(scenario, 2)


class TestAccuracy:
    @pytest.fixture(scope="class")
    def metered(self):
        return run_experiment(
            ExperimentConfig(name="m", seed=9, metrics=True, **THREE_HOP)
        )

    def _rtt_histogram(self, result) -> Histogram:
        merged = None
        for registry in result.metrics["scopes"].values():
            snap = registry["histograms"].get("coap.rtt_seconds")
            if snap is None:
                continue
            hist = Histogram.from_dict(snap)
            if merged is None:
                merged = hist
            else:
                merged.merge(hist)
        assert merged is not None
        return merged

    def test_histogram_count_matches_raw_samples(self, metered):
        hist = self._rtt_histogram(metered)
        assert hist.count == len(metered.rtts_s())

    @pytest.mark.parametrize("q", [0.50, 0.99])
    def test_percentiles_within_one_bucket_width(self, metered, q):
        raw = metered.rtts_s()
        assert raw
        exact = percentile(raw, q)
        approx = self._rtt_histogram(metered).percentile(q)
        widths = [
            hi - lo
            for lo, hi in zip((0.0,) + RTT_BUCKETS_S, RTT_BUCKETS_S)
            if lo <= exact <= hi or lo <= approx <= hi
        ]
        assert abs(approx - exact) <= max(widths)

    def test_expected_instruments_present(self, metered):
        scopes = metered.metrics["scopes"]
        assert scopes["sim"]["counters"]["kernel.events_dispatched"] > 0
        # the last hop's producer originates packets; the sink delivers
        assert scopes["node3"]["counters"]["ip.originated"] > 0
        assert scopes["node0"]["counters"]["ip.delivered"] > 0
        assert scopes["node0"]["counters"]["ble.conn_events_served"] > 0
        assert scopes["node0"]["counters"]["radio.claims"] > 0
        assert scopes["phy"]["counters"]["phy.packets_sampled"] > 0
        assert "ble.pdus_by_channel" in scopes["node0"]["vectors"]
        # the shading gauges ride along even when nothing is degraded
        assert "shading.links_degraded" in scopes["obs"]["gauges"]

    def test_series_covers_the_run(self, metered):
        series = metered.metrics["series"]
        assert series["times_ns"] == sorted(series["times_ns"])
        # final partial window: the last sample sits at the horizon
        assert series["times_ns"][-1] == metered.metrics["sim_time_ns"]
        dispatched = series["values"]["sim:kernel.events_dispatched"]
        assert dispatched == sorted(dispatched)


class TestBleAirtime:
    def test_counts_eight_us_per_sampled_byte_of_full_size_pdus(self):
        # 200 B CoAP payloads fill 251 B link-layer PDUs: 261 B on air
        result = run_experiment(ExperimentConfig(
            name="air", seed=9, payload_len=200, trace=True, metrics=True,
            **THREE_HOP,
        ))
        sizes = [
            r.get("nbytes") for r in result.trace_records
            if r.layer == "phy" and r.kind == "packet"
        ]
        assert max(sizes) == 261
        airtime = result.metrics["scopes"]["phy"]["counters"]["phy.airtime_ns"]
        assert airtime == sum(n * 8_000 for n in sizes)


class TestDisabledPath:
    def test_default_run_has_no_payload_and_hub_stays_idle(self):
        result = run_experiment(
            ExperimentConfig(name="off", seed=5, **TWO_NODE)
        )
        assert result.metrics is None

    def test_metered_run_resets_the_hub_afterwards(self):
        """Each metered run counts from zero into its own hub."""
        config = ExperimentConfig(name="on", seed=5, metrics=True, **TWO_NODE)
        first = run_experiment(config)
        assert first.metrics is not None
        assert run_experiment(ExperimentConfig(name="off", seed=5, **TWO_NODE)).metrics is None
        assert run_experiment(config).metrics == first.metrics
