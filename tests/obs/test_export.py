"""Tests for metrics.json building/validation and Prometheus export."""

import json

import pytest

from repro.obs.export import (
    METRICS_SCHEMA,
    build_metrics_document,
    dumps_metrics_document,
    to_prometheus,
    validate_metrics_document,
)
from repro.obs.registry import MetricsHub


def _payload(requests=3, rtt=0.1, series=None):
    hub = MetricsHub()
    hub.inc("node1", "coap.requests", requests)
    hub.set_gauge("sim", "kernel.timer_queue_depth", 5)
    hub.observe("node1", "coap.rtt_seconds", rtt, [0.05, 0.2, 1.0])
    hub.inc_vec("node1", "ip.drops", "hop-limit", label_key="cause")
    return {"sim_time_ns": 1_000_000, "scopes": hub.snapshot(), "series": series}


class TestBuild:
    def test_single_run_keeps_series(self):
        series = {"times_ns": [10], "values": {"node1:coap.requests": [3]}}
        doc = build_metrics_document("e", [_payload(series=series)], seeds=[3])
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["runs"] == 1
        assert doc["seeds"] == [3]
        assert doc["series"] == series
        validate_metrics_document(doc)

    def test_multi_run_merges_and_drops_series(self):
        series = {"times_ns": [10], "values": {}}
        doc = build_metrics_document(
            "e", [_payload(1, series=series), _payload(2, series=series)]
        )
        assert doc["runs"] == 2
        assert doc["sim_time_ns"] == 2_000_000
        assert "series" not in doc
        assert doc["scopes"]["node1"]["counters"]["coap.requests"] == 3
        validate_metrics_document(doc)

    def test_no_payloads_rejected(self):
        with pytest.raises(ValueError):
            build_metrics_document("e", [])
        with pytest.raises(ValueError):
            build_metrics_document("e", [None])


class TestDumps:
    def test_canonical_bytes(self):
        a = dumps_metrics_document(build_metrics_document("e", [_payload()]))
        b = dumps_metrics_document(build_metrics_document("e", [_payload()]))
        assert a == b
        assert a.endswith("\n")
        # sorted keys at every level
        doc = json.loads(a)
        assert list(doc) == sorted(doc)


class TestValidate:
    def test_wrong_schema_rejected(self):
        doc = build_metrics_document("e", [_payload()])
        doc["schema"] = "repro.obs/99"
        with pytest.raises(ValueError):
            validate_metrics_document(doc)

    def test_histogram_count_mismatch_rejected(self):
        doc = build_metrics_document("e", [_payload()])
        doc["scopes"]["node1"]["histograms"]["coap.rtt_seconds"]["count"] += 1
        with pytest.raises(ValueError):
            validate_metrics_document(doc)

    def test_missing_table_rejected(self):
        doc = build_metrics_document("e", [_payload()])
        del doc["scopes"]["node1"]["vectors"]
        with pytest.raises(ValueError):
            validate_metrics_document(doc)

    def test_ragged_series_rejected(self):
        series = {"times_ns": [10, 20], "values": {"x": [1]}}
        doc = build_metrics_document("e", [_payload(series=series)])
        with pytest.raises(ValueError):
            validate_metrics_document(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_metrics_document([])


class TestPrometheus:
    def test_exposition_lines(self):
        doc = build_metrics_document("e", [_payload()])
        text = to_prometheus(doc["scopes"])
        assert '# TYPE repro_coap_requests_total counter' in text
        assert 'repro_coap_requests_total{scope="node1"} 3' in text
        # histogram: cumulative buckets, +Inf, sum/count
        assert 'repro_coap_rtt_seconds_bucket{scope="node1",le="0.2"} 1' in text
        assert 'repro_coap_rtt_seconds_bucket{scope="node1",le="+Inf"} 1' in text
        assert 'repro_coap_rtt_seconds_count{scope="node1"} 1' in text
        # merged gauges keep only the envelope ("last" means nothing
        # across runs, so the merge drops it)
        assert 'repro_kernel_timer_queue_depth_min{scope="sim"} 5' in text
        assert 'repro_kernel_timer_queue_depth_max{scope="sim"} 5' in text
        # vector member with its label key
        assert (
            'repro_ip_drops_total{scope="node1",cause="hop-limit"} 1' in text
        )

    def test_type_lines_not_repeated_across_scopes(self):
        a, b = _payload(), _payload()
        b["scopes"]["node2"] = b["scopes"].pop("node1")
        doc = build_metrics_document("e", [a, b])
        text = to_prometheus(doc["scopes"])
        assert text.count("# TYPE repro_coap_requests_total counter") == 1
        assert 'repro_coap_requests_total{scope="node2"}' in text

    def test_each_family_is_one_contiguous_group(self):
        hub = MetricsHub()
        for scope in ("node2", "node1"):
            hub.inc(scope, "ble.conn_events_served")
            hub.inc(scope, "coap.requests", 2)
            hub.observe(scope, "coap.rtt_seconds", 0.1, [0.05, 0.2])
        text = to_prometheus(hub.snapshot())
        families, family = [], None
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                family = line.split()[2]
                families.append(family)
                continue
            name = line.split("{", 1)[0]
            assert name in (family, f"{family}_bucket", f"{family}_sum",
                            f"{family}_count"), line
        assert families == sorted(set(families))
        assert text.index('_total{scope="node1"} 2') < text.index(
            '_total{scope="node2"} 2'
        )

    def test_unmerged_gauge_keeps_last_value(self):
        text = to_prometheus(_payload()["scopes"])
        assert 'repro_kernel_timer_queue_depth{scope="sim"} 5' in text

    def test_empty_scopes(self):
        assert to_prometheus({}) == ""
