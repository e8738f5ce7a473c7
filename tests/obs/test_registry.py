"""Tests for metric instruments, registries, and snapshot merging."""

import random

import pytest

from repro.exp.metrics import percentile as exact_percentile
from repro.obs.registry import (
    RTT_BUCKETS_S,
    Counter,
    CounterVec,
    Gauge,
    Histogram,
    MetricsHub,
    merge_scope_snapshots,
)


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestGauge:
    def test_envelope(self):
        g = Gauge()
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        assert g.to_dict() == {"last": 7.0, "min": 1.0, "max": 7.0}

    def test_unset_gauge_exports_none(self):
        assert Gauge().to_dict() == {"last": None, "min": None, "max": None}


class TestCounterVec:
    def test_labels_stringify_and_sort(self):
        v = CounterVec("channel")
        v.inc(10)
        v.inc(2)
        v.inc(10, 3)
        assert v.to_dict() == {
            "label": "channel",
            "values": {"10": 4, "2": 1},
        }


class TestHistogram:
    def test_upper_bound_is_inclusive(self):
        h = Histogram([1.0, 2.0])
        h.observe(1.0)  # lands in bucket 0: (-inf, 1.0]
        h.observe(1.5)  # bucket 1: (1.0, 2.0]
        h.observe(9.0)  # overflow
        assert h.counts == [1, 1, 1]

    def test_mean_and_stats(self):
        h = Histogram([10.0])
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.mean() == pytest.approx(2.0)
        assert h.vmin == 1.0 and h.vmax == 3.0

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram([1.0, 2.0, 3.0])
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(1.5)

    def test_percentile_clamps_to_observed_range(self):
        h = Histogram([10.0])
        h.observe(3.0)
        h.observe(4.0)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(1.0) == 4.0

    def test_percentile_empty_is_nan(self):
        import math

        assert math.isnan(Histogram([1.0]).percentile(0.5))

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).percentile(1.5)

    def test_percentile_within_one_bucket_width_of_exact(self):
        rng = random.Random(42)
        samples = [rng.expovariate(5.0) for _ in range(500)]
        h = Histogram(RTT_BUCKETS_S)
        for s in samples:
            h.observe(s)
        for q in (0.5, 0.9, 0.99):
            exact = exact_percentile(samples, q)
            approx = h.percentile(q)
            widths = [
                hi - lo
                for lo, hi in zip((0.0,) + RTT_BUCKETS_S, RTT_BUCKETS_S)
                if lo <= exact <= hi or lo <= approx <= hi
            ]
            assert abs(approx - exact) <= max(widths), (
                f"q={q}: {approx} vs exact {exact}"
            )

    def test_merge_adds_counts(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.vmin == 0.5 and a.vmax == 5.0

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).merge(Histogram([2.0]))

    def test_dict_round_trip_preserves_percentiles(self):
        h = Histogram([1.0, 2.0])
        for v in (0.2, 1.2, 1.8):
            h.observe(v)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.percentile(0.5) == h.percentile(0.5)
        assert clone.to_dict() == h.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])


class TestHub:
    def test_snapshot_sorts_scopes_and_names(self):
        hub = MetricsHub()
        hub.inc("zeta", "b")
        hub.inc("alpha", "a")
        hub.inc("zeta", "a")
        snap = hub.snapshot()
        assert list(snap) == ["alpha", "zeta"]
        assert list(snap["zeta"]["counters"]) == ["a", "b"]

    def test_all_instrument_kinds(self):
        hub = MetricsHub()
        hub.inc("n", "c", 2)
        hub.set_gauge("n", "g", 4.0)
        hub.observe("n", "h", 0.5, [1.0])
        hub.inc_vec("n", "v", 7, label_key="channel")
        snap = hub.snapshot()["n"]
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"]["last"] == 4.0
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["vectors"]["v"] == {"label": "channel", "values": {"7": 1}}


class TestMergeSnapshots:
    def _snap(self, count, gauge, hist_value):
        hub = MetricsHub()
        hub.inc("n", "c", count)
        hub.set_gauge("n", "g", gauge)
        hub.observe("n", "h", hist_value, [1.0, 2.0])
        hub.inc_vec("n", "v", "a", count)
        return hub.snapshot()

    def test_counters_and_vectors_add(self):
        merged = merge_scope_snapshots([self._snap(1, 0, 0.5), self._snap(2, 0, 0.5)])
        assert merged["n"]["counters"]["c"] == 3
        assert merged["n"]["vectors"]["v"]["values"]["a"] == 3

    def test_gauges_keep_envelope_and_drop_last(self):
        merged = merge_scope_snapshots([self._snap(1, 3.0, 0.5), self._snap(1, 9.0, 0.5)])
        assert merged["n"]["gauges"]["g"] == {"last": None, "min": 3.0, "max": 9.0}

    def test_histograms_fold_bucketwise(self):
        merged = merge_scope_snapshots([self._snap(1, 0, 0.5), self._snap(1, 0, 1.5)])
        h = merged["n"]["histograms"]["h"]
        assert h["counts"] == [1, 1, 0]
        assert h["count"] == 2
        assert h["min"] == 0.5 and h["max"] == 1.5

    def test_bounds_mismatch_raises(self):
        a = self._snap(1, 0, 0.5)
        b = self._snap(1, 0, 0.5)
        b["n"]["histograms"]["h"]["bounds"] = [9.9]
        with pytest.raises(ValueError):
            merge_scope_snapshots([a, b])

    def test_disjoint_scopes_union(self):
        hub = MetricsHub()
        hub.inc("other", "x")
        merged = merge_scope_snapshots([self._snap(1, 0, 0.5), hub.snapshot()])
        assert list(merged) == ["n", "other"]
