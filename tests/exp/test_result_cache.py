"""Tests for the content-addressed on-disk result cache."""

import dataclasses
import pickle

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.cache import RESULT_CACHE_VERSION, ResultCache

SHORT = dict(duration_s=10.0, warmup_s=4.0, drain_s=3.0)


@pytest.fixture(scope="module")
def result():
    """One short run (module-scoped: the run is the slow part)."""
    return run_experiment(ExperimentConfig(name="cache", seed=7, **SHORT))


class TestRoundTrip:
    def test_disk_round_trip_is_equal(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(result.config, result)
        loaded = cache.get(result.config)
        assert loaded == result  # dataclass equality, all fields deep

    def test_round_trip_preserves_metrics(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(result.config, result)
        loaded = cache.get(result.config)
        assert loaded.coap_pdr() == result.coap_pdr()
        assert loaded.rtts_s() == result.rtts_s()
        assert loaded.link_pdr_overall() == result.link_pdr_overall()
        assert loaded.num_connection_losses() == result.num_connection_losses()
        assert loaded.fleet_current_ua() == result.fleet_current_ua()

    def test_round_trip_preserves_connection_losses(self, tmp_path):
        # a drifting line whose 3 -> 2 link is lost at 175 s
        config = ExperimentConfig(
            name="losses", topology="line", n_nodes=4, conn_interval="75",
            duration_s=180.0, drift_ppm_span=80.0, seed=4,
        )
        lossy = run_experiment(config)
        assert lossy.num_connection_losses() == 1
        cache = ResultCache(tmp_path)
        cache.put(config, lossy)
        loaded = cache.get(config)
        assert loaded.conn_losses == lossy.conn_losses
        assert loaded.connection_losses() == lossy.connection_losses()

    def test_pickle_stability(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result


class TestAccounting:
    def test_hit_miss_counters(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        config = result.config
        assert cache.get(config) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.put(config, result)
        assert cache.stats.stores == 1
        assert cache.get(config) is not None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.hit_rate == 0.5
        assert "1 hits / 1 misses" in cache.stats.summary()

    def test_contains_and_entry_count(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert result.config not in cache
        assert cache.entry_count() == 0
        cache.put(result.config, result)
        assert result.config in cache
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result.config, result)
        path.write_bytes(b"not a pickle")
        assert cache.get(result.config) is None
        assert not path.exists()
        assert cache.stats.misses == 1


class TestKeyInvalidation:
    def test_every_config_field_changes_the_key(self, tmp_path):
        """Mutating *any* field must address a different cache entry."""
        base = ExperimentConfig()
        cache = ResultCache(tmp_path)
        base_key = cache.key_for(base)
        # a distinct, still-valid replacement value per field
        replacements = {
            "name": "other",
            "topology": "line",
            "n_nodes": 7,
            "link_layer": "802154",
            "conn_interval": "[65:85]",
            "producer_interval_s": 2.5,
            "producer_jitter_s": 0.25,
            "payload_len": 64,
            "confirmable": True,
            "duration_s": 123.0,
            "warmup_s": 6.0,
            "drain_s": 4.0,
            "seed": 999,
            "scheduler_policy": "alternate",
            "drift_ppm_span": 5.0,
            "pktbuf_bytes": 8192,
            "base_ber": 1e-6,
            "sample_period_s": 20.0,
            "subordinate_latency": 1,
            "max_event_len_ms": 4.0,
            "drift_ppms": tuple(float(i) for i in range(15)),
            "abort_event_on_crc_error": False,
            "trace": True,
            "trace_layers": "ble,ip",
            "metrics": True,
            "spans": True,
            "geometry": "rgg",
            "radio_range_m": 30.0,
            "node_spacing_m": 10.0,
            "spatial_index": "allpairs",
            "max_children": 5,
            "churn": {"mean_up_s": 20.0},
            "mobility": {"step_s": 2.0},
            "mac_rotation": {"period_s": 30.0},
        }
        # some replacements are only valid alongside another field change
        # (the default tree needs exactly 15 nodes; geometry gates on a
        # dynamic topology; workload blocks gate on dynamic, mobility
        # additionally on a geometry); compare against a base carrying the
        # same companions so the tested field stays isolated
        companions = {
            "n_nodes": {"topology": "line"},
            "geometry": {"topology": "dynamic"},
            "churn": {"topology": "dynamic"},
            "mobility": {"topology": "dynamic", "geometry": "rgg"},
            "mac_rotation": {"topology": "dynamic"},
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(replacements), (
            "new config fields must get a replacement value here so key "
            "coverage stays exhaustive"
        )
        for field_name, value in replacements.items():
            extra = companions.get(field_name, {})
            ref_key = (
                cache.key_for(dataclasses.replace(base, **extra))
                if extra
                else base_key
            )
            changed = dataclasses.replace(base, **{field_name: value}, **extra)
            assert cache.key_for(changed) != ref_key, (
                f"changing {field_name!r} must invalidate the cache key"
            )

    def test_version_tag_changes_the_key(self, tmp_path):
        config = ExperimentConfig()
        old = ResultCache(tmp_path, version=RESULT_CACHE_VERSION)
        new = ResultCache(tmp_path, version=RESULT_CACHE_VERSION + "-next")
        assert old.key_for(config) != new.key_for(config)

    def test_same_config_same_key_across_instances(self, tmp_path):
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        assert a.key_for(ExperimentConfig(seed=5)) == b.key_for(
            ExperimentConfig(seed=5)
        )

    def test_key_shards_into_subdirectories(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result.config, result)
        key = cache.key_for(result.config)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.pkl"
