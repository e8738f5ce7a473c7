"""Tests for experiment descriptions."""

import json
import random
from pathlib import Path

import pytest

from repro.core.intervals import RandomWindowIntervalPolicy, StaticIntervalPolicy
from repro.exp.config import ExperimentConfig, canonical_value, parse_interval_spec
from repro.sim.units import MSEC

#: ``describe`` output from schema v7, which still had a ``kernel:`` block.
STALE_DESCRIPTION = Path(__file__).parent / "data" / "describe_schema7.yml"


class TestIntervalSpec:
    def test_static(self):
        policy = parse_interval_spec("75")
        assert isinstance(policy, StaticIntervalPolicy)
        assert policy.interval_ns == 75 * MSEC

    def test_window(self):
        policy = parse_interval_spec("[65:85]", random.Random(1))
        assert isinstance(policy, RandomWindowIntervalPolicy)
        assert policy.lo_ns == 65 * MSEC
        assert policy.hi_ns == 85 * MSEC

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_interval_spec("75ms")
        with pytest.raises(ValueError):
            parse_interval_spec("[65-85]")


class TestConfig:
    def test_defaults_are_paper_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.topology == "tree"
        assert cfg.conn_interval == "75"
        assert cfg.producer_interval_s == 1.0
        assert cfg.producer_jitter_s == 0.5
        assert cfg.payload_len == 39
        assert cfg.pktbuf_bytes == 6144

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(topology="ring")
        with pytest.raises(ValueError):
            ExperimentConfig(link_layer="lora")
        with pytest.raises(ValueError):
            ExperimentConfig(scheduler_policy="magic")
        with pytest.raises(ValueError):
            ExperimentConfig(conn_interval="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=0)
        # fleet sizes the topology builders are not defined for
        for topology, n_nodes in (
            ("tree", 4), ("line", 1), ("star", 1), ("line", -1),
            ("grid", 0), ("building", 0), ("dynamic", 0),
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(topology=topology, n_nodes=n_nodes)

    def test_drift_ppms_entries_must_be_numbers(self):
        # a string is split into characters: "012" is three non-numbers
        with pytest.raises(ValueError, match="drift_ppms entry '0' is not a number"):
            ExperimentConfig.from_yaml(
                "experiment:\n  topology: line\n  n_nodes: 3\n"
                "  drift_ppms: '012'\n"
            )
        with pytest.raises(ValueError, match="drift_ppms entry True is not a number"):
            ExperimentConfig(topology="line", n_nodes=2, drift_ppms=(True, 0.0))
        cfg = ExperimentConfig(topology="line", n_nodes=3, drift_ppms=[0, 1.5, -2])
        assert cfg.drift_ppms == (0, 1.5, -2)

    def test_trace_layers_must_be_known(self):
        for layers in ("ble,l2cp", "bel"):
            with pytest.raises(ValueError, match="unknown trace layer"):
                ExperimentConfig(trace=True, trace_layers=layers)
        every = "kernel,phy,ble,l2cap,sixlo,ip,coap,workload"
        assert ExperimentConfig(trace_layers=every).trace_layers == every
        assert ExperimentConfig(trace_layers=" sixlo , ip ").trace_layers

    def test_spatial_validation(self):
        # spatial topologies stand alone; geometry gates 'dynamic' only
        ExperimentConfig(topology="rgg")  # valid
        ExperimentConfig(topology="dynamic", geometry="rgg")  # valid
        with pytest.raises(ValueError):
            ExperimentConfig(topology="rgg", geometry="rgg")
        with pytest.raises(ValueError):
            ExperimentConfig(topology="tree", geometry="rgg")
        with pytest.raises(ValueError):
            ExperimentConfig(topology="grid", link_layer="802154")
        with pytest.raises(ValueError):
            ExperimentConfig(geometry="donut")
        with pytest.raises(ValueError):
            ExperimentConfig(spatial_index="quadtree")
        with pytest.raises(ValueError):
            ExperimentConfig(radio_range_m=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(topology="dynamic", max_children=0)

    def test_random_interval_detection(self):
        assert ExperimentConfig(conn_interval="[65:85]").uses_random_intervals
        assert not ExperimentConfig(conn_interval="75").uses_random_intervals

    def test_total_runtime(self):
        cfg = ExperimentConfig(duration_s=100, warmup_s=5, drain_s=3)
        assert cfg.total_runtime_s == 108

    def test_yaml_roundtrip(self):
        cfg = ExperimentConfig(
            name="fig7", topology="line", conn_interval="[65:85]", seed=42
        )
        text = cfg.to_yaml()
        assert "fig7" in text
        assert ExperimentConfig.from_yaml(text) == cfg

    def test_yaml_missing_key(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_yaml("foo: bar")

    def test_yaml_unknown_keys_are_named(self):
        with pytest.raises(ValueError, match=r"unknown experiment key\(s\): kernel$"):
            ExperimentConfig.from_yaml(STALE_DESCRIPTION.read_text())
        text = ExperimentConfig().to_yaml() + "  bogus: 1\n  kernel: {}\n"
        with pytest.raises(ValueError, match=r"key\(s\): bogus, kernel$"):
            ExperimentConfig.from_yaml(text)

    def test_yaml_experiment_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            ExperimentConfig.from_yaml("experiment: 5")


class TestCanonicalSerialization:
    """Cache keys must be bit-stable (see repro.exp.cache)."""

    #: The default config's hash, pinned.  If this changes, either a config
    #: field changed (bump CONFIG_SCHEMA_VERSION and re-pin) or canonical
    #: serialization regressed (fix it): every on-disk cache is invalidated
    #: either way, which must be a deliberate decision.
    GOLDEN_DEFAULT_HASH = (
        "482e6aaefe38e475f5b9bdef337f0f192c859f5996bc2c7bbb6e485bfe5255c0"
    )

    def test_default_config_hash_is_golden_constant(self):
        assert ExperimentConfig().stable_hash() == self.GOLDEN_DEFAULT_HASH

    def test_hash_is_stable_across_instances(self):
        a = ExperimentConfig(name="x", seed=3, duration_s=30.0)
        b = ExperimentConfig(name="x", seed=3, duration_s=30.0)
        assert a.stable_hash() == b.stable_hash()

    def test_canonical_json_sorts_keys(self):
        keys = list(json.loads(ExperimentConfig().canonical_json()))
        assert keys == sorted(keys)

    def test_floats_are_hex_encoded(self):
        # 0.1 has no short decimal form; hex encodes the exact bits
        data = json.loads(
            ExperimentConfig(producer_interval_s=0.1).canonical_json()
        )
        assert data["producer_interval_s"] == (0.1).hex()

    def test_canonical_value_handles_containers(self):
        assert canonical_value((1, 2.5)) == [1, (2.5).hex()]
        assert canonical_value({"b": 1, "a": None}) == {"a": None, "b": 1}
        assert canonical_value(True) is True

    def test_extra_tag_changes_hash(self):
        cfg = ExperimentConfig()
        assert cfg.stable_hash() != cfg.stable_hash(extra="v2")

    def test_seed_changes_hash(self):
        assert (
            ExperimentConfig(seed=1).stable_hash()
            != ExperimentConfig(seed=2).stable_hash()
        )

    def test_drift_ppms_covered(self):
        ppms = tuple(float(i) for i in range(15))
        assert (
            ExperimentConfig(drift_ppms=ppms).stable_hash()
            != ExperimentConfig().stable_hash()
        )
