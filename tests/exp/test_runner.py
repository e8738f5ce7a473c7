"""Tests for the experiment runner (short runs)."""

import pytest

from repro.exp import ExperimentConfig, ExperimentRunner, run_experiment
from repro.exp.metrics import aggregate_binned_pdr


SHORT = dict(duration_s=30.0, warmup_s=4.0, drain_s=3.0, sample_period_s=5.0)


@pytest.fixture(scope="module")
def tree_result():
    return run_experiment(ExperimentConfig(name="t", seed=5, **SHORT))


def test_all_producers_report(tree_result):
    assert len(tree_result.producers) == 14
    for producer in tree_result.producers:
        assert producer.requests_sent > 0


def test_moderate_load_is_lossless_modulo_conn_losses(tree_result):
    """§5.1's regime: the only CoAP losses come from connection losses."""
    if tree_result.num_connection_losses() == 0:
        assert tree_result.coap_pdr() == 1.0
    else:
        assert tree_result.coap_pdr() > 0.99


def test_link_series_cover_all_links(tree_result):
    links = {key for key, _ in tree_result.link_series}
    assert len(links) == 14
    for series in tree_result.link_series.values():
        assert series.times_s == sorted(series.times_s)
        # cumulative counters never decrease
        assert series.tx_attempts == sorted(series.tx_attempts)


def test_link_pdr_in_plausible_band(tree_result):
    """BER 1e-5 on ~110-byte packets: LL PDR in the paper's 98-99+ band."""
    assert 0.97 < tree_result.link_pdr_overall() <= 1.0


def test_binned_aggregate_pdr(tree_result):
    times, pdrs = aggregate_binned_pdr(
        tree_result.producers, bin_s=10.0, t_end_s=37.0
    )
    assert times
    assert all(0 <= p <= 1 for p in pdrs)


def test_rtts_reflect_tree_depth(tree_result):
    rtts = tree_result.rtts_s()
    assert rtts
    # mean hop count 2.14 at 75 ms intervals: mean RTT in the 50-500 ms band
    assert 0.03 < sum(rtts) / len(rtts) < 0.5


def test_line_topology_runs():
    result = run_experiment(
        ExperimentConfig(name="l", topology="line", seed=6, **SHORT)
    )
    assert result.coap_pdr() > 0.9
    line_mean = sum(result.rtts_s()) / len(result.rtts_s())
    assert line_mean > 0.15  # 7.5 mean hops is slower than the tree


def test_802154_runs_same_workload():
    result = run_experiment(
        ExperimentConfig(name="w", link_layer="802154", seed=7, **SHORT)
    )
    assert result.coap_pdr() > 0.5
    assert result.link_series == {}  # no BLE links to sample
    rtts = result.rtts_s()
    assert sum(rtts) / len(rtts) < 0.075  # backoff-sized delays


def test_random_interval_config_applies_policy():
    runner = ExperimentRunner(
        ExperimentConfig(name="r", conn_interval="[65:85]", seed=8, **SHORT)
    )
    result = runner.run()
    net = runner.network
    for node in net.nodes:
        intervals = node.controller.used_intervals_ns()
        assert len(set(intervals)) == len(intervals), (
            f"node {node.node_id} has colliding intervals {intervals}"
        )
    assert result.coap_pdr() > 0.99


def test_reproducible_with_same_seed():
    a = run_experiment(ExperimentConfig(name="a", seed=11, **SHORT))
    b = run_experiment(ExperimentConfig(name="b", seed=11, **SHORT))
    assert a.coap_sent() == b.coap_sent()
    assert a.coap_acked() == b.coap_acked()
    assert a.rtts_s() == b.rtts_s()


def test_different_seeds_differ():
    a = run_experiment(ExperimentConfig(name="a", seed=1, **SHORT))
    b = run_experiment(ExperimentConfig(name="b", seed=2, **SHORT))
    assert a.rtts_s() != b.rtts_s()


def test_energy_helpers(tree_result):
    """§5.4 integration: per-node currents from the run's event counters."""
    currents = tree_result.fleet_current_ua()
    assert set(currents) == set(range(15))
    for node_id, current in currents.items():
        assert current > 0
    # the root serves three subordinate-role links: it must draw more than
    # a leaf producer
    assert currents[0] > currents[14]
    assert currents == {i: n.current_ua for i, n in enumerate(tree_result.nodes)}


def test_energy_helpers_none_for_802154():
    result = run_experiment(
        ExperimentConfig(name="e154", link_layer="802154", seed=2,
                         duration_s=10.0, warmup_s=2.0, drain_s=2.0)
    )
    assert result.nodes[0].current_ua is None
    assert result.fleet_current_ua() is None


def test_upstream_series_lookup(tree_result):
    series = tree_result.upstream_series(1)
    assert series is not None
    assert series.overall_pdr() > 0.9
    assert tree_result.upstream_series(99) is None


class TestDynamicTopology:
    """The §9 future-work mode wired through the experiment framework."""

    def test_dynamic_experiment_end_to_end(self):
        runner = ExperimentRunner(
            ExperimentConfig(
                name="dyn", topology="dynamic", seed=21,
                duration_s=60.0, warmup_s=40.0, drain_s=5.0,
            )
        )
        result = runner.run()
        net = runner.network
        assert net.fully_joined()
        assert result.coap_pdr() > 0.95
        assert len(result.link_series) > 0  # sampler works on dynamic nets

    def test_dynamic_with_static_interval_spec(self):
        runner = ExperimentRunner(
            ExperimentConfig(
                name="dyn75", topology="dynamic", conn_interval="75", seed=22,
                duration_s=30.0, warmup_s=40.0, drain_s=5.0, n_nodes=8,
            )
        )
        runner.run()
        net = runner.network
        assert net.fully_joined()
        for node in net.nodes:
            for interval in node.controller.used_intervals_ns():
                assert interval == 75_000_000

    def test_dynamic_requires_ble(self):
        with pytest.raises(ValueError):
            ExperimentConfig(topology="dynamic", link_layer="802154")


class TestSamplerCadence:
    """The link sampler fires every ``sample_period_s`` and the final
    partial window is flushed at the horizon instead of being dropped."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ExperimentConfig(
                name="cad", topology="line", n_nodes=2, seed=5,
                duration_s=20.0, warmup_s=3.0, drain_s=2.0,
                sample_period_s=10.0,
            )
        )

    def test_samples_at_period_multiples_plus_horizon(self, result):
        for series in result.link_series.values():
            # total runtime 25 s: periodic samples at 10 and 20, plus the
            # closing flush at 25 covering the final partial window
            assert series.times_s == [10.0, 20.0, 25.0]

    def test_final_window_carries_traffic(self, result):
        up = result.upstream_series(1)
        # producers run from t=3 to t=23: the 20..25 s window must have
        # seen attempts, which the pre-flush sampler used to drop
        assert up.tx_attempts[-1] > up.tx_attempts[-2]

    def test_no_flush_duplicate_when_horizon_is_a_multiple(self):
        result = run_experiment(
            ExperimentConfig(
                name="cad2", topology="line", n_nodes=2, seed=5,
                duration_s=16.0, warmup_s=3.0, drain_s=1.0,
                sample_period_s=10.0,
            )
        )
        for series in result.link_series.values():
            # runtime 20 s: the t=20 periodic tick never runs (the kernel
            # stops before the horizon), so the flush provides it -- once
            assert series.times_s == [10.0, 20.0]


class TestLinkSeries:
    def test_binned_pdr_deltas(self):
        from repro.exp.runner import LinkSeries

        series = LinkSeries(
            times_s=[10.0, 20.0, 30.0],
            tx_attempts=[100, 220, 300],
            tx_acked=[95, 200, 280],
        )
        times, pdrs = series.binned_pdr()
        assert times == [20.0, 30.0]
        assert pdrs[0] == pytest.approx(105 / 120)
        assert pdrs[1] == pytest.approx(80 / 80)
        assert series.overall_pdr() == pytest.approx(280 / 300)

    def test_empty_series(self):
        from repro.exp.runner import LinkSeries

        series = LinkSeries()
        assert series.binned_pdr() == ([], [])
        assert series.overall_pdr() == 1.0

    def test_idle_bins_skipped(self):
        from repro.exp.runner import LinkSeries

        series = LinkSeries(
            times_s=[10.0, 20.0], tx_attempts=[50, 50], tx_acked=[50, 50]
        )
        assert series.binned_pdr() == ([], [])
