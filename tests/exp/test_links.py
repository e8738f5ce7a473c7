"""The link sampler: one walk yields the link series, the connection losses
and the live shading gauges, all keyed by identity.

The gauges must be a pure function of the result's own ``link_series``:
each link's windows are the consecutive differences of its cumulative
series (the first taken from zero), a window without attempts is no
evidence, and a window below 0.9 PDR marks the link degraded.  That holds
under MAC-address rotation (the on-air address changes, the identity does
not) and across a reconnect (the new connection's first window counts
from zero).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.artifacts import write_artifacts
from repro.sim.units import SEC
from tests.support import LINE4

#: The 8-node self-forming network, rotating every node's address every 20 s.
ROTATION = ExperimentConfig(
    name="rotation", topology="dynamic", n_nodes=8, duration_s=120.0,
    metrics=True, seed=1, mac_rotation={"period_s": 20.0},
)
#: A drifting 3-hop line whose 3 -> 2 link is lost at 175.07 s and
#: reconnects.
RECONNECT = ExperimentConfig(
    name="reconnect", topology="line", n_nodes=4, conn_interval="75",
    duration_s=300.0, sample_period_s=1.0, drift_ppm_span=80.0,
    metrics=True, seed=4,
)

SCENARIOS = {
    "rotation": lambda: ROTATION,
    "reconnect": lambda: RECONNECT,
    "line4": lambda: dataclasses.replace(
        ExperimentConfig.from_yaml(Path(LINE4).read_text()), metrics=True
    ),
}


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_experiment(SCENARIOS[name]())
        return cache[name]

    return get


def gauges_from_link_series(link_series, times_s):
    """(links_degraded, onsets_total) at each of ``times_s``, recomputed
    from the cumulative series alone."""
    degraded = [0] * len(times_s)
    onsets = [0] * len(times_s)
    for series in link_series.values():
        below, runs = False, 0
        last_attempts = last_acked = 0
        i = 0
        for row, t_row in enumerate(times_s):
            while i < len(series.times_s) and series.times_s[i] <= t_row:
                attempts = series.tx_attempts[i] - last_attempts
                acked = series.tx_acked[i] - last_acked
                last_attempts, last_acked = series.tx_attempts[i], series.tx_acked[i]
                if attempts > 0:
                    now_below = acked / attempts < 0.9
                    runs += now_below and not below
                    below = now_below
                i += 1
            degraded[row] += below
            onsets[row] += runs
    return degraded, onsets


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shading_gauges_follow_the_link_series(results, name):
    result = results(name)
    series = result.metrics["series"]
    times_s = [t / SEC for t in series["times_ns"]]
    degraded, onsets = gauges_from_link_series(result.link_series, times_s)
    assert series["values"]["obs:shading.links_degraded"] == degraded
    assert series["values"]["obs:shading.onsets_total"] == onsets


def test_scenarios_exercise_rotation_and_reconnect(results):
    rotation = results("rotation")
    assert rotation.workload["rotations"] > 0
    assert rotation.metrics["series"]["values"]["obs:shading.onsets_total"][-1] > 0
    reconnect = results("reconnect")
    assert [(loss.node, loss.peer) for loss in reconnect.conn_losses] == [(3, 2), (2, 3)]
    # the link keeps one series through the reconnect
    assert len(reconnect.link_series) == 6


def test_rotation_changes_nothing_the_sampler_reports(results):
    rotated = results("rotation")
    plain = run_experiment(dataclasses.replace(ROTATION, mac_rotation={}))
    assert rotated.link_series == plain.link_series
    assert rotated.conn_losses == plain.conn_losses
    for key in ("obs:shading.links_degraded", "obs:shading.onsets_total"):
        assert (
            rotated.metrics["series"]["values"][key]
            == plain.metrics["series"]["values"][key]
        )


def test_per_channel_totals_add_up_to_the_link_totals(results):
    for series in results("reconnect").link_series.values():
        assert sum(row[0] for row in series.channels) == series.tx_attempts[-1]
        assert sum(row[1] for row in series.channels) == series.tx_acked[-1]


def test_loss_exports_list_both_ends_in_close_order(results, tmp_path):
    result = results("reconnect")
    out = write_artifacts(result, tmp_path)
    lines = (out / "events.jsonl").read_text().splitlines()
    assert lines == [
        json.dumps(
            {"t": loss.time_ns, "kind": "conn-loss", "node": loss.node,
             "peer": loss.peer, "role": loss.role},
            separators=(",", ":"),
        )
        for loss in result.conn_losses
    ]
    # each loss is seen from both ends at the same instant, coordinator first
    losses = result.conn_losses
    assert len(losses) % 2 == 0
    for coord, sub in zip(losses[::2], losses[1::2]):
        assert (coord.role, sub.role) == ("coordinator", "subordinate")
        assert coord.time_ns == sub.time_ns
        assert (coord.node, coord.peer) == (sub.peer, sub.node)
    # results.jsonl carries the coordinator halves
    records = [json.loads(line) for line in (out / "results.jsonl").open()]
    assert [
        (r["t_s"], r["node"], r["peer"]) for r in records if r["type"] == "conn-loss"
    ] == [(c.time_ns / SEC, c.node, c.peer) for c in losses[::2]]
    assert result.connection_losses() == [
        (c.time_ns / SEC, c.node, c.peer) for c in losses[::2]
    ]
