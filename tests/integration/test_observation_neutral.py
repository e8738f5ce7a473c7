"""Turning an instrumentation channel on must not change what a run does.

The trace goldens pin the *traced* run only.  Uninstrumented runs take
shortcuts the instrumented ones cannot: ``Connection._run_event`` plays an
idle connection event's empty <-> empty exchange inline instead of running
the exchange loop.  So each workload here runs with trace, metrics and
spans off, then with each one on in turn, and every observable output must
be the same: the CoAP counts, every round-trip time, the link sampler's
series (per-channel counts included), the connection losses, the medium's
loss draws and the per-node counter table (the current draw, which the
inline exchange's connection-event counts and durations feed, CRC aborts
and packet-buffer drops).
"""

import dataclasses

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import ExperimentRunner

#: Short versions of the perfbench workloads: the static-interval line,
#: the paper's tree with its fan-in, a self-forming mesh (advertising,
#: scanning and RPL next to the data) and the 7x7 grid (range-gated
#: medium, up to 6 hops).
WORKLOADS = {
    "line": dict(topology="line", n_nodes=4, duration_s=20.0, warmup_s=3.0,
                 drain_s=2.0),
    "tree": dict(topology="tree", n_nodes=15, conn_interval="[65:85]",
                 duration_s=10.0, warmup_s=5.0, drain_s=2.0),
    "mesh": dict(topology="dynamic", n_nodes=8, conn_interval="[65:85]",
                 duration_s=10.0, warmup_s=30.0, drain_s=2.0),
    "grid": dict(topology="grid", n_nodes=49, conn_interval="[65:85]",
                 duration_s=3.0, warmup_s=5.0, drain_s=2.0),
}


def observed(config: ExperimentConfig) -> dict:
    runner = ExperimentRunner(config)
    result = runner.run()
    medium = runner.network.medium
    return {
        "coap_sent": result.coap_sent(),
        "coap_served": result.consumer.total_requests,
        "coap_acked": result.coap_acked(),
        "rtts": result.rtts_s(),
        "link_series": result.link_series,
        "conn_losses": result.conn_losses,
        "packets_sampled": medium.packets_sampled,
        "packets_lost": medium.packets_lost,
        "nodes": result.nodes,
    }


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_instrumentation_does_not_perturb_the_run(workload, seed):
    plain = ExperimentConfig(name=workload, seed=seed, **WORKLOADS[workload])
    expected = observed(plain)
    assert expected["coap_acked"] > 0 and expected["packets_lost"] > 0
    for channel in ("trace", "metrics", "spans"):
        got = observed(dataclasses.replace(plain, **{channel: True}))
        for key, value in expected.items():
            assert got[key] == value, f"{channel}=1 changed {key}"


#: The line with clocks drawn from ±400 ppm: at seed 3 one of its three
#: links is inside the subordinate's window proof (DESIGN §11) and two are
#: not; one of those misses windows and is lost.  The dark run decides
#: their windows with the exact arithmetic, the traced run every link's.
DRIFTING_LINE = dict(WORKLOADS["line"], drift_ppm_span=400.0)


def missed_windows(config: ExperimentConfig) -> int:
    """Windows the run's subordinates missed, closed connections included."""
    metrics = ExperimentRunner(dataclasses.replace(config, metrics=True)).run().metrics
    return sum(
        scope["counters"].get("ble.conn_events_missed_window", 0)
        for scope in metrics["scopes"].values()
    )


def test_instrumentation_does_not_perturb_a_drifting_line():
    plain = ExperimentConfig(name="line-drift", seed=3, **DRIFTING_LINE)
    expected = observed(plain)
    assert expected["coap_acked"] > 0 and expected["conn_losses"]
    assert missed_windows(plain) > 0
    for channel in ("trace", "metrics", "spans"):
        got = observed(dataclasses.replace(plain, **{channel: True}))
        for key, value in expected.items():
            assert got[key] == value, f"{channel}=1 changed {key}"
