"""Figure 8(a): RTT versus the BLE connection interval (paper §5.1).

Tree topology, 1 s ±0.5 s producers, connection intervals swept over the
paper's set {25, 50, 75, 100, 250, 500, 750} ms.  Paper result: most
packets complete within 1..4 connection intervals (mean hop count 2.14),
so the CDFs shift right roughly proportionally to the interval; larger
intervals push delays into the seconds.

Base duration: 240 s per configuration (paper: 3600 s each).
"""

from repro.exp import ExperimentConfig
from repro.exp.asciiplot import render_cdf
from repro.exp.metrics import cdf, percentile
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

INTERVALS_MS = (25, 50, 75, 100, 250, 500, 750)


def run_sweep(duration_s: float):
    configs = [
        ExperimentConfig(
            name=f"fig8a-{interval}",
            conn_interval=str(interval),
            duration_s=duration_s,
            warmup_s=10.0,
            drain_s=8.0,
            seed=8,
        )
        for interval in INTERVALS_MS
    ]
    results = run_configs(configs)
    return {i: r.rtts_s() for i, r in zip(INTERVALS_MS, results)}


def test_fig08a_interval_sweep(run_once):
    banner("Figure 8(a): RTT CDF vs connection interval", "paper §5.1, Fig. 8a")
    duration = scaled(240)
    rtts = run_once(run_sweep, duration)

    rows = []
    for interval, samples in rtts.items():
        rows.append(
            [
                interval,
                len(samples),
                f"{percentile(samples, 0.5) * 1000:.0f}",
                f"{percentile(samples, 0.9) * 1000:.0f}",
                f"{percentile(samples, 0.99) * 1000:.0f}",
                f"{percentile(samples, 0.5) / (interval / 1000):.1f}",
            ]
        )
    print(format_table(
        ["conn itvl [ms]", "samples", "p50 [ms]", "p90 [ms]", "p99 [ms]", "p50 / interval"],
        rows,
        title="(paper: bulk of packets within 1-4 connection intervals)",
    ))
    print(render_cdf(
        {f"{i} ms": cdf(samples) for i, samples in rtts.items()},
        x_label="RTT [s]",
    ))

    medians = {i: percentile(s, 0.5) for i, s in rtts.items()}
    # medians grow monotonically with the interval
    ordered = [medians[i] for i in INTERVALS_MS]
    assert ordered == sorted(ordered), f"medians not monotone: {medians}"
    # most packets complete within 1..4 intervals (mean hop count 2.14)
    for interval in INTERVALS_MS:
        in_units = medians[interval] / (interval / 1000)
        assert 1.0 <= in_units <= 4.5, (
            f"median at {interval} ms is {in_units:.1f} intervals, off-shape"
        )
    # large intervals reach into seconds -- the §8 warning territory
    assert percentile(rtts[750], 0.9) > 1.0
