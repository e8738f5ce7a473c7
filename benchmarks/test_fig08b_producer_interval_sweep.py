"""Figure 8(b): RTT versus producer interval at a fixed 75 ms connection
interval (paper §5.1).

Paper result: the producer interval has *no significant impact* on delay as
long as the offered load stays within capacity; only the overload point
(100 ms producers) shows increased delays.

Base duration: 300 s per configuration (paper: 3600 s each).
"""

from repro.exp import ExperimentConfig
from repro.exp.asciiplot import render_cdf
from repro.exp.metrics import cdf, percentile
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

PRODUCER_INTERVALS_S = (0.1, 0.5, 1.0, 5.0, 10.0, 30.0)


def run_sweep(duration_s: float):
    configs = [
        ExperimentConfig(
            name=f"fig8b-{interval_s}",
            producer_interval_s=interval_s,
            producer_jitter_s=interval_s / 2,
            duration_s=duration_s,
            seed=9,
        )
        for interval_s in PRODUCER_INTERVALS_S
    ]
    results = run_configs(configs)
    return {
        i: (r.rtts_s(), r.coap_pdr())
        for i, r in zip(PRODUCER_INTERVALS_S, results)
    }


def test_fig08b_producer_interval_sweep(run_once):
    banner("Figure 8(b): RTT vs producer interval at 75 ms", "paper §5.1, Fig. 8b")
    # 30 s producers need enough runtime for samples: floor at 600 s
    duration = scaled(600, minimum=600)
    data = run_once(run_sweep, duration)

    rows = []
    for interval_s, (samples, pdr) in data.items():
        rows.append(
            [
                interval_s,
                len(samples),
                f"{pdr:.4f}",
                f"{percentile(samples, 0.5) * 1000:.0f}",
                f"{percentile(samples, 0.99) * 1000:.0f}",
            ]
        )
    print(format_table(
        ["producer itvl [s]", "samples", "PDR", "RTT p50 [ms]", "RTT p99 [ms]"],
        rows,
        title="(paper: delay independent of load until capacity is exceeded)",
    ))
    print(render_cdf(
        {f"{i} s": cdf(samples) for i, (samples, _) in data.items()},
        x_label="RTT [s]",
    ))

    # within-capacity loads: medians cluster (factor < 2 spread)
    medians = {
        i: percentile(samples, 0.5)
        for i, (samples, _) in data.items()
        if i >= 0.5
    }
    assert max(medians.values()) / min(medians.values()) < 2.0, (
        f"in-capacity medians spread too far: {medians}"
    )
    # the overload point shows the queueing penalty in the tail
    overload_p99 = percentile(data[0.1][0], 0.99)
    nominal_p99 = percentile(data[1.0][0], 0.99)
    assert overload_p99 > nominal_p99, "overload must inflate the RTT tail"
