"""Figure 12: link degradation under connection shading (paper §6.1).

A tree network with static 75 ms intervals and the ALTERNATE overlap policy
(the paper's "choice (ii)": the controller alternates overlapping events
instead of starving one connection).  Clock drifts are set explicitly so
two of the consumer's links slide into overlap *during* the run: the
affected upstream link's layer-2 PDR drops towards ~50 %, the owning
producer's CoAP PDR dips, and the degradation hits all data channels
evenly -- the three panels of Figure 12.

Base duration: 700 s; the ±45 ppm drift pair guarantees one full anchor
wrap (75 ms / 90 us/s = 833 s) so the overlap occurs within the run.
(The paper's boards drift ~6 us/s and shade after hours; the larger drift
is pure acceleration, the geometry is identical.)
"""

import math

from repro.core.shading import detect_degradation_spans
from repro.exp import ExperimentConfig, run_experiment
from repro.exp.asciiplot import render_heat_rows, render_series
from repro.exp.metrics import per_channel_pdr
from repro.exp.report import format_table

from conftest import banner, scaled

#: node 1 and node 2 coordinate the consumer's first two links; ±45 ppm
#: makes their anchors slide 90 us/s against each other.
DRIFTS = (0.0, 45.0, -45.0) + (0.0,) * 12


def run(duration_s: float):
    return run_experiment(
        ExperimentConfig(
            name="fig12",
            conn_interval="75",
            scheduler_policy="alternate",
            drift_ppms=DRIFTS,
            duration_s=duration_s,
            sample_period_s=min(10.0, duration_s / 40),
            seed=12,
        )
    )


def test_fig12_shading_link_degradation(run_once):
    banner("Figure 12: shading-induced link degradation", "paper §6.1, Fig. 12")
    duration = scaled(700, minimum=700)
    result = run_once(run, duration)

    # locate the most-degraded upstream link among the drifting pair
    worst_child, worst_span, worst_min = None, None, 1.0
    series_by_child = {}
    for child in (1, 2):
        series = result.upstream_series(child)
        assert series is not None
        times, pdrs = series.binned_pdr()
        series_by_child[child] = (times, pdrs)
        if pdrs and min(pdrs) < worst_min:
            worst_min = min(pdrs)
            worst_child = child
            worst_span = detect_degradation_spans(times, pdrs, threshold=0.9)

    print(format_table(
        ["link", "overall LL PDR", "min binned LL PDR", "degradation spans"],
        [
            [
                f"node {child} -> consumer",
                f"{result.upstream_series(child).overall_pdr():.3f}",
                f"{min(p) if (p := series_by_child[child][1]) else 1.0:.3f}",
                len(detect_degradation_spans(*series_by_child[child], threshold=0.9)),
            ]
            for child in (1, 2)
        ],
        title="(paper: the shaded link's LL PDR drops to ~50 %)",
    ))

    print("\nFig 12 middle: upstream LL PDR over runtime")
    print(render_series(
        {f"node {c} upstream": series_by_child[c] for c in (1, 2)},
        y_lo=0.4, y_hi=1.0,
    ))

    # per-channel PDR of the degraded link: Figure 12 bottom
    series = result.link_series.get(((worst_child, 0), "up"))
    assert series is not None
    pdrs = per_channel_pdr(series.channels)
    used = [p for p in pdrs if not math.isnan(p)]
    print("\nFig 12 bottom: per-channel LL PDR of the degraded link")
    print(render_heat_rows({f"node {worst_child} ch 0-36": pdrs}, lo=0.5, hi=1.0))

    # ---- shape assertions ---------------------------------------------------
    assert worst_min < 0.85, (
        f"expected a shading degradation below 0.85 LL PDR, saw {worst_min:.3f}"
    )
    assert worst_span, "a degradation span must be detectable"
    # alternation degrades, it does not (necessarily) kill: the paper's link
    # drops towards ~50 % while the connection stays up
    assert worst_min > 0.25
    # degradation is even across channels (the paper's key diagnostic: not
    # interference but time-domain shading): no channel is an outlier
    assert max(used) - min(used) < 0.45, "per-channel PDRs must degrade evenly"
    # the knock-on CoAP dip: the degraded link's producer loses more than the
    # untouched fleet average (or at least delivery stayed complete thanks to
    # retransmissions -- then latency absorbed the hit, which we accept)
    print(f"\nCoAP PDR of producer {worst_child}: "
          f"{result.coap_pdr_per_producer()[worst_child]:.4f} "
          f"(fleet: {result.coap_pdr():.4f})")
