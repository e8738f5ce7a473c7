"""Figure 13: fixed vs randomized connection intervals, long runs (§6.3).

The paper's 24-hour experiments on tree and line topologies: with a static
75 ms interval the network suffers connection losses (95 over 24 h) and the
corresponding CoAP losses; with intervals randomized in [65:85] ms (unique
per node) *not a single CoAP packet of >1.2 M requests is lost*.  The price
is a slightly lower link-layer PDR (98 % -> 96 % tree) -- randomized
anchors collide transiently all the time, costing retransmissions, but
never persistently.

Base duration: 2400 s per configuration (paper: 86400 s), so the static
runs have room for a few shading events.
"""

from repro.exp import ExperimentConfig
from repro.exp.asciiplot import render_cdf
from repro.exp.metrics import cdf, percentile
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

# §6.3's evaluation text quotes the tree AND the star ("decreases the
# overall link layer packet delivery rates ... from 98 % to 96 % in the
# tree and 99 % to 98 % in the star topology"); Fig. 13 plots tree + line.
# We run all three.
CONFIGS = [
    ("tree", "75"),
    ("tree", "[65:85]"),
    ("line", "75"),
    ("line", "[65:85]"),
    ("star", "75"),
    ("star", "[65:85]"),
]


def run_all(duration_s: float):
    configs = [
        ExperimentConfig(
            name=f"fig13-{topology}-{interval}",
            topology=topology,
            conn_interval=interval,
            duration_s=duration_s,
            sample_period_s=max(10.0, duration_s / 100),
            seed=1,
        )
        for topology, interval in CONFIGS
    ]
    return dict(zip(CONFIGS, run_configs(configs)))


def test_fig13_static_vs_random_intervals(run_once):
    banner("Figure 13: static vs randomized connection intervals", "paper §6.3, Fig. 13")
    duration = scaled(2400)
    results = run_once(run_all, duration)

    rows = []
    for (topology, interval), result in results.items():
        rtts = result.rtts_s()
        rows.append(
            [
                topology,
                interval,
                result.coap_sent(),
                result.coap_losses(),
                result.num_connection_losses(),
                f"{result.link_pdr_overall():.4f}",
                f"{percentile(rtts, 0.99):.3f}",
            ]
        )
    print(format_table(
        ["topology", "interval", "requests", "CoAP losses", "conn losses",
         "LL PDR", "RTT p99 [s]"],
        rows,
        title="(paper 24 h: static loses 95 connections; random loses none "
              "of 1.2 M packets; LL PDR dips 98->96 / 99->98)",
    ))
    print("\nFig 13(c): RTT CDFs")
    print(render_cdf(
        {
            f"{topo} {itvl}": cdf(res.rtts_s())
            for (topo, itvl), res in results.items()
        },
        x_label="RTT [s]",
    ))

    for topology in ("tree", "line", "star"):
        static = results[(topology, "75")]
        randomized = results[(topology, "[65:85]")]
        # the headline: randomization eliminates shading losses
        assert randomized.num_connection_losses() == 0, (
            f"{topology}: randomized intervals must not lose connections"
        )
        assert randomized.coap_losses() == 0, (
            f"{topology}: randomized intervals must deliver every packet"
        )
        # and the static configuration does lose connections over a long run
        # (aggregate across topologies checked below)
        # the LL PDR trade-off: random <= static (more transient collisions)
        assert (
            randomized.link_pdr_overall() <= static.link_pdr_overall() + 0.005
        ), f"{topology}: LL PDR trade-off inverted"
    static_losses = (
        results[("tree", "75")].num_connection_losses()
        + results[("line", "75")].num_connection_losses()
    )
    assert static_losses > 0, "static intervals must show shading losses"
