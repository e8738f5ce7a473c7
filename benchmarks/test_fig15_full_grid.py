"""Figure 15 (Appendix B): the full 60-configuration grid.

Six producer intervals x ten connection-interval configurations, each run
in the tree topology.  The paper aggregates 5x1 h per cell into four
panels: link-layer PDR, CoAP PDR, CoAP RTT, and connection losses.  We run
one seed x a scaled duration per cell and print the same four grids.

Base duration: 150 s per cell (60 cells; paper: 5 x 3600 s each).  This is
the heaviest bench -- REPRO_DURATION_SCALE trades runtime for fidelity,
and ``REPRO_WORKERS=4 REPRO_CACHE_DIR=.repro-cache pytest
benchmarks/test_fig15_full_grid.py`` shards the 60 cells across four
worker processes and replays instantly on a second invocation.
"""

from repro.exp import ExperimentConfig
from repro.exp.metrics import percentile
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

PRODUCER_INTERVALS_S = (0.1, 0.5, 1.0, 5.0, 10.0, 30.0)
CONN_SPECS = (
    "25", "50", "75", "100", "500",
    "[15:35]", "[40:60]", "[65:85]", "[90:110]", "[490:510]",
)


def run_grid(duration_s: float):
    keys, configs = [], []
    for producer_s in PRODUCER_INTERVALS_S:
        for spec in CONN_SPECS:
            keys.append((producer_s, spec))
            configs.append(
                ExperimentConfig(
                    name=f"fig15-{producer_s}-{spec}",
                    conn_interval=spec,
                    producer_interval_s=producer_s,
                    producer_jitter_s=producer_s / 2,
                    duration_s=duration_s,
                    warmup_s=10.0,
                    drain_s=10.0,
                    seed=15,
                )
            )
    cells = {}
    for key, result in zip(keys, run_configs(configs)):
        rtts = result.rtts_s()
        cells[key] = {
            "ll_pdr": result.link_pdr_overall(),
            "coap_pdr": result.coap_pdr(),
            "rtt_p50": percentile(rtts, 0.5) if rtts else float("nan"),
            "losses": result.num_connection_losses(),
        }
    return cells


def _grid_table(cells, metric, fmt):
    headers = ["conn \\ prod"] + [f"{p}s" for p in PRODUCER_INTERVALS_S]
    rows = []
    for spec in CONN_SPECS:
        row = [spec]
        for producer_s in PRODUCER_INTERVALS_S:
            row.append(fmt(cells[(producer_s, spec)][metric]))
        rows.append(row)
    return format_table(headers, rows)


def test_fig15_full_configuration_grid(run_once):
    banner("Figure 15: the 60-configuration grid", "paper Appendix B, Fig. 15")
    duration = scaled(150, minimum=120)
    cells = run_once(run_grid, duration)

    print("\nlink-layer PDR")
    print(_grid_table(cells, "ll_pdr", lambda v: f"{v:.3f}"))
    print("\nCoAP PDR")
    print(_grid_table(cells, "coap_pdr", lambda v: f"{v:.3f}"))
    print("\nCoAP RTT p50 [s]")
    print(_grid_table(cells, "rtt_p50", lambda v: f"{v:.2f}"))
    print("\nconnection losses")
    print(_grid_table(cells, "losses", str))

    # ---- the grid's qualitative structure ----------------------------------
    # (1) moderate loads at sane intervals deliver ~everything
    for producer_s in (1.0, 5.0, 10.0, 30.0):
        for spec in ("75", "[65:85]"):
            assert cells[(producer_s, spec)]["coap_pdr"] > 0.99, (
                f"cell ({producer_s}, {spec}) must be near-lossless"
            )
    # (2) the overload column (100 ms producers) hurts everywhere
    for spec in ("75", "[65:85]"):
        assert cells[(0.1, spec)]["coap_pdr"] < 0.97
    # (3) 500 ms static under overload is the worst corner of the paper grid
    assert cells[(0.1, "500")]["coap_pdr"] < cells[(0.1, "75")]["coap_pdr"] + 0.05
    # (4) RTT medians track the connection interval at moderate load
    assert (
        cells[(1.0, "25")]["rtt_p50"]
        < cells[(1.0, "75")]["rtt_p50"]
        < cells[(1.0, "500")]["rtt_p50"]
    )
    # (5) randomized windows do not lose more connections than their static
    #     counterparts (aggregate)
    static_losses = sum(
        cells[(p, s)]["losses"] for p in PRODUCER_INTERVALS_S for s in ("25", "50", "75", "100", "500")
    )
    random_losses = sum(
        cells[(p, s)]["losses"] for p in PRODUCER_INTERVALS_S
        for s in ("[15:35]", "[40:60]", "[65:85]", "[90:110]", "[490:510]")
    )
    print(f"\naggregate connection losses: static={static_losses} random={random_losses}")
    assert random_losses <= static_losses
