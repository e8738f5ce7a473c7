"""Figure 9: high network load and the burst regime (paper §5.2).

Two configurations on the tree:

* (a) producers at 100 ms ±50 ms with a 75 ms connection interval: the
  paper measures ~75 % average CoAP PDR, all losses at overflowing packet
  buffers, an *uneven* PDR across producers (radio capacity is distributed
  unevenly across a node's connections), and occasional PDR jumps after
  beneficial reconnections;
* (b) a 2000 ms connection interval with 1 s producers: traffic turns into
  bursts, CRC errors abort whole connection events, and the PDR collapses
  further.

Base duration: 300 s (paper: 3600 s).
"""

from repro.exp import ExperimentConfig
from repro.exp.asciiplot import render_heat_rows, render_series
from repro.exp.metrics import aggregate_binned_pdr, producer_binned_pdr
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled


def run_both(duration_s: float):
    return run_configs([
        ExperimentConfig(
            name="fig9a",
            producer_interval_s=0.1,
            producer_jitter_s=0.05,
            duration_s=duration_s,
            seed=10,
        ),
        ExperimentConfig(
            name="fig9b",
            conn_interval="2000",
            producer_interval_s=1.0,
            producer_jitter_s=0.5,
            duration_s=duration_s,
            warmup_s=25.0,
            drain_s=15.0,
            seed=10,
        ),
    ])


def test_fig09_high_load(run_once):
    banner("Figure 9: high load & burst regime", "paper §5.2, Fig. 9")
    duration = scaled(300)
    high, burst = run_once(run_both, duration)

    drops_high = sum(n.pktbuf_drops for n in high.nodes)
    print(format_table(
        ["scenario", "CoAP PDR", "pktbuf drops", "conn losses"],
        [
            ["(a) 100 ms producers, 75 ms itvl", f"{high.coap_pdr():.3f}",
             drops_high, high.num_connection_losses()],
            ["(b) 1 s producers, 2000 ms itvl", f"{burst.coap_pdr():.3f}",
             sum(n.pktbuf_drops for n in burst.nodes),
             burst.num_connection_losses()],
        ],
        title="(paper: (a) ~75 % with buffer-overflow losses, (b) lower still)",
    ))

    # Fig 9(a) heatmap: per-producer PDR over time
    end_s = high.config.total_runtime_s
    bin_s = max(10.0, duration / 30)
    heat = {}
    for producer in high.producers:
        _, pdrs = producer_binned_pdr(producer, bin_s=bin_s, t_end_s=end_s)
        heat[f"node {producer.node_id}"] = pdrs
    print("\nFig 9(a): per-producer CoAP PDR heat rows (time -->)")
    print(render_heat_rows(heat))

    times, pdrs = aggregate_binned_pdr(high.producers, bin_s=bin_s, t_end_s=end_s)
    print("\nFig 9(a) bottom: average CoAP PDR over runtime")
    print(render_series({"avg PDR": (times, pdrs)}, y_lo=0.0, y_hi=1.0))

    # ---- shape assertions -------------------------------------------------
    # (a): overload loses packets at the buffers, but far from collapse
    assert 0.5 < high.coap_pdr() < 0.97, f"high-load PDR {high.coap_pdr():.3f}"
    assert drops_high > 0, "losses must be attributable to packet buffers"
    # (a): PDR unevenly distributed across producers
    per_producer = list(high.coap_pdr_per_producer().values())
    assert max(per_producer) - min(per_producer) > 0.10, (
        "per-producer PDR must spread (uneven radio capacity)"
    )
    # (b): the burst regime is worse than the constant-rate overload
    assert burst.coap_pdr() < high.coap_pdr(), (
        "2 s intervals + bursts must underperform constant-rate overload"
    )
