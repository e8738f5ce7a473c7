"""Figure 10: BLE versus IEEE 802.15.4 (paper §5.3).

The same tree and the same 1 s ±0.5 s CoAP workload on three stacks:
802.15.4 CSMA/CA, BLE at 25 ms, and BLE at 75 ms.  Paper result: the
802.15.4 network operates at its capacity limit (83.3 % PDR -- contention
losses after macMaxFrameRetries) while BLE delivers >99 %; 802.15.4's
delays are backoff-sized and hence much smaller than BLE's
interval-quantized ones.

Base duration: 300 s per stack (paper: 3600 s).
"""

from repro.exp import ExperimentConfig
from repro.exp.asciiplot import render_cdf, render_series
from repro.exp.metrics import aggregate_binned_pdr, cdf, percentile
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

SCENARIOS = (
    ("IEEE 802.15.4", dict(link_layer="802154")),
    ("BLE 25 ms", dict(link_layer="ble", conn_interval="25")),
    ("BLE 75 ms", dict(link_layer="ble", conn_interval="75")),
)


def run_all(duration_s: float):
    configs = [
        ExperimentConfig(name=label, duration_s=duration_s, seed=11, **overrides)
        for label, overrides in SCENARIOS
    ]
    return dict(zip((label for label, _ in SCENARIOS), run_configs(configs)))


def test_fig10_ble_vs_802154(run_once):
    banner("Figure 10: BLE vs IEEE 802.15.4", "paper §5.3, Fig. 10")
    duration = scaled(300)
    results = run_once(run_all, duration)

    rows = []
    for label, result in results.items():
        rtts = result.rtts_s()
        rows.append(
            [
                label,
                f"{result.coap_pdr():.4f}",
                f"{percentile(rtts, 0.5) * 1000:.0f}",
                f"{percentile(rtts, 0.99) * 1000:.0f}",
            ]
        )
    print(format_table(
        ["stack", "CoAP PDR", "RTT p50 [ms]", "RTT p99 [ms]"],
        rows,
        title="(paper: 802.15.4 83.3 % but fast; BLE >99 % but interval-bound)",
    ))

    end_s = results["BLE 75 ms"].config.total_runtime_s
    print("\nFig 10(a): PDR over runtime")
    print(render_series(
        {
            label: aggregate_binned_pdr(res.producers, bin_s=max(10.0, duration / 30), t_end_s=end_s)
            for label, res in results.items()
        },
        y_lo=0.5,
        y_hi=1.0,
    ))
    print("\nFig 10(b): RTT CDFs")
    print(render_cdf(
        {label: cdf(res.rtts_s()) for label, res in results.items()},
        x_label="RTT [s]",
    ))

    m154 = results["IEEE 802.15.4"]
    ble25 = results["BLE 25 ms"]
    ble75 = results["BLE 75 ms"]
    # who wins on reliability: BLE, because 802.15.4 drops after retries
    assert m154.coap_pdr() < min(ble25.coap_pdr(), ble75.coap_pdr())
    assert ble75.coap_pdr() > 0.99
    assert m154.coap_pdr() < 0.99
    drops = sum(n.mac_drops for n in m154.nodes)
    assert drops > 0, "802.15.4 losses must come from MAC retry exhaustion"
    # who wins on latency: 802.15.4, by a wide margin against BLE 75 ms
    assert percentile(m154.rtts_s(), 0.5) < percentile(ble75.rtts_s(), 0.5) / 2
    # and the BLE interval ordering holds
    assert percentile(ble25.rtts_s(), 0.5) < percentile(ble75.rtts_s(), 0.5)
