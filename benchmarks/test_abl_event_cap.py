"""Ablation: the per-event reservation cap (scheduler calibration knob).

DESIGN.md calls out the one scheduling heuristic we had to calibrate rather
than copy: how much radio time a controller reserves per connection event.
This bench sweeps the cap under the high-load regime, showing the
capacity/fairness trade-off and why 6 ms (at 75 ms intervals) reproduces
the paper's ~75 % Fig. 9a result.
"""

from repro.exp import ExperimentConfig
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

CAPS_MS = (3.0, 6.0, 12.0, 0.0)  # 0 = unbounded


def run_sweep(duration_s: float):
    configs = [
        ExperimentConfig(
            name=f"cap-{cap}",
            producer_interval_s=0.1,
            producer_jitter_s=0.05,
            duration_s=duration_s,
            seed=10,
            max_event_len_ms=cap,
        )
        for cap in CAPS_MS
    ]
    return {cap: r.coap_pdr() for cap, r in zip(CAPS_MS, run_configs(configs))}


def test_abl_event_length_cap(run_once):
    banner("Ablation: per-event reservation cap", "DESIGN.md calibration")
    duration = scaled(240)
    outcomes = run_once(run_sweep, duration)
    rows = [
        ["unbounded" if cap == 0 else f"{cap:g} ms", f"{pdr:.3f}"]
        for cap, pdr in outcomes.items()
    ]
    print(format_table(
        ["event cap", "CoAP PDR under overload"],
        rows,
        title="(paper measures ~75 % here; 6 ms is our calibrated default)",
    ))
    # monotone: a larger reservation can only help under overload
    assert outcomes[3.0] < outcomes[6.0] < outcomes[12.0] <= outcomes[0.0] + 0.02
    # the calibrated default lands in the paper's band
    assert 0.60 < outcomes[6.0] < 0.90
