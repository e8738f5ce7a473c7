"""Ablation: the BT-mandated event abort on CRC error (§5.2's burst killer).

The standard closes a connection event on the first CRC error even when
packets still wait.  The paper identifies this as the reason burst traffic
(long connection intervals) collapses: the longer the event, the likelier
an abort, so links never reach their nominal capacity.

This bench runs the Fig. 9(b) burst regime with the rule on (standard) and
off (hypothetical controller) -- turning it off recovers a large part of
the delivery rate, confirming the mechanism.
"""

from repro.exp import ExperimentConfig
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled


def run_pair(duration_s: float, seeds=(10, 11)):
    keys = [(abort, seed) for abort in (True, False) for seed in seeds]
    configs = [
        ExperimentConfig(
            name=f"abort-{abort}",
            conn_interval="2000",
            producer_interval_s=1.0,
            producer_jitter_s=0.5,
            duration_s=duration_s,
            warmup_s=25.0,
            drain_s=15.0,
            seed=seed,
            abort_event_on_crc_error=abort,
        )
        for abort, seed in keys
    ]
    pdr_sum = {True: 0.0, False: 0.0}
    aborts = {True: 0, False: 0}
    for (abort, _), result in zip(keys, run_configs(configs)):
        pdr_sum[abort] += result.coap_pdr()
        aborts[abort] += sum(n.crc_aborts for n in result.nodes)
    return {
        abort: (pdr_sum[abort] / len(seeds), aborts[abort])
        for abort in (True, False)
    }


def test_abl_event_abort(run_once):
    banner("Ablation: event abort on CRC error", "paper §5.2 mechanism check")
    duration = scaled(300)
    outcomes = run_once(run_pair, duration)
    print(format_table(
        ["abort on CRC error", "CoAP PDR (burst regime)", "CRC events"],
        [
            ["on (standard)", f"{outcomes[True][0]:.3f}", outcomes[True][1]],
            ["off (hypothetical)", f"{outcomes[False][0]:.3f}", outcomes[False][1]],
        ],
        title="(2 s connection interval, 1 s producers -- Fig. 9b's regime)",
    ))
    assert outcomes[False][0] > outcomes[True][0] + 0.02, (
        "disabling the abort rule must recover burst-regime delivery"
    )
