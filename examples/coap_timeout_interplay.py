#!/usr/bin/env python3
"""CoAP retransmission timers versus slow connection intervals (paper §8).

The paper warns that connection intervals in the order of seconds conflict
with CoAP's default 2 s retransmission timeout: requests that are merely
*queued* behind a slow link get retransmitted by the application layer,
inflating network load although nothing was lost.

This example sends **confirmable** CoAP requests over a line network and
compares a 75 ms connection interval against a 2 s one: watch the CoAP
retransmission counter explode while actual end-to-end losses stay near
zero.

Run with::

    python examples/coap_timeout_interplay.py [duration_seconds]
"""

import sys

from repro import ExperimentConfig, run_experiment
from repro.exp.metrics import summarize_rtt
from repro.exp.report import format_table


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    rows = []
    for interval in ("75", "2000"):
        config = ExperimentConfig(
            name=f"con-{interval}",
            topology="line",
            n_nodes=6,
            conn_interval=interval,
            confirmable=True,           # CON requests arm the RFC 7252 timers
            metrics=True,               # count retransmissions and give-ups
            producer_interval_s=2.0,
            producer_jitter_s=1.0,
            duration_s=duration,
            warmup_s=10.0,
            drain_s=10.0,
            seed=5,
        )
        print(f"running line network with {interval} ms connection interval ...")
        result = run_experiment(config)
        scopes = result.metrics["scopes"].values()
        retransmissions = sum(
            s["counters"].get("coap.retransmissions", 0) for s in scopes
        )
        timeouts = sum(s["counters"].get("coap.timeouts", 0) for s in scopes)
        rtt = summarize_rtt(result.rtts_s())
        rows.append(
            [
                interval,
                result.coap_sent(),
                f"{result.coap_pdr():.4f}",
                retransmissions,
                timeouts,
                f"{rtt['p99']:.2f}",
            ]
        )
    print()
    print(
        format_table(
            [
                "conn itvl [ms]",
                "requests",
                "PDR",
                "CoAP retransmissions",
                "CoAP give-ups",
                "RTT p99 [s]",
            ],
            rows,
            title="=== §8: stateful protocols over slow BLE links ===",
        )
    )
    print(
        "\nWith a 2 s connection interval, multi-hop delivery takes longer than\n"
        "CoAP's 2 s ACK timeout: the application retransmits requests that were\n"
        "never lost -- exactly the §8 warning about stateful protocols."
    )


if __name__ == "__main__":
    main()
