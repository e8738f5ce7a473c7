"""Extension bench: fragmentation fragility vs L2CAP segmentation.

The paper keeps IP packets at 100 bytes so that *neither* link layer
fragments (§4.3 footnote) -- because beyond one frame the two technologies
diverge sharply:

* BLE carries large datagrams in one L2CAP SDU; every lost K-frame is
  retransmitted by the link layer, so loss costs latency, not data;
* 802.15.4 needs RFC 4944 fragmentation, and a single fragment that
  exhausts its MAC retries kills the *whole* datagram (plus a reassembly
  timeout at the receiver).

This bench runs the same CoAP workload with growing payloads over a lossy
channel on both stacks: 802.15.4 delivery must decay with the fragment
count while BLE stays near-lossless.
"""

from repro.exp import ExperimentConfig
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

PAYLOADS = (39, 250, 500, 900)
#: Elevated BER (~17 % loss per 120-byte frame): MAC retries still mostly
#: succeed per fragment, but a datagram must win that bet once per fragment.
LOSSY_BER = 2.0e-4


def run_matrix(duration_s: float):
    keys = [
        (link_layer, payload)
        for link_layer in ("ble", "802154")
        for payload in PAYLOADS
    ]
    configs = [
        ExperimentConfig(
            name=f"frag-{link_layer}-{payload}",
            link_layer=link_layer,
            topology="line",
            n_nodes=3,
            payload_len=payload,
            producer_interval_s=2.0,
            producer_jitter_s=1.0,
            duration_s=duration_s,
            seed=16,
            base_ber=LOSSY_BER,
        )
        for link_layer, payload in keys
    ]
    return {
        key: (
            result.coap_pdr(),
            sum(n.fragmented for n in result.nodes),
            sum(n.reassembly_timeouts for n in result.nodes),
            result.num_connection_losses(),
        )
        for key, result in zip(keys, run_configs(configs))
    }


def test_ext_fragmentation_vs_segmentation(run_once):
    banner("Extension: RFC 4944 fragmentation vs L2CAP segmentation",
           "paper §4.3 footnote")
    duration = scaled(300)
    cells = run_once(run_matrix, duration)

    rows = []
    for payload in PAYLOADS:
        ble_pdr, _, _, ble_losses = cells[("ble", payload)]
        pdr_154, fragmented, timeouts, _ = cells[("802154", payload)]
        rows.append(
            [payload, f"{ble_pdr:.4f}", ble_losses, f"{pdr_154:.4f}",
             fragmented, timeouts]
        )
    print(format_table(
        ["CoAP payload [B]", "BLE PDR", "BLE conn losses", "802.15.4 PDR",
         "fragmented datagrams", "reassembly timeouts"],
        rows,
        title=f"(3-node line, BER {LOSSY_BER:g} ~ 17 % frame loss; BLE loses"
              " only via big-PDU-induced connection instability)",
    ))

    # 802.15.4: fragmentation actually happened for the large payloads
    assert cells[("802154", 39)][1] == 0
    assert cells[("802154", 900)][1] > 0
    # ...and it costs delivery, growing with the fragment count, with the
    # reassembly timeouts to prove the mechanism
    pdrs_154 = [cells[("802154", p)][0] for p in PAYLOADS]
    assert pdrs_154[-1] < pdrs_154[0] - 0.03, (
        "fragmented datagrams must lose materially more than single frames"
    )
    timeouts = [cells[("802154", p)][2] for p in PAYLOADS]
    assert timeouts[-1] > timeouts[0]
    # BLE keeps every payload size near-lossless (its losses are the rare
    # connection drops caused by long-PDU CRC storms, not discarded data)
    for payload in PAYLOADS:
        assert cells[("ble", payload)][0] > 0.98, (
            f"BLE at payload {payload} must stay near-lossless"
        )
        assert cells[("ble", payload)][0] >= cells[("802154", payload)][0], (
            f"BLE must not lose more than 802.15.4 at payload {payload}"
        )
    # the headline divergence
    assert (
        cells[("ble", 900)][0] - cells[("802154", 900)][0] > 0.02
    ), "the fragmentation penalty must separate the stacks at 900 B"