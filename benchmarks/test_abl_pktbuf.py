"""Ablation: connection interval versus packet-buffer pressure (§8).

The paper's §8 guidance: "the length of the connection interval should be
configured based on the BLE and IP packet buffer sizes available" --
outgoing packets queue until the next connection event, so longer intervals
need proportionally more buffer, and once the buffer saturates reliability
collapses.

Part 1 sweeps the connection interval at the paper's 6144-byte default and
shows peak buffer occupancy rising from a few hundred bytes to full
saturation, with losses following.  Part 2 sweeps the buffer size in the
saturated (2 s interval) regime: more memory buys back some delivery, but
cannot fix the abort-limited radio -- buffers trade loss for delay only up
to the link's real capacity.
"""

from repro.exp import ExperimentConfig
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

INTERVALS = ("75", "500", "1000", "2000")
BUFFER_SIZES = (1536, 6144, 24576)


def run_interval_sweep(duration_s: float):
    configs = [
        ExperimentConfig(
            name=f"buf-iv-{interval}",
            conn_interval=interval,
            duration_s=duration_s,
            warmup_s=25.0,
            drain_s=15.0,
            seed=10,
        )
        for interval in INTERVALS
    ]
    return {
        interval: (
            result.coap_pdr(),
            max(n.pktbuf_peak for n in result.nodes),
            sum(n.pktbuf_drops for n in result.nodes),
        )
        for interval, result in zip(INTERVALS, run_configs(configs))
    }


def run_buffer_sweep(duration_s: float, seeds=(10, 11)):
    keys = [(size, seed) for size in BUFFER_SIZES for seed in seeds]
    configs = [
        ExperimentConfig(
            name=f"buf-sz-{size}",
            conn_interval="2000",
            duration_s=duration_s,
            warmup_s=25.0,
            drain_s=15.0,
            seed=seed,
            pktbuf_bytes=size,
        )
        for size, seed in keys
    ]
    pdr = dict.fromkeys(BUFFER_SIZES, 0.0)
    for (size, _), result in zip(keys, run_configs(configs)):
        pdr[size] += result.coap_pdr()
    return {size: total / len(seeds) for size, total in pdr.items()}


def test_abl_interval_vs_buffer_pressure(run_once):
    banner("Ablation: connection interval vs packet-buffer pressure", "paper §8")
    duration = scaled(240)
    intervals, buffers = run_once(
        lambda: (run_interval_sweep(duration), run_buffer_sweep(duration))
    )

    print(format_table(
        ["conn itvl [ms]", "CoAP PDR", "peak pktbuf [B]", "pktbuf drops"],
        [[iv, f"{p:.3f}", peak, drops] for iv, (p, peak, drops) in intervals.items()],
        title="part 1: interval sweep at the 6144-byte default buffer",
    ))
    print()
    print(format_table(
        ["pktbuf [bytes]", "CoAP PDR (2 s interval)"],
        [[size, f"{pdr:.3f}"] for size, pdr in buffers.items()],
        title="part 2: buffer sweep in the saturated burst regime",
    ))

    # §8 shape: buffer occupancy and losses grow with the interval...
    peaks = [intervals[iv][1] for iv in INTERVALS]
    drops = [intervals[iv][2] for iv in INTERVALS]
    pdrs = [intervals[iv][0] for iv in INTERVALS]
    assert peaks == sorted(peaks), f"peak occupancy must grow: {peaks}"
    assert drops == sorted(drops), f"drops must grow with interval: {drops}"
    assert pdrs == sorted(pdrs, reverse=True), f"PDR must fall: {pdrs}"
    assert intervals["75"][2] == 0, "75 ms must not pressure the buffer"
    assert intervals["2000"][1] >= 6000, "2 s must saturate the default buffer"
    # ...and more memory helps only marginally once the radio is the limit
    assert buffers[24576] >= buffers[1536]
    assert buffers[24576] - buffers[1536] < 0.15, (
        "memory alone must not fix an abort-limited link"
    )
